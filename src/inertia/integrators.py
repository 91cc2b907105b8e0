"""Fixed-step integrators for the damped/forced second-order dynamics.

Five methods are provided:

``explicit_euler``
    Forward Euler on the first-order system. Included as a negative
    control: on the frictionless quadratic it multiplies the energy by
    (1 + h^2) every step, so conservation failures are easy to demo.
``rk4``
    Classical fourth-order Runge-Kutta; the accuracy reference.
``verlet``
    Velocity Verlet (kick-drift-kick). Symplectic, time-reversible, and
    the method of choice for frictionless runs: the energy error stays
    bounded instead of drifting.
``damped_splitting``
    Symmetric splitting D(h/2) K(h/2) X(h) K(h/2) D(h/2) where D is the
    exact velocity damping v <- exp(-gamma h/2) v, K the gradient kick,
    and X the position drift. Reduces bit-for-bit to ``verlet`` when
    gamma = 0. When gamma > 0, on a quadratic, the modified energy
    I - (h^2/8)|grad L(w)|^2 falls at every step, since the damping only
    shrinks v and the kick-drift-kick core conserves it; I itself decays along
    it but may rise between steps (by 1.2e-9 on iso2d at gamma = 1e-3,
    h = 0.01).
``stochastic_splitting``
    Same layout with the damping replaced by the exact damped-noise
    half-step v <- a v + s xi (a = exp(-gamma h/2), s chosen so the
    velocity variance is exact for the linearized noise process). With
    sigma = 0 it reduces to ``damped_splitting``; with exponentially
    correlated noise the forcing value is carried as extra state and
    enters the kicks as an ordinary force.

All methods use a fixed step h. Stochastic runs are reproducible for a
fixed seed and generator; the generator algorithm is recorded in run
manifests as ``RNG_ALGORITHM``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from .dynamics import _ROW_FLOATS, State, SystemSpec, _kinetic_plus
from .errors import InvalidArgument, NumericalFailure
from .forking import partner

__all__ = [
    "METHODS",
    "RNG_ALGORITHM",
    "IntegratorConfig",
    "Trajectory",
    "check_method",
    "check_step_count",
    "member_rng",
    "integrate",
    "step_verlet",
    "step_damped_splitting",
    "step_stochastic",
    "ensemble_samples",
]

METHODS = ("explicit_euler", "rk4", "verlet", "damped_splitting", "stochastic_splitting")

#: Bit generator used for all stochastic runs (recorded in manifests).
RNG_ALGORITHM = "PCG64"

# Below this damping the exact noise-variance formula sigma^2 (1-a^2)/(2 gamma)
# degenerates to 0/0; switch to its gamma -> 0 limit sigma^2 * (half-step).
_GAMMA_TINY = 1e-12


def check_step_count(n_steps: float) -> None:
    """Raise InvalidArgument for a run of more than 1e8 steps; the one such limit."""
    if not n_steps <= 1e8:  # written so that a NaN fails it
        raise InvalidArgument(f"refusing a run of {n_steps:.3g} steps (limit 1e8)")


def member_rng(seed: int, member_index: int = 0) -> np.random.Generator:
    """Independent, scheduling-order-free stream for one ensemble member.

    Streams are derived from (seed, member_index): numpy's PCG64 seeded by
    ``SeedSequence(entropy=seed, spawn_key=(member_index,))``, so member k's
    draws do not depend on how many members run or in what order. A single
    trajectory is member 0 of its own ensemble.
    """
    from .streams import member_rngs  # loads numpy.random, which noise-free runs never need

    return member_rngs(seed, member_index, member_index + 1)[0]


@dataclass(frozen=True)
class IntegratorConfig:
    method: str
    h: float
    t_end: float
    seed: int = 0
    record_every: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidArgument(f"method must be one of {METHODS}, got {self.method!r}")
        if not 0 < self.h < np.inf:
            raise InvalidArgument(f"step size must be positive and finite, got {self.h}")
        if not self.t_end > 0:
            raise InvalidArgument(f"horizon must be positive, got {self.t_end}")
        check_step_count(self.t_end / self.h)
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= int(self.seed) < 2**64):
            raise InvalidArgument(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not (isinstance(self.record_every, (int, np.integer)) and self.record_every >= 1):
            raise InvalidArgument(f"record_every must be a positive integer, got {self.record_every!r}")

    @property
    def n_steps(self) -> int:
        n = int(round(self.t_end / self.h))
        if n * self.h < self.t_end - 1e-12:
            n += 1
        return n


@dataclass
class Trajectory:
    """Recorded samples of one run, with the energy evaluated per sample.

    ``ws``/``vs`` have shape (n_samples, dim). ``noise`` carries the
    forcing value at each sample for correlated-noise runs, else None.
    ``spec`` and ``config`` snapshot exactly what produced the data.
    """

    times: np.ndarray
    ws: np.ndarray
    vs: np.ndarray
    inertia: np.ndarray
    spec: SystemSpec
    config: IntegratorConfig
    noise: np.ndarray | None = None

    def __len__(self):
        return self.times.shape[0]

    @property
    def speed_squared(self) -> np.ndarray:
        return np.sum(self.vs * self.vs, axis=1)


# ---------------------------------------------------------------------------
# single-step operations


def _single_step(state: State, spec: SystemSpec, method: str, h: float, rng=None, eta=None):
    """One step of ``method``'s trajectory kernel (_make_stepper) from ``state``;
    returns (State, eta). ``t`` advances by ``h``."""
    spec.landscape.check_point(state.w)
    check_method(spec, method)
    normal = None if rng is None else _normal(rng, state.dim)
    grad = spec.landscape.raw_gradient()
    step = _make_stepper(spec, method, h, normal, grad)
    w, v, eta, _ = step(state.w, state.v, eta, grad(state.w))
    return State(w, v, state.t + h), eta


def step_verlet(state: State, spec: SystemSpec, h: float) -> State:
    """One kick-drift-kick step; frictionless, noise-free dynamics only."""
    return _single_step(state, spec, "verlet", h)[0]


def step_damped_splitting(state: State, spec: SystemSpec, h: float) -> State:
    """One symmetric step with exact velocity damping at both ends.

    Layout: damp(h/2), kick(h/2), drift(h), kick(h/2), damp(h/2). The
    damping factor exp(-gamma h/2) is exact, so with a flat landscape the
    velocity contracts by exactly exp(-gamma h) per step; with gamma = 0
    the step is identical to velocity Verlet.
    """
    return _single_step(state, spec, "damped_splitting", h)[0]


def _white_noise_scale(spec: SystemSpec, h: float) -> float:
    """Std of the exact damped-noise velocity update over a half step."""
    if spec.gamma < _GAMMA_TINY:
        return spec.sigma * math.sqrt(h / 2.0)
    a = math.exp(-spec.gamma * h / 2.0)
    return spec.sigma * math.sqrt((1.0 - a * a) / (2.0 * spec.gamma))


def step_stochastic(state, spec, h, rng, eta=None):
    """One forced splitting step.

    For white noise (``eta`` must be None) the damping sub-steps become
    v <- a v + s xi with a = exp(-gamma h/2) and s the exact variance
    scale; returns the new State. Two standard-normal vectors are drawn
    per step, one per half-update, even when sigma = 0.

    For correlated noise the forcing is explicit state: pass the current
    forcing vector as ``eta`` and receive ``(state, eta_next)``. The
    forcing advances by its exact exponential update between the two
    kicks, so the first kick sees the old value and the second the new.
    """
    if spec.noise_kind != "ou":
        if eta is not None:
            raise InvalidArgument("eta is only used with correlated noise")
        return _single_step(state, spec, "stochastic_splitting", h, rng)[0]

    # correlated (exponentially decaying memory) forcing
    if eta is None:
        raise InvalidArgument("correlated noise requires the current forcing vector")
    eta = spec.landscape.check_point(np.reshape(eta, -1))
    return _single_step(state, spec, "stochastic_splitting", h, rng, eta)


def initial_forcing(spec: SystemSpec, rng: np.random.Generator) -> np.ndarray:
    """Stationary draw of the correlated forcing, eta ~ N(0, sigma^2) per coordinate."""
    if spec.noise_kind != "ou":
        raise InvalidArgument("initial forcing only exists for correlated noise")
    return spec.sigma * rng.standard_normal(spec.landscape.dim)


# ---------------------------------------------------------------------------
# trajectory integration
#
# _make_stepper builds the one step kernel of each method and of the discrete
# momentum map (discrete.py). A single trajectory is stepped by one loop,
# _run: integrate, its failure replay and the discrete map run through it,
# and the public single-step functions make one call of the kernel. The
# ensemble steps all members at once in a loop of its own (below).
# _run steps a 1-D state as Python floats: their *, + and - are the IEEE
# operations numpy applies to a one-element array, without numpy's per-call
# cost, and the noise source hands out floats (_normal); recorded rows are
# written through flat views. The gradient is the bare ``w @ A`` (the
# dimension was checked once up front); at dim 1 it is the scalar form
# ``w * a + 0.0``, for floats and (M, 1) members alike. A long dense single
# trajectory computes ``w @ A`` in two column blocks, one in a forked
# partner, to the same bits (_gradient).
# Every kernel, the map's included, carries its gradient: it takes the
# gradient at its ``w`` and returns the one at its new ``w``. A splitting
# step's closing kick takes it there, where the next step's opening kick
# takes it: one gradient per step, the same bits as evaluating it twice. The
# discrete map and explicit Euler take it for their force, rk4 for its first
# stage, and each computes it at the new ``w`` for the next step: one
# product per run more than they need, so that every run records its
# energy one way.
# A recorded row's potential comes from that carried gradient: on a
# quadratic L(w) = 1/2 w . (w @ A), and the step has just computed w @ A
# at that w (value_from_gradient), so each row costs no second product.
# _run keeps the gradients of the rows a block records, about _ROW_FLOATS
# floats (blocks shrink to fit), and reduces them to potentials at the
# block's end, in one vectorised pass against the stored rows; the bits are
# those of inertia_rows. The ensemble takes its samples' potentials from
# the step's batched gradient in the same way.
# Finiteness is checked once per block of at most _BLOCK steps: none of the
# step operations turns a NaN or Inf back into a finite number, so a finite
# state at the end of a block proves every step in it finite. _run stops
# after the first block that is not, and integrate replays the run in
# blocks of one step to name the first non-finite state. A finite state can
# still overflow the energy, so both runs end by checking the energies of
# their recorded rows (_finite_energies), which names the first recorded
# step whose energy is not finite. The ensemble checks finiteness every step
# so a failure names its member. Every overflow thus ends in a
# NumericalFailure that reports it, so _run, _finite_energies and the
# ensemble reduction (analysis.py) step and reduce with numpy's overflow and
# invalid-value warnings silenced.

_BLOCK = 1024  # most steps between finiteness checks
# A dense gradient is split between two processes (_gradient) from this
# dimension on, where the matrix outgrows a 2 MiB L2 cache and each product
# streams it from L3, while each half stays in its core's L2. Measured over
# 4000 steps on 2 cores with 2 MiB of L2 each: dim 384 lost 32 %, 416 to 480
# broke even, 512 won 39 %. The cutoff is that L2 size's: where L2 holds the
# dim-512 matrix, or the second core is busy and each hand-off spins, the
# split may lose; that is unmeasured.
_SPLIT_DIM = 512
# and in runs of this many steps or more: at dim 512 the fork, the teardown and
# the first import of multiprocessing cost about what 500 to 1000 split steps save
_SPLIT_STEPS = 2000


def check_method(spec: SystemSpec, method: str) -> None:
    """Raise InvalidArgument unless ``method`` can integrate ``spec``; the one such rule."""
    if method == "stochastic_splitting":
        if spec.deterministic:
            raise InvalidArgument("stochastic_splitting requires a noisy spec")
    else:
        if not spec.deterministic:
            raise InvalidArgument(
                f"{method} cannot integrate noisy dynamics; use stochastic_splitting"
            )
        if method == "verlet" and spec.gamma != 0:
            raise InvalidArgument("verlet requires gamma = 0; use damped_splitting")


def _record_indices(n_steps: int, stride: int) -> np.ndarray:
    idx = np.arange(0, n_steps + 1, stride)
    return idx if idx[-1] == n_steps else np.append(idx, n_steps)


def _make_stepper(spec: SystemSpec, method: str, h: float, normal, grad):
    """Return step(w, v, eta, gw) -> (w, v, eta, gw), the one kernel of ``method`` for raw states.

    ``method`` is one of METHODS, or "momentum" for the discrete map
    (discrete.py), whose step size eta is ``h``. ``gw`` is the gradient at
    ``w`` on entry and at the new ``w`` on return, so a chain of steps
    starts from ``grad(w)`` and evaluates no gradient twice. ``normal()``
    takes no argument and returns the next standard-normal draws for the
    stochastic method, shaped like ``v``: the caller binds the shape when it
    builds the source (_normal). The arithmetic is element-wise apart from
    the gradient, so the same step advances a 1-D state as Python floats,
    one state of shape (dim,) or a batch of members of shape (M, dim).
    ``grad`` is the landscape's gradient on such states: its
    ``raw_gradient()``, or for a single trajectory what ``_gradient`` gives.
    """
    g = spec.gamma
    half_h = 0.5 * h

    if method == "momentum":  # velocity first: v' = v - eta grad L(w), w' = w + eta v'
        def step(w, v, eta, gw):
            v = v - h * gw
            w = w + h * v
            return w, v, None, grad(w)
    elif method == "explicit_euler":
        def step(w, v, eta, gw):
            w, v = w + h * v, v + h * (-g * v - gw)
            return w, v, None, grad(w)
    elif method == "rk4":
        def accel(w, v):
            return -g * v - grad(w)

        def step(w, v, eta, gw):
            k1w = v
            k1v = -g * v - gw
            k2w = v + half_h * k1v
            k2v = accel(w + half_h * k1w, v + half_h * k1v)
            k3w = v + half_h * k2v
            k3v = accel(w + half_h * k2w, v + half_h * k2v)
            k4w = v + h * k3v
            k4v = accel(w + h * k3w, v + h * k3v)
            w = w + (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
            v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            return w, v, None, grad(w)
    elif method in ("verlet", "damped_splitting"):
        d = math.exp(-g * h / 2.0)
        if d == 1.0:  # frictionless: 1.0 * v is v bit for bit, so skip it
            def step(w, v, eta, gw):
                v = v - half_h * gw
                w = w + h * v
                gw = grad(w)
                v = v - half_h * gw
                return w, v, None, gw
        else:
            def step(w, v, eta, gw):
                v = d * v
                v = v - half_h * gw
                w = w + h * v
                gw = grad(w)
                v = v - half_h * gw
                v = d * v
                return w, v, None, gw
    elif spec.noise_kind == "white":
        d = math.exp(-g * h / 2.0)
        s = _white_noise_scale(spec, h)

        def step(w, v, eta, gw):
            v = d * v + s * normal()
            v = v - half_h * gw
            w = w + h * v
            gw = grad(w)
            v = v - half_h * gw
            v = d * v + s * normal()
            return w, v, None, gw
    else:  # correlated forcing
        d = math.exp(-g * h / 2.0)
        c = math.exp(-h / spec.tau)
        q = spec.sigma * math.sqrt(1.0 - c * c)

        def step(w, v, eta, gw):
            v = d * v
            v = v + half_h * (eta - gw)
            w = w + h * v
            gw = grad(w)
            eta = c * eta + q * normal()
            v = v + half_h * (eta - gw)
            v = d * v
            return w, v, eta, gw

    return step


@contextmanager
def _gradient(landscape, n_steps: int):
    """A context giving the gradient a single trajectory of ``n_steps`` steps runs with.

    That is ``landscape.raw_gradient()``, unless ``landscape`` has dim
    _SPLIT_DIM or more, the run takes _SPLIT_STEPS steps or more, the
    matrix has a ``column_cut`` and ``forking.partner`` forks.
    Then each call asks the partner for ``w @ A[:, cut:]`` while this
    process computes ``w @ A[:, :cut]``, each from its own contiguous copy,
    and returns the joined blocks as a new array, with the bits of ``w @ A``;
    once the partner is gone, the whole product. Call it inside the ``with``.
    """
    raw, dim = landscape.raw_gradient(), landscape.dim
    cut = dim >= _SPLIT_DIM and n_steps >= _SPLIT_STEPS and landscape.column_cut

    def start(shared):  # in the partner: w in shared[:dim], its block into shared[dim:]
        right = np.ascontiguousarray(landscape.matrix[:, cut:])
        return lambda: np.matmul(shared[:dim], right, out=shared[dim:])

    with partner(2 * dim - cut, start) if cut else nullcontext() as hand:
        if hand is None:
            yield raw
            return
        shared, ask, answer = hand
        left = np.ascontiguousarray(landscape.matrix[:, :cut])  # None once the partner is gone

        def product(w):
            nonlocal left
            if left is not None:
                shared[:dim] = w
                ask()
                out = np.empty(dim)
                np.matmul(w, left, out=out[:cut])
                if answer():
                    out[cut:] = shared[dim:]
                    return out
                left = None
            return raw(w)

        yield product


@np.errstate(over="ignore", invalid="ignore")
def _run(step, grad, w: np.ndarray, v: np.ndarray, eta, record: np.ndarray, values,
         block: int = _BLOCK):
    """Step ``(w, v, eta)`` to step ``record[-1]``; returns ``(ws, vs, etas, potentials, bad)``.

    Row i of the (len(record), dim) arrays holds step ``record[i]``; ``etas``
    is None when ``eta`` is. ``grad`` gives the gradient ``step`` expects at
    the start, and ``potentials[i]`` is row i's potential, from ``values``
    (a landscape's ``value_from_gradient``) and the gradient its step
    returned (a new array or float each step). ``bad`` is None when every
    block ends finite; else the run stopped at step ``bad``, the end of the
    first block of at most ``block`` steps whose final state is not finite,
    with later rows unwritten: with ``block=1``, ``bad`` is the first
    non-finite step.
    """
    n_rec, dim = record.shape[0], w.shape[0]
    ws, vs = np.empty((n_rec, dim)), np.empty((n_rec, dim))
    etas = None if eta is None else np.empty((n_rec, dim))
    # record is step 0, every stride-th step and the last step (_record_indices);
    # stepping the target by the stride holds no list of the steps
    n_steps, stride = int(record[-1]), int(record[1])
    # a block keeps the gradients of the rows it records, about _ROW_FLOATS floats
    potentials, gws = np.empty(n_rec), []
    keep, block = gws.append, min(block, max(1, _ROW_FLOATS // dim) * stride)
    w_rows, v_rows, eta_rows = ws, vs, etas
    if dim == 1:  # step floats, store through flat views
        w, v = float(w[0]), float(v[0])
        w_rows, v_rows = ws[:, 0], vs[:, 0]
        if eta is not None:
            eta, eta_rows = float(eta[0]), etas[:, 0]
    w_rows[0], v_rows[0] = w, v
    if eta_rows is not None:
        eta_rows[0] = eta
    gw = grad(w)
    keep(gw)

    target, pos = stride, 1
    for start in range(1, n_steps + 1, block):
        stop = min(start + block, n_steps + 1)
        for k in range(start, stop):
            w, v, eta, gw = step(w, v, eta, gw)
            if k == target:
                w_rows[pos], v_rows[pos] = w, v
                if eta_rows is not None:
                    eta_rows[pos] = eta
                keep(gw)
                target, pos = target + stride, pos + 1
        if gws:
            first = pos - len(gws)
            potentials[first:pos] = values(ws[first:pos], np.reshape(gws, (-1, dim)))
            gws.clear()
        if not (np.isfinite(w).all() and np.isfinite(v).all()):
            return ws, vs, etas, potentials, stop - 1
    if pos < n_rec:  # the last step, off the stride
        w_rows[pos], v_rows[pos] = w, v
        if eta_rows is not None:
            eta_rows[pos] = eta
        potentials[pos:] = values(ws[pos:], np.reshape(gw, (1, dim)))
    return ws, vs, etas, potentials, None


@np.errstate(over="ignore", invalid="ignore")
def _finite_energies(vs: np.ndarray, potentials: np.ndarray, record: np.ndarray) -> np.ndarray:
    """The energies of rows stored at steps ``record``, from their velocities and the
    ``potentials`` that _run recorded; raises at the first not finite."""
    energies = _kinetic_plus(vs, potentials)
    bad = np.flatnonzero(~np.isfinite(energies))
    if bad.size:
        k = int(record[bad[0]])
        raise NumericalFailure(f"energy not finite at step {k}", step_index=k)
    return energies


def _raise_nonfinite(w, v, k: int):
    """Raise naming the first member of a batched state that is not finite at step ``k``."""
    if np.all(np.isfinite(w)) and np.all(np.isfinite(v)):
        return
    bad = ~(np.all(np.isfinite(w), axis=1) & np.all(np.isfinite(v), axis=1))
    member = int(np.flatnonzero(bad)[0])
    raise NumericalFailure(
        f"non-finite state in member {member} at step {k}", step_index=k, member=member
    )


def _normal(rng: np.random.Generator, dim: int):
    """Zero-argument source of standard-normal draws shaped like a ``dim`` state."""
    return rng.standard_normal if dim == 1 else lambda: rng.standard_normal(dim)


def _start(spec: SystemSpec, initial: State, config: IntegratorConfig, grad):
    """``_run``'s arguments up to ``record``; a replay gets the same start, noise included."""
    normal = eta = None
    if config.method == "stochastic_splitting":
        rng = member_rng(config.seed, 0)
        normal = _normal(rng, initial.dim)
        if spec.noise_kind == "ou":
            eta = initial_forcing(spec, rng)
    step = _make_stepper(spec, config.method, config.h, normal, grad)
    return step, grad, initial.w, initial.v, eta


def integrate(spec: SystemSpec, initial: State, config: IntegratorConfig) -> Trajectory:
    """Run ``initial`` forward to ``config.t_end`` and record samples.

    Deterministic methods are bit-reproducible unconditionally; the
    stochastic method is bit-reproducible for a fixed seed. Raises
    NumericalFailure naming the first step whose state is not finite, or
    else the first recorded step whose energy is not finite.
    """
    spec.landscape.check_point(initial.w)
    check_method(spec, config.method)

    record = _record_indices(config.n_steps, config.record_every)
    values = spec.landscape.value_from_gradient
    with _gradient(spec.landscape, config.n_steps) as grad:
        ws, vs, etas, potentials, bad = _run(*_start(spec, initial, config, grad), record, values)
        if bad is not None:
            bad = _run(*_start(spec, initial, config, grad), record, values, block=1)[4]
            raise NumericalFailure(f"non-finite state at step {bad}", step_index=bad)
    energies = _finite_energies(vs, potentials, record)
    return Trajectory(record * config.h, ws, vs, energies, spec, config, noise=etas)


# ---------------------------------------------------------------------------
# ensembles
#
# An ensemble advances all members at once through the stepper above, on
# (n_members, dim) arrays. Member i draws from member_rng(seed, i) in the
# order a single run consumes its stream, so each member's noise does not
# depend on the ensemble size. The draws are served a chunk of steps at a
# time from two slots of one buffer, and recorded samples are handed out one
# at a time, so memory does not grow with the horizon.
# A run that needs more than one refill forks a producer where it can
# (forking.partner): it fills one slot while this process steps and reduces
# from the other, and each ask hands it the next refill.
# Each fill writes every member's draws into its own column, so which
# process draws them moves no bit. Threads gain nothing here: each member's
# call of a few hundred normals hands off the GIL, and two filling threads
# ran slower than one.

_NOISE_FLOATS = 1 << 21  # floats in the two ensemble noise slots together (16 MB)
_TILE_FLOATS = 1 << 13  # floats in one member-major tile of draws (64 KB)


def _fill(slot: np.ndarray, n: int, rngs) -> None:
    """Draw every member's next ``n`` steps into ``slot[:n]``; column i from ``rngs[i]``.

    ``slot`` is step-major, (rows, per_step, n_members, dim). Each member
    draws its ``n`` steps in one call into a row of a member-major tile of
    _TILE_FLOATS floats (78 members at 10^4 members, where a refill holds
    52 steps of white noise), which one transposed copy writes into the slot.
    """
    _, per_step, n_members, dim = slot.shape
    per_member = n * per_step * dim
    tile = np.empty((max(1, min(n_members, _TILE_FLOATS // per_member)), per_member))
    for first in range(0, n_members, tile.shape[0]):
        members = rngs[first : first + tile.shape[0]]
        drawn = tile[: len(members)]
        for row, rng in zip(drawn, members):
            rng.standard_normal(out=row)
        columns = drawn.reshape(len(members), n, per_step, dim).transpose(1, 2, 0, 3)
        slot[:n, :, first : first + len(members)] = columns


def _member_draws(rngs, n_steps: int, per_step: int, dim: int):
    """Yield ``per_step`` (n_members, dim) draws per step; row i comes from ``rngs[i]``.

    Each refill draws every member's next whole steps into one of two slots
    (_fill). Chunked PCG64 draws equal one long draw bit for bit, so the
    values are those of step-by-step draws. Use a yielded block before
    asking for the next: its slot may then be refilled.

    A run that needs more than one refill forks a producer where it can
    (``forking.partner``), which fills the slots in shared memory ahead of
    the consumer, refill r into slot r % 2 at its r-th ask, and takes no
    other ``rngs`` draws; the caller must not use ``rngs`` once iteration
    starts. Elsewhere one slot is filled in place. Closing the generator,
    or the producer ending early (which raises RuntimeError), stops and
    reaps it.
    """
    n_members = len(rngs)
    rows = max(1, min(n_steps, _NOISE_FLOATS // (2 * per_step * n_members * dim)))
    counts = [min(rows, n_steps - first) for first in range(0, n_steps, rows)]
    shape = (rows, per_step, n_members, dim)

    def start(shared):  # in the producer
        slots, refills = shared.reshape(2, *shape), enumerate(counts)

        def fill():
            r, n = next(refills)
            _fill(slots[r % 2], n, rngs)
        return fill

    with partner(2 * math.prod(shape), start) if len(counts) > 1 else nullcontext() as producer:
        if producer is None:
            slot = np.empty(shape)
            for n in counts:
                _fill(slot, n, rngs)
                yield from slot[:n].reshape(-1, n_members, dim)
            return
        shared, ask, answer = producer
        slots = shared.reshape(2, *shape)
        ask(), ask()  # refills 0 and 1, one per slot
        for r, n in enumerate(counts):
            if not answer():
                raise RuntimeError(f"the ensemble noise producer ended before refill {r}")
            yield from slots[r % 2, :n].reshape(-1, n_members, dim)
            if r + 2 < len(counts):
                ask()  # refill r + 2 may overwrite refill r


def _sample(w, v, eta, gw, values):
    """Per-member (inertia, speed_squared, noise_dot_v) of one recorded state."""
    speed_sq = np.sum(v * v, axis=1)
    noise_dot_v = None if eta is None else np.sum(eta * v, axis=1)
    return 0.5 * speed_sq + values(w, gw), speed_sq, noise_dot_v


def _ensemble_loop(spec, initial, config, n_members, record):
    from .streams import member_rngs

    rngs = member_rngs(config.seed, 0, n_members)
    eta = None
    if spec.noise_kind == "ou":
        eta = np.array([initial_forcing(spec, rng) for rng in rngs])
    draws = _member_draws(rngs, config.n_steps, 1 if eta is not None else 2, initial.dim)
    grad = spec.landscape.raw_gradient()
    step = _make_stepper(spec, config.method, config.h, draws.__next__, grad)
    values = spec.landscape.value_from_gradient
    w = np.tile(np.asarray(initial.w, dtype=float), (n_members, 1))
    v = np.tile(np.asarray(initial.v, dtype=float), (n_members, 1))
    gw = grad(w)

    yield _sample(w, v, eta, gw, values)  # record[0] is step 0
    stride = int(record[1])  # record: step 0, every stride-th step and the last
    try:
        for k in range(1, config.n_steps + 1):
            w, v, eta, gw = step(w, v, eta, gw)
            _raise_nonfinite(w, v, k)
            if k % stride == 0:
                yield _sample(w, v, eta, gw, values)
        if config.n_steps % stride:  # the last step, off the stride
            yield _sample(w, v, eta, gw, values)
    finally:
        draws.close()  # a failure's traceback must not keep the producer alive


def ensemble_samples(
    spec: SystemSpec,
    initial: State,
    config: IntegratorConfig,
    n_members: int,
):
    """Sample times and an iterator over the recorded samples of an ensemble run.

    Returns ``(times, samples)``. ``samples`` runs the ensemble as it is
    consumed and yields, per recorded time, ``(inertia, speed_squared,
    noise_dot_v)``: arrays of shape (n_members,), with ``noise_dot_v`` None
    for white noise. It holds O(n_members * dim) state whatever the horizon,
    and raises ``NumericalFailure`` naming the step and the first member
    whose state left the finite range. Arguments are checked at the call.
    A run whose noise takes more than one refill draws it in a forked
    producer process (_member_draws); finishing, failing, closing or
    dropping ``samples`` ends and reaps that process.

    All members start from ``initial`` and member i draws from
    ``member_rng(config.seed, i)``, so member 0 follows ``integrate`` with
    the same config and noise. On a 1-D landscape its samples equal that
    run's ``inertia`` and ``speed_squared`` bit for bit; at dim >= 2 they
    agree to a few ulps only, because the batched ``W @ A`` and per-member
    sums take different BLAS kernels than a single trajectory's ``w @ A``
    and ``v @ v``.
    """
    spec.landscape.check_point(initial.w)
    check_method(spec, config.method)
    if config.method != "stochastic_splitting":
        raise InvalidArgument("ensembles are for the stochastic method")
    if n_members < 1:
        raise InvalidArgument(f"need at least one member, got {n_members}")
    record = _record_indices(config.n_steps, config.record_every)
    return record * config.h, _ensemble_loop(spec, initial, config, n_members, record)

