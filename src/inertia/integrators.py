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

The module also runs the discrete momentum map (``momentum_step``,
``discrete_trajectory``, ``drift_profile``)

    v' = v - eta * grad L(w)
    w' = w + eta * v'        (note: the *new* velocity)

with a single step-size parameter eta. Updating the velocity first makes
this a symplectic-Euler-type map: on 1D quadratics the one-step transition
matrix [[1 - eta^2, eta], [-eta, 1]] has determinant exactly 1, so phase
space area is preserved and the energy 1/2 ||v||^2 + L(w) stays bounded
(not drifting) for eta below the stability threshold eta = 2 of the unit
quadratic. Its step is the kernel "momentum" of the integrators' stepper,
which is not one of METHODS: one step and the trajectory loop run the same
arithmetic as every integrator, and each recorded energy comes from the
gradient the step carries.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from .dynamics import _ROW_FLOATS, State, SystemSpec, _kinetic_plus
from .errors import InvalidArgument, NumericalFailure
from .forking import partner
from .landscapes import QuadraticLandscape

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
    "ensemble_groups",
    "momentum_step",
    "discrete_trajectory",
    "drift_profile",
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
# momentum map. A single trajectory is stepped by one loop, _run: integrate,
# its failure replay and discrete_trajectory run through it,
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
    (``discrete_trajectory``), whose step size eta is ``h``. ``gw`` is the
    gradient at ``w`` on entry and at the new ``w`` on return, so a chain of
    steps starts from ``grad(w)`` and evaluates no gradient twice. ``normal()``
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
        # at gamma = 0, d is 1.0 and 1.0 * v is v bit for bit: this is velocity Verlet
        d = math.exp(-g * h / 2.0)

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


def _aligned_copy(block: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of ``block`` whose data starts on a 64-byte cache line.

    Where a heap copy happened to start 32 bytes off a line, the split dim-512
    product ran 10-30 % slower (``coupled``), so the speed of the same code
    moved with the sizes of unrelated allocations before it.
    """
    buffer = np.empty(block.size + 8)
    first = -buffer.ctypes.data % 64 // 8
    copy = buffer[first : first + block.size].reshape(block.shape)
    copy[...] = block
    return copy


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
        right = _aligned_copy(landscape.matrix[:, cut:])
        return lambda: np.matmul(shared[:dim], right, out=shared[dim:])

    with partner(2 * dim - cut, start) if cut else nullcontext() as hand:
        if hand is None:
            yield raw
            return
        shared, ask, answer = hand
        left = _aligned_copy(landscape.matrix[:, :cut])  # None once the partner is gone

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
# the discrete momentum map


def _check_eta(eta_step: float) -> None:
    if not 0 < eta_step < np.inf:
        raise InvalidArgument(f"eta_step must be positive and finite, got {eta_step}")


def momentum_step(state: State, eta_step: float, landscape: QuadraticLandscape) -> State:
    """One velocity-first update; eta_step plays the role of a time step and advances ``t``.

    It is one step of the kernel that ``discrete_trajectory`` loops over.
    """
    _check_eta(eta_step)
    return _single_step(state, SystemSpec(landscape=landscape), "momentum", eta_step)[0]


def discrete_trajectory(
    w0: np.ndarray,
    v0: np.ndarray,
    eta_step: float,
    n_steps: int,
    landscape: QuadraticLandscape,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every state of the map for steps 0..n_steps, and its energy series.

    Returns ``(ws, vs, energy)`` with ``ws``/``vs`` of shape
    (n_steps + 1, dim); row k is ``momentum_step`` applied k times and
    ``energy[k]`` its ``inertia``, bit for bit. Raises NumericalFailure at
    the first step whose energy is not finite.
    """
    _check_eta(eta_step)
    if n_steps < 1:
        raise InvalidArgument(f"n_steps must be >= 1, got {n_steps}")
    check_step_count(n_steps)
    start = State(w0, v0)
    landscape.check_point(start.w)
    # _run stops after the first block whose final state is not finite, and
    # a non-finite state has a non-finite energy, so the first bad energy is
    # among the rows it stored.
    record = np.arange(n_steps + 1)
    with _gradient(landscape, n_steps) as grad:
        step = _make_stepper(SystemSpec(landscape=landscape), "momentum", eta_step, None, grad)
        ws, vs, _, potentials, bad = _run(step, grad, start.w, start.v, None, record,
                                          landscape.value_from_gradient)
    rows = slice(None if bad is None else bad + 1)
    energy = _finite_energies(vs[rows], potentials[rows], record)
    return ws, vs, energy


def drift_profile(
    w0: np.ndarray,
    v0: np.ndarray,
    eta_step: float,
    n_steps: int,
    landscape: QuadraticLandscape,
) -> tuple[np.ndarray, float]:
    """Energy series I_t for t = 0..n_steps plus max_t |I_t - I_0|.

    For step-size scaling studies, keep the physical horizon
    n_steps * eta_step fixed while varying eta_step.
    """
    _, _, series = discrete_trajectory(w0, v0, eta_step, n_steps, landscape)
    return series, float(np.max(np.abs(series - series[0])))


# ---------------------------------------------------------------------------
# ensembles
#
# An ensemble advances its members at once through the stepper above, on
# (members, dim) arrays. Member i draws from member_rng(seed, i) in the
# order a single run consumes its stream, so its noise does not depend on
# the ensemble size or on which members are stepped together. A batch of
# members draws a chunk of steps at a time into one slot, in place
# (_member_draws), so memory does not grow with the horizon.
# ensemble_groups is the one function that runs members. It records every
# step, since a sample's energy rate is the centered difference of its
# neighbours, so it needs at least 2 steps. It turns each sample into
# per-member rows (_with_rates), writes them into a group of samples and
# reduces each whole group over the members (_reduce_group); in one
# process it holds one group and hands it out as soon as it is reduced.
# A run that needs more than one noise refill is split by members where it
# can (forking.partner): this process runs members [0, cut) and a forked
# partner [cut, M). Each builds the generators of its own members, draws,
# steps and samples them, and writes their rows of each group into a
# shared ring of three groups; then the group is reduced whole by one
# process, this one the even groups and the partner the odd ones. The
# partner writes a group ahead, so this process hands each group out one
# group late. Each group is thus reduced over all M members in member
# order, and each member's stream, state and rows are those of a
# one-process run: the step is per member but for the batched W @ A, whose
# row bits the cut keeps (QuadraticLandscape.row_cut). Where the cut does
# not keep them, or no partner forks, this process runs every member.
# Threads gain nothing here: each member's call of a few hundred normals
# hands off the GIL, and two filling threads ran slower than one.

_NOISE_FLOATS = 1 << 21  # floats in two noise slots of 8 MB: one per process of a split run
_TILE_FLOATS = 1 << 13  # floats in one member-major tile of draws (64 KB)
_GROUP_FLOATS = 1 << 15  # floats of per-member rows in one group of samples


def _refill_steps(spec: SystemSpec, n_members: int) -> int:
    """Steps of noise that one slot of ``n_members`` holds: two draws a step
    per coordinate for white noise, one for correlated noise."""
    per_step = 1 if spec.noise_kind == "ou" else 2
    return max(1, _NOISE_FLOATS // (2 * per_step * n_members * spec.landscape.dim))


def _fill(slot: np.ndarray, n: int, rngs) -> None:
    """Draw every member's next ``n`` steps into ``slot[:n]``; column i from ``rngs[i]``.

    ``slot`` is step-major, (rows, per_step, n_members, dim). Each member
    draws its ``n`` steps in one call into a row of a member-major tile of
    _TILE_FLOATS floats (39 members at 5000 members, where a refill holds
    104 steps of white noise), which one transposed copy writes into the slot.
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


def _member_draws(rngs, n_steps: int, per_step: int, dim: int, rows: int):
    """Yield ``per_step`` (n_members, dim) draws per step; row i comes from ``rngs[i]``.

    Each refill draws every member's next ``rows`` steps (the last refill
    fewer) into one slot, in place (_fill). Chunked PCG64 draws equal one
    long draw bit for bit, so the values are those of step-by-step draws.
    Use a yielded block before asking for the next: its slot may then be
    refilled.
    """
    n_members = len(rngs)
    slot = np.empty((rows, per_step, n_members, dim))
    for first in range(0, n_steps, rows):
        n = min(rows, n_steps - first)
        _fill(slot, n, rngs)
        yield from slot[:n].reshape(-1, n_members, dim)


def _member_failure(k: int, member: int) -> NumericalFailure:
    """The failure of an ensemble whose ``member`` is first not finite at step ``k``."""
    return NumericalFailure(f"non-finite state in member {member} at step {k}",
                            step_index=k, member=member)


def _raise_nonfinite(w, v, k: int, first: int):
    """Raise naming the first member of a batched state that is not finite at step
    ``k``; the batch holds members ``first`` on."""
    if np.all(np.isfinite(w)) and np.all(np.isfinite(v)):
        return
    bad = ~(np.all(np.isfinite(w), axis=1) & np.all(np.isfinite(v), axis=1))
    raise _member_failure(k, first + int(np.flatnonzero(bad)[0]))


def _sample(w, v, eta, gw, values):
    """Per-member rows of one recorded state: inertia and speed_squared, then
    noise_dot_v for correlated noise."""
    speed_sq = np.sum(v * v, axis=1)
    inertia = 0.5 * speed_sq + values(w, gw)
    return (inertia, speed_sq) if eta is None else (inertia, speed_sq, np.sum(eta * v, axis=1))


def _member_samples(spec, initial, config, rngs, first: int, refill: int):
    """Yield the rows (_sample) of members ``first`` on at every step, drawing
    from ``rngs`` ``refill`` steps at a time; raise at the first step whose
    state is not finite."""
    eta = None
    if spec.noise_kind == "ou":
        eta = np.array([initial_forcing(spec, rng) for rng in rngs])
    draws = _member_draws(rngs, config.n_steps, 1 if eta is not None else 2, initial.dim, refill)
    grad = spec.landscape.raw_gradient()
    step = _make_stepper(spec, config.method, config.h, draws.__next__, grad)
    values = spec.landscape.value_from_gradient
    w = np.tile(np.asarray(initial.w, dtype=float), (len(rngs), 1))
    v = np.tile(np.asarray(initial.v, dtype=float), (len(rngs), 1))
    gw = grad(w)

    yield _sample(w, v, eta, gw, values)
    for k in range(1, config.n_steps + 1):
        w, v, eta, gw = step(w, v, eta, gw)
        _raise_nonfinite(w, v, k, first)
        yield _sample(w, v, eta, gw, values)


def _with_rates(samples, n_rec: int, dt: float):
    """Each of ``n_rec`` recorded samples with its energy rate, in order.

    Yields ``(inertia, inertia_rate, speed_squared[, noise_dot_v])``. The
    rate of sample k is the centered difference (E[k+1] - E[k-1]) / (2 dt),
    so it is yielded once sample k + 1 arrives; the first and last samples
    use one-sided O(h^2) stencils. Only the last three samples are held.
    """
    two_dt = 2.0 * dt
    ring = []
    for k, sample in enumerate(samples):
        ring = ring[-2:] + [sample]
        if k < 2:
            continue
        (e0, *rest0), (e1, *rest1), (e2, *rest2) = ring
        if k == 2:
            yield e0, (-3.0 * e0 + 4.0 * e1 - e2) / two_dt, *rest0
        yield e1, (e2 - e0) / two_dt, *rest1
        if k == n_rec - 1:
            yield e2, (3.0 * e2 - 4.0 * e1 + e0) / two_dt, *rest2


def _reduce_group(rows: np.ndarray, out: np.ndarray) -> None:
    """Reduce a group of finished samples over its members, into ``out``.

    ``rows`` is (n_rows, filled, n_members): per sample, every member's
    energy, energy rate, squared speed and, for correlated noise, <eta, v>.
    ``out[:n_rows]`` gets their member means and ``out[n_rows:]`` the
    standard errors of the first three. Each sum is a member-order fold,
    ``np.add.accumulate`` along the member axis, so it adds member after
    member exactly as the column sum of a full (n_members, n_samples) array
    does: the series equal that reduction bit for bit and do not depend on
    the group size. (A contiguous ``np.add.reduce`` sums pairwise and would
    move the last bits.)
    """
    n_rows, _, n_members = rows.shape
    fold = np.empty_like(rows)
    mean = np.add.accumulate(rows, axis=-1, out=fold)[..., -1] / n_members
    out[:n_rows] = mean
    spread = np.subtract(rows[:3], mean[:3, :, None], out=fold[:3])
    spread *= spread
    # one member's spread is 0: divide it by 1, not 0, and its stderr is 0 below
    variance = np.add.accumulate(spread, axis=-1, out=spread)[..., -1] / max(n_members - 1, 1)
    stderr = np.sqrt(variance) / math.sqrt(n_members)
    # Rows where every member agrees bitwise have zero sample scatter by
    # definition; the two-pass variance can still leave ~1 ulp of the
    # mean behind, so force those to exact zero.
    stderr[rows[:3].max(axis=-1) == rows[:3].min(axis=-1)] = 0.0
    out[n_rows:] = stderr


def _groups(spec, initial, config, n_members):
    """The groups that ``ensemble_groups`` yields; its docstring says what they are."""
    from .streams import member_rngs  # loaded before the fork, so the partner need not

    n_rec = config.n_steps + 1
    n_rows = 4 if spec.noise_kind == "ou" else 3
    size = max(1, min(n_rec, _GROUP_FLOATS // (n_rows * n_members)))
    n_groups = -(-n_rec // size)
    block = n_rows * size * n_members
    slot = block + (n_rows + 3) * size + 2  # a group's rows and out, and a failure in it
    several = _refill_steps(spec, n_members) < config.n_steps
    cut = spec.landscape.row_cut(n_members) if several else None

    def layout(buffer):
        """Per ring slot of ``buffer``: the rows and the out of a group, and
        the partner's failure in that group."""
        return [(r[:block].reshape(n_rows, size, n_members), r[block:-2].reshape(-1, size), r[-2:])
                for r in buffer.reshape(-1, slot)]

    def group(ring, g):
        """The rows and the out of group g."""
        filled = min(size, n_rec - g * size)
        rows, out, _ = ring[g % len(ring)]
        return rows[:, :filled], out[:, :filled]

    def half(ring, first, stop):
        """fill(g): write the rows of members [first, stop) of group g into
        the ring; returns (step, member) of the first non-finite state among
        those members, or None."""
        # a slot holds the whole run where one refill covers every member,
        # else as many steps as fit: the same at any horizon
        refill = _refill_steps(spec, stop - first) if several else config.n_steps
        samples = _member_samples(spec, initial, config, member_rngs(config.seed, first, stop),
                                  first, refill)
        produced = _with_rates(samples, n_rec, config.h)

        def fill(g):
            mine = group(ring, g)[0][:, :, first:stop]
            try:
                for r in range(mine.shape[1]):
                    for row, values in zip(mine[:, r], next(produced)):
                        row[:] = values
            except NumericalFailure as failure:
                return failure.step_index, failure.member
            return None
        return fill

    def start(shared):  # in the partner: its rows of group g, after reducing group g - 1 if odd
        ring = layout(shared)
        for _, _, failed in ring:
            failed[:] = -1
        fill, jobs = half(ring, cut, n_members), iter(range(n_groups + 1))

        def job():
            g = next(jobs)
            if ring[(g - 1) % 3][2][0] >= 0:  # its half failed in group g - 1
                return
            if g % 2 == 0 and g:
                _reduce_group(*group(ring, g - 1))
            if g < n_groups:
                ring[g % 3][2][:] = fill(g) or -1
        return job

    # A split run's ring holds three groups: the one the caller reads, the one
    # this process writes and the one the partner writes ahead. It hands each
    # group out one pass late, once the partner is done with it (lag).
    with partner(3 * slot, start) if cut else nullcontext() as hand:
        if hand is None:
            shared, ask, answer, cut, lag = np.empty(slot), lambda: None, lambda: True, n_members, 0
        else:
            (shared, ask, answer), lag = hand, 1
        ring = layout(shared)
        fill = half(ring, 0, cut)
        ask()  # the partner's rows of group 0
        for g in range(n_groups + lag):
            failed = None
            if g < n_groups:
                failed = fill(g)
                if failed is None:
                    ask()  # the partner reduces group g if odd, then writes its rows of g + 1
            if not answer():
                raise RuntimeError(f"the ensemble partner ended before group {g}")
            theirs = ring[g % len(ring)][2]  # the partner may be writing group g + 1's slot by now
            if lag and g < n_groups and theirs[0] >= 0:  # the lower member wins a tie
                failed = min(failed or (math.inf, 0), (int(theirs[0]), int(theirs[1])))
            if failed is not None:
                raise _member_failure(*failed)
            if g >= lag:  # group g - lag is whole; this process reduces it unless the partner did
                done = group(ring, g - lag)
                if not lag or g % 2:
                    _reduce_group(*done)
                yield (g - lag) * size, *done


def ensemble_groups(spec: SystemSpec, initial: State, config: IntegratorConfig, n_members: int):
    """Sample times and an iterator over an ensemble's samples, reduced a group at a time.

    The one function that runs an ensemble's members. It records every
    step, so it needs ``record_every`` = 1 and a run of at least 2 steps.
    Returns ``(times, groups)``. ``groups`` runs the ensemble as it is
    consumed and yields ``(first, rows, out)`` per group of samples, in
    order. ``rows`` is an (n_rows, filled, n_members) array whose
    ``rows[:, r]`` holds every member's rows of step ``first + r``: its
    energy, the energy's rate (the centered difference
    (E[k+1] - E[k-1]) / (2h), one-sided O(h^2) at both ends), its squared
    speed and, for correlated noise, <eta, v>. ``out`` is (n_rows + 3,
    filled): the member means of those rows, then the standard errors of the
    first three, each a member-order fold (_reduce_group). Both are valid
    until the next group is asked for. A group holds about _GROUP_FLOATS
    floats of rows, one sample at 10^4 members.

    All members start from ``initial`` and member i draws from
    ``member_rng(config.seed, i)``, so member 0 follows ``integrate`` with
    the same config and noise. On a 1-D landscape its energy and squared
    speed equal that run's ``inertia`` and ``speed_squared`` bit for bit; at
    dim >= 2 they agree to a few ulps only, because the batched ``W @ A``
    and per-member sums take different BLAS kernels than a single
    trajectory's ``w @ A`` and ``v @ v``.

    A run that needs more than one noise refill runs its second half of the
    members in a forked partner where it can, which writes their rows and
    reduces every other group; the yielded values are those of one process
    bit for bit. Finishing, failing, closing or dropping ``groups`` ends and
    reaps the partner; a partner that ends early fails the run with a
    RuntimeError.

    A run raises ``NumericalFailure`` at the first step at which a member's
    state is not finite, naming the lowest such member; the groups it
    yielded before hold only samples recorded before that step. Arguments
    are checked at the call.
    """
    spec.landscape.check_point(initial.w)
    check_method(spec, config.method)
    if config.method != "stochastic_splitting":
        raise InvalidArgument("ensembles are for the stochastic method")
    if n_members < 1:
        raise InvalidArgument(f"need at least one member, got {n_members}")
    if config.record_every != 1:
        raise InvalidArgument(f"ensembles record every step (record_every=1), "
                              f"got record_every={config.record_every}")
    if config.n_steps < 2:
        raise InvalidArgument(f"an ensemble needs at least 2 steps, got {config.n_steps}")
    return np.arange(config.n_steps + 1) * config.h, _groups(spec, initial, config, n_members)
