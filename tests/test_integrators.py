import itertools
import math
import multiprocessing.context
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from inertia import (
    IntegratorConfig,
    InvalidArgument,
    NumericalFailure,
    QuadraticLandscape,
    State,
    SystemSpec,
    closed_form_underdamped,
    discrete_trajectory,
    inertia,
    inertia_rows,
    integrate,
    landscape_from_name,
    quadratic_general,
    quadratic_isotropic,
    step_damped_splitting,
    step_stochastic,
    step_verlet,
)
from inertia import forking, integrators, streams
from inertia.analysis import ensemble_expected_decay
from inertia.integrators import ensemble_groups, initial_forcing, member_rng

from ensemble_arrays import (assert_no_child_process, ensemble_arrays, group_arrays, open_fds,
                             refuse, spy_on_fork)

ISO1 = quadratic_isotropic(1)
UNIT_START = State([1.0], [0.0])


def coupled5():
    """A dense 5x5 PSD matrix: no diagonal shortcut gives its products exactly."""
    m = np.random.default_rng(5).standard_normal((5, 5))
    b = m.T @ m / 5 + 0.1 * np.eye(5)
    return quadratic_general(0.5 * (b + b.T))


MULTI_D = {
    "iso2d": landscape_from_name("iso2d"),
    "diag": landscape_from_name("diag:1,4,9"),
    "coupled5": coupled5(),
}


def run(method, gamma=0.0, h=0.01, t_end=10.0, sigma=0.0, noise="none",
        tau=None, seed=0, w0=(1.0,), v0=(0.0,), landscape=ISO1, record_every=1):
    spec = SystemSpec(landscape=landscape, gamma=gamma, sigma=sigma,
                      noise_kind=noise, tau=tau)
    cfg = IntegratorConfig(method=method, h=h, t_end=t_end, seed=seed,
                           record_every=record_every)
    return integrate(spec, State(list(w0), list(v0)), cfg)


# --- configuration validation ----------------------------------------------

def test_config_rejects_unknown_method():
    for method in ("leapfrog", "momentum"):  # momentum names the discrete map's kernel only
        with pytest.raises(InvalidArgument):
            IntegratorConfig(method=method, h=0.01, t_end=1.0)


@pytest.mark.parametrize("kwargs", [
    dict(h=0.0, t_end=1.0),
    dict(h=-0.01, t_end=1.0),
    dict(h=0.01, t_end=0.0),
    dict(h=0.01, t_end=-5.0),
    dict(h=1e-9, t_end=1e3),      # more than 1e8 steps
    dict(h=0.01, t_end=1.0, record_every=0),
    dict(h=0.01, t_end=1.0, seed=-1),
    dict(h=math.inf, t_end=1.0),  # would run zero steps
    dict(h=math.nan, t_end=1.0),
    dict(h=0.01, t_end=math.nan),
])
def test_config_rejects_bad_numbers(kwargs):
    with pytest.raises(InvalidArgument):
        IntegratorConfig(method="verlet", **kwargs)


def test_horizon_is_always_covered():
    # t_end not a multiple of h: the step count rounds up, never short.
    cfg = IntegratorConfig(method="verlet", h=0.3, t_end=1.0)
    assert cfg.n_steps * cfg.h >= cfg.t_end - 1e-12
    traj = run("verlet", h=0.3, t_end=1.0)
    assert traj.times[-1] >= 1.0 - 1e-12


def test_method_spec_compatibility():
    noisy = SystemSpec(landscape=ISO1, gamma=0.4, sigma=0.3, noise_kind="white")
    damped = SystemSpec(landscape=ISO1, gamma=0.4)
    cfg = lambda m: IntegratorConfig(method=m, h=0.01, t_end=1.0)
    with pytest.raises(InvalidArgument):
        integrate(damped, UNIT_START, cfg("verlet"))          # friction needs splitting
    with pytest.raises(InvalidArgument):
        integrate(noisy, UNIT_START, cfg("rk4"))              # noise needs the stochastic method
    with pytest.raises(InvalidArgument):
        integrate(damped, UNIT_START, cfg("stochastic_splitting"))
    with pytest.raises(InvalidArgument):
        integrate(damped, State([1.0, 0.0], [0.0, 0.0]), cfg("damped_splitting"))


DAMPED = SystemSpec(landscape=ISO1, gamma=0.4)
NOISY = SystemSpec(landscape=ISO1, gamma=0.4, sigma=0.3, noise_kind="white")


@pytest.mark.parametrize("spec, method, call", [
    pytest.param(DAMPED, "verlet", lambda: step_verlet(UNIT_START, DAMPED, 0.01),
                 id="step_verlet"),
    pytest.param(NOISY, "damped_splitting",
                 lambda: step_damped_splitting(UNIT_START, NOISY, 0.01),
                 id="step_damped_splitting"),
    pytest.param(NOISY, "damped_splitting",
                 lambda: integrate(NOISY, UNIT_START,
                                   IntegratorConfig(method="damped_splitting", h=0.01, t_end=1.0)),
                 id="integrate"),
    pytest.param(DAMPED, "stochastic_splitting",
                 lambda: step_stochastic(UNIT_START, DAMPED, 0.01, member_rng(0)),
                 id="step_stochastic"),
    pytest.param(DAMPED, "stochastic_splitting",
                 lambda: ensemble_expected_decay(
                     DAMPED, UNIT_START,
                     IntegratorConfig(method="stochastic_splitting", h=0.01, t_end=1.0), 100),
                 id="ensemble_expected_decay"),
])
def test_every_method_spec_refusal_is_check_method(spec, method, call):
    """Each entry point refuses a method/spec mismatch with check_method's own message."""
    with pytest.raises(InvalidArgument) as expected:
        integrators.check_method(spec, method)
    with pytest.raises(InvalidArgument) as refused:
        call()
    assert str(refused.value) == str(expected.value)


# --- single steps ------------------------------------------------------------

def test_verlet_single_step_worked_example():
    spec = SystemSpec(landscape=ISO1)
    out = step_verlet(State([1.0], [0.0]), spec, 0.1)
    assert_allclose(out.w, [0.995], rtol=1e-14)
    assert_allclose(out.v, [-0.09975], rtol=1e-14)
    assert out.t == 0.1


def test_verlet_fixed_point_at_minimum():
    spec = SystemSpec(landscape=ISO1)
    out = step_verlet(State([0.0], [0.0]), spec, 0.1)
    assert np.array_equal(out.w, [0.0])
    assert np.array_equal(out.v, [0.0])


def test_verlet_rejects_damped_or_noisy():
    with pytest.raises(InvalidArgument):
        step_verlet(UNIT_START, SystemSpec(landscape=ISO1, gamma=0.1), 0.1)
    noisy = SystemSpec(landscape=ISO1, sigma=0.3, noise_kind="white")
    with pytest.raises(InvalidArgument):
        step_verlet(UNIT_START, noisy, 0.1)


def test_damped_step_flat_landscape_contracts_exactly():
    """With no gradient the splitting damps v by exactly exp(-gamma h)."""
    flat = quadratic_general([[0.0]])
    spec = SystemSpec(landscape=flat, gamma=0.4)
    out = step_damped_splitting(State([0.0], [1.0]), spec, 0.01)
    d = math.exp(-0.4 * 0.01 / 2.0)
    assert out.v[0] == d * (d * 1.0)
    assert_allclose(out.v[0], math.exp(-0.004), rtol=1e-14)


def test_damped_step_gamma_zero_equals_verlet():
    spec = SystemSpec(landscape=ISO1)
    s0 = State([0.7], [-0.3])
    a = step_verlet(s0, spec, 0.05)
    b = step_damped_splitting(s0, spec, 0.05)
    assert np.array_equal(a.w, b.w) and np.array_equal(a.v, b.v)


def test_stochastic_step_argument_contract():
    white = SystemSpec(landscape=ISO1, gamma=0.4, sigma=0.3, noise_kind="white")
    corr = SystemSpec(landscape=ISO1, gamma=0.4, sigma=0.3, noise_kind="ou", tau=0.5)
    rng = member_rng(0)
    with pytest.raises(InvalidArgument):
        step_stochastic(UNIT_START, white, 0.01, rng, eta=np.array([0.1]))
    with pytest.raises(InvalidArgument):
        step_stochastic(UNIT_START, corr, 0.01, rng)  # forcing vector required
    with pytest.raises(InvalidArgument):
        step_stochastic(UNIT_START, corr, 0.01, rng, eta=np.array([0.1, 0.2]))  # wrong length
    with pytest.raises(InvalidArgument):
        step_stochastic(UNIT_START, SystemSpec(landscape=ISO1, gamma=0.4), 0.01, rng)


# --- conservation and accuracy ----------------------------------------------

def test_verlet_conserves_energy_at_defaults():
    traj = run("verlet")
    drift = np.max(np.abs(traj.inertia - traj.inertia[0])) / traj.inertia[0]
    assert drift <= 5e-5
    # harmonic solution: w(10) = cos(10)
    assert abs(traj.ws[-1, 0] - math.cos(10.0)) <= 1e-4


def test_verlet_is_time_reversible():
    spec = SystemSpec(landscape=ISO1)
    cfg = IntegratorConfig(method="verlet", h=0.01, t_end=10.0)
    fwd = integrate(spec, State([1.0], [0.0]), cfg)
    flipped = State(fwd.ws[-1], -fwd.vs[-1])
    back = integrate(spec, flipped, cfg)
    assert abs(back.ws[-1, 0] - 1.0) <= 1e-10
    assert abs(-back.vs[-1, 0] - 0.0) <= 1e-10


def test_verlet_drift_scales_as_h_squared():
    def drift(h):
        traj = run("verlet", h=h)
        return np.max(np.abs(traj.inertia - traj.inertia[0])) / traj.inertia[0]

    ratio = drift(0.02) / drift(0.01)
    assert 3.0 <= ratio <= 5.0


def test_rk4_error_scales_as_h_fourth():
    sol = closed_form_underdamped(0.4, 1.0, 0.0)

    def err(h):
        traj = run("rk4", gamma=0.4, h=h)
        return np.max(np.abs(traj.ws[:, 0] - sol.position(traj.times)))

    ratio = err(0.02) / err(0.01)
    assert 12.0 <= ratio <= 20.0


def test_damped_matches_closed_form():
    traj = run("damped_splitting", gamma=0.4)
    sol = closed_form_underdamped(0.4, 1.0, 0.0)
    err = np.max(np.abs(traj.ws[:, 0] - sol.position(traj.times)))
    assert err <= 5e-5  # well inside the 1e-3 contract


def test_damped_energy_never_increases():
    traj = run("damped_splitting", gamma=0.4)
    assert np.all(np.diff(traj.inertia) <= 0.0)


def test_damped_run_gamma_zero_is_verlet_bitwise():
    a = run("verlet", gamma=0.0, t_end=3.0)
    b = run("damped_splitting", gamma=0.0, t_end=3.0)
    assert np.array_equal(a.ws, b.ws)
    assert np.array_equal(a.vs, b.vs)
    assert np.array_equal(a.inertia, b.inertia)


def test_euler_gains_energy_every_step():
    """The negative control: explicit Euler multiplies I by (1 + h^2) per step."""
    traj = run("explicit_euler", h=0.01, t_end=10.0)
    assert np.all(np.diff(traj.inertia) > 0.0)
    ratios = traj.inertia[1:] / traj.inertia[:-1]
    assert_allclose(ratios, 1.0 + 0.01 ** 2, rtol=1e-12)


# --- stochastic method --------------------------------------------------------

def test_sigma_zero_white_reduces_to_damped():
    a = run("damped_splitting", gamma=0.4, t_end=5.0)
    b = run("stochastic_splitting", gamma=0.4, sigma=0.0, noise="white", t_end=5.0)
    assert np.array_equal(a.ws, b.ws)
    assert np.array_equal(a.vs, b.vs)


def test_sigma_zero_correlated_reduces_to_damped():
    a = run("damped_splitting", gamma=0.4, t_end=5.0)
    b = run("stochastic_splitting", gamma=0.4, sigma=0.0, noise="ou", tau=0.5, t_end=5.0)
    assert np.array_equal(a.ws, b.ws)
    assert np.array_equal(a.vs, b.vs)
    assert np.array_equal(b.noise, np.zeros_like(b.noise))


def test_same_seed_reproduces_bitwise():
    for noise, tau in (("white", None), ("ou", 0.5)):
        a = run("stochastic_splitting", gamma=0.4, sigma=0.3, noise=noise, tau=tau, t_end=2.0, seed=42)
        b = run("stochastic_splitting", gamma=0.4, sigma=0.3, noise=noise, tau=tau, t_end=2.0, seed=42)
        assert np.array_equal(a.ws, b.ws) and np.array_equal(a.vs, b.vs)


def test_different_seeds_differ():
    a = run("stochastic_splitting", gamma=0.4, sigma=0.3, noise="white", t_end=2.0, seed=1)
    b = run("stochastic_splitting", gamma=0.4, sigma=0.3, noise="white", t_end=2.0, seed=2)
    assert not np.array_equal(a.vs, b.vs)


def numpy_seed_words(seed, members):
    """The reference: numpy's own SeedSequence for each member, one at a time."""
    return np.array([np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(4, np.uint64)
                     for i in members])


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1,
         *(int(s) for s in np.random.default_rng(13).integers(0, 2**64, 3, dtype=np.uint64))]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("first, stop", [(0, 300), (2**32 - 2, 2**32)])
def test_seed_words_are_numpys_seed_sequence(seed, first, stop):
    words = streams.seed_words(seed, first, stop)
    assert words.dtype == np.uint64 and words.shape == (stop - first, 4)
    assert np.array_equal(words, numpy_seed_words(seed, range(first, stop)))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1))
def test_seed_words_property(seed, member):
    assert np.array_equal(streams.seed_words(seed, member, member + 1),
                          numpy_seed_words(seed, [member]))


@pytest.mark.parametrize("seed, member", [(0, 0), (7, 3), (2**64 - 1, 2**32 - 1)])
def test_member_rng_draws_are_numpys(seed, member):
    """Alone or as the last of a batch, a member's generator draws what numpy's draws."""
    for rng in (member_rng(seed, member),
                streams.member_rngs(seed, max(0, member - 2), member + 1)[-1]):
        reference = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(member,))))
        assert np.array_equal(rng.standard_normal(1000), reference.standard_normal(1000))


def test_member_index_of_more_than_32_bits_is_refused():
    """numpy's spawn key would then take two words, which the batch seeding does not do."""
    with pytest.raises(InvalidArgument):
        member_rng(0, 2**32)
    with pytest.raises(InvalidArgument):
        streams.member_rngs(0, 2**32 - 1, 2**32 + 1)
    with pytest.raises(InvalidArgument):
        member_rng(0, -1)
    with pytest.raises(InvalidArgument):
        member_rng(-1, 0)


def test_importing_the_package_leaves_numpy_random_unloaded():
    """Noise-free runs draw nothing, so numpy.random loads at the first stochastic run."""
    package_root = os.path.dirname(os.path.dirname(integrators.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    check = "import sys, {}; print('numpy.random' in sys.modules)"
    loaded = [subprocess.run([sys.executable, "-c", check.format(module)], env=env,
                             capture_output=True, text=True, check=True).stdout.strip()
              for module in ("numpy", "inertia")]
    if loaded[0] == "True":
        pytest.skip("this numpy loads numpy.random on import")
    assert loaded[1] == "False"


def test_integrate_matches_manual_step_chain():
    """The fast array loop must replay the public single-step functions exactly."""
    h, n = 0.01, 50

    # deterministic pair
    for gamma, stepper in ((0.0, step_verlet), (0.4, step_damped_splitting)):
        spec = SystemSpec(landscape=ISO1, gamma=gamma)
        traj = run("verlet" if gamma == 0 else "damped_splitting", gamma=gamma, h=h, t_end=n * h)
        s = State([1.0], [0.0])
        for k in range(1, n + 1):
            s = stepper(s, spec, h)
            assert np.array_equal(s.w, traj.ws[k])
            assert np.array_equal(s.v, traj.vs[k])

    # white noise
    spec = SystemSpec(landscape=ISO1, gamma=0.4, sigma=0.3, noise_kind="white")
    cfg = IntegratorConfig(method="stochastic_splitting", h=h, t_end=n * h, seed=7)
    traj = integrate(spec, State([1.0], [0.0]), cfg)
    rng = member_rng(7, 0)
    s = State([1.0], [0.0])
    for k in range(1, n + 1):
        s = step_stochastic(s, spec, h, rng)
        assert np.array_equal(s.w, traj.ws[k])
        assert np.array_equal(s.v, traj.vs[k])

    # correlated noise carries the forcing as explicit state
    spec = SystemSpec(landscape=ISO1, gamma=0.4, sigma=0.3, noise_kind="ou", tau=0.5)
    traj = integrate(spec, State([1.0], [0.0]), cfg)
    rng = member_rng(7, 0)
    eta = initial_forcing(spec, rng)
    s = State([1.0], [0.0])
    for k in range(1, n + 1):
        s, eta = step_stochastic(s, spec, h, rng, eta)
        assert np.array_equal(s.w, traj.ws[k])
        assert np.array_equal(s.v, traj.vs[k])
        assert np.array_equal(eta, traj.noise[k])


STEP_CASES = {  # name -> (method, SystemSpec arguments)
    "verlet": ("verlet", dict(gamma=0.0)),
    "damped": ("damped_splitting", dict(gamma=0.4)),
    "white": ("stochastic_splitting", dict(gamma=0.4, sigma=0.3, noise_kind="white")),
    "ou": ("stochastic_splitting", dict(gamma=0.4, sigma=0.3, noise_kind="ou", tau=0.5)),
}


def replay_steps(spec, cfg, state, n):
    """States 0..n from the public single-step functions, plus the forcing for ou."""
    rng = member_rng(cfg.seed, 0)
    eta = initial_forcing(spec, rng) if spec.noise_kind == "ou" else None
    states, etas = [state], [eta]
    for _ in range(n):
        if cfg.method == "verlet":
            state = step_verlet(state, spec, cfg.h)
        elif cfg.method == "damped_splitting":
            state = step_damped_splitting(state, spec, cfg.h)
        elif eta is None:
            state = step_stochastic(state, spec, cfg.h, rng)
        else:
            state, eta = step_stochastic(state, spec, cfg.h, rng, eta)
        states.append(state)
        etas.append(eta)
    return states, etas


@pytest.mark.parametrize("case", sorted(STEP_CASES))
@pytest.mark.parametrize("name", sorted(MULTI_D))
def test_integrate_matches_step_chain_at_dim_ge_2(name, case):
    landscape = MULTI_D[name]
    method, spec_args = STEP_CASES[case]
    spec = SystemSpec(landscape=landscape, **spec_args)
    cfg = IntegratorConfig(method=method, h=0.01, t_end=1.5, seed=9)
    start = State(np.linspace(1.0, -0.5, landscape.dim), np.linspace(0.0, 0.3, landscape.dim))
    traj = integrate(spec, start, cfg)
    states, etas = replay_steps(spec, cfg, start, cfg.n_steps)
    assert np.array_equal(traj.ws, np.array([s.w for s in states]))
    assert np.array_equal(traj.vs, np.array([s.v for s in states]))
    if spec.noise_kind == "ou":
        assert np.array_equal(traj.noise, np.array(etas))
    expected = np.array([inertia(s, landscape) for s in states])
    assert np.all(np.abs(traj.inertia - expected) <= 4 * np.finfo(float).eps * expected)


def dense_psd(dim, seed):
    m = np.random.default_rng(seed).standard_normal((dim, dim))
    b = m.T @ m / dim + 0.1 * np.eye(dim)
    return quadratic_general(0.5 * (b + b.T))


PIN_LANDSCAPES = {
    "iso1d": (ISO1, 120),
    **{name: (landscape, 120) for name, landscape in MULTI_D.items()},
    "coupled512": (dense_psd(512, 12), 12),
}


def two_gradient_reference(spec, method, h, n, w, v, normal=None, eta=None):
    """States 0..n of a plain array loop; its splitting steps evaluate the gradient twice.

    Written out here, apart from the package's step kernel, with the
    arithmetic in the order of the textbook kick-drift-kick layout (and of
    the classical Euler and Runge-Kutta stages). It steps numpy arrays and
    takes ``landscape.gradient``, so 1-D runs, which the package steps as
    Python floats, are checked against the array arithmetic.
    """
    grad = spec.landscape.gradient

    def accel(w, v):
        return -spec.gamma * v - grad(w)

    d = math.exp(-spec.gamma * h / 2.0)
    if spec.noise_kind == "white":
        if spec.gamma < 1e-12:
            s = spec.sigma * math.sqrt(h / 2.0)
        else:
            s = spec.sigma * math.sqrt((1.0 - d * d) / (2.0 * spec.gamma))
    elif spec.noise_kind == "ou":
        c = math.exp(-h / spec.tau)
        q = spec.sigma * math.sqrt(1.0 - c * c)
    ws, vs, etas = [w], [v], [eta]
    for _ in range(n):
        if method == "explicit_euler":
            w, v = w + h * v, v + h * accel(w, v)
        elif method == "rk4":
            k1w, k1v = v, accel(w, v)
            k2w, k2v = v + 0.5 * h * k1v, accel(w + 0.5 * h * k1w, v + 0.5 * h * k1v)
            k3w, k3v = v + 0.5 * h * k2v, accel(w + 0.5 * h * k2w, v + 0.5 * h * k2v)
            k4w, k4v = v + h * k3v, accel(w + h * k3w, v + h * k3v)
            w = w + (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
            v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        elif method != "stochastic_splitting":
            v = d * v
            v = v - 0.5 * h * grad(w)
            w = w + h * v
            v = v - 0.5 * h * grad(w)
            v = d * v
        elif spec.noise_kind == "white":
            v = d * v + s * normal(v.shape)
            v = v - 0.5 * h * grad(w)
            w = w + h * v
            v = v - 0.5 * h * grad(w)
            v = d * v + s * normal(v.shape)
        else:
            v = d * v
            v = v + 0.5 * h * (eta - grad(w))
            w = w + h * v
            eta = c * eta + q * normal(v.shape)
            v = v + 0.5 * h * (eta - grad(w))
            v = d * v
        ws.append(w)
        vs.append(v)
        etas.append(eta)
    return np.array(ws), np.array(vs), etas


def reference_for_member(spec, cfg, start, member=0):
    rng = member_rng(cfg.seed, member)
    eta = initial_forcing(spec, rng) if spec.noise_kind == "ou" else None
    return two_gradient_reference(spec, cfg.method, cfg.h, cfg.n_steps, start.w, start.v,
                                  rng.standard_normal, eta)


@pytest.mark.parametrize("case", sorted(STEP_CASES))
@pytest.mark.parametrize("name", sorted(PIN_LANDSCAPES))
def test_one_gradient_steps_equal_the_two_gradient_reference(name, case):
    """integrate and the public step chain reproduce the two-gradient loop bit for bit."""
    landscape, n = PIN_LANDSCAPES[name]
    method, spec_args = STEP_CASES[case]
    spec = SystemSpec(landscape=landscape, **spec_args)
    cfg = IntegratorConfig(method=method, h=0.01, t_end=n * 0.01, seed=9)
    assert cfg.n_steps == n
    start = State(np.linspace(1.0, -0.5, landscape.dim), np.linspace(0.0, 0.3, landscape.dim))
    ws, vs, etas = reference_for_member(spec, cfg, start)
    traj = integrate(spec, start, cfg)
    states, chain_etas = replay_steps(spec, cfg, start, n)
    for got_ws, got_vs in ((traj.ws, traj.vs),
                           (np.array([s.w for s in states]), np.array([s.v for s in states]))):
        assert np.array_equal(got_ws, ws)
        assert np.array_equal(got_vs, vs)
    if spec.noise_kind == "ou":
        assert np.array_equal(traj.noise, np.array(etas))
        assert np.array_equal(np.array(chain_etas), np.array(etas))


DIM1_CASES = {
    **STEP_CASES,
    "explicit_euler": ("explicit_euler", dict(gamma=0.4)),
    "rk4": ("rk4", dict(gamma=0.4)),
}


def same_bits(a, b):
    """Equal shapes and bytes: unlike array_equal, tells -0.0 from +0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("v0", [0.7, -0.0])
@pytest.mark.parametrize("case", sorted(DIM1_CASES))
def test_scalar_path_equals_the_array_reference_from_minus_zero(case, v0):
    """1-D runs step Python floats; from w0 = -0.0 they keep every bit of the array loop.

    With v0 = 0.7 the run crosses the origin. With v0 = -0.0 the noise-free
    runs rest on signed zeros, which a -0.0 gradient would flip.
    """
    method, spec_args = DIM1_CASES[case]
    spec = SystemSpec(landscape=ISO1, **spec_args)
    cfg = IntegratorConfig(method=method, h=0.01, t_end=4.0, seed=9)
    start = State([-0.0], [v0])
    ws, vs, etas = reference_for_member(spec, cfg, start)
    traj = integrate(spec, start, cfg)
    assert same_bits(traj.ws, ws)
    assert same_bits(traj.vs, vs)
    if spec.noise_kind == "ou":
        assert same_bits(traj.noise, np.array(etas))
    if v0 != 0:
        assert ws.min() < 0 < ws.max()


@pytest.mark.parametrize("case", sorted(DIM1_CASES))
def test_1d_records_stay_float64_columns(case):
    method, spec_args = DIM1_CASES[case]
    spec = SystemSpec(landscape=ISO1, **spec_args)
    cfg = IntegratorConfig(method=method, h=0.01, t_end=0.5, seed=1, record_every=7)
    traj = integrate(spec, UNIT_START, cfg)
    recorded = [traj.ws, traj.vs] + ([traj.noise] if spec.noise_kind == "ou" else [])
    for values in recorded:
        assert type(values) is np.ndarray
        assert values.dtype == np.float64 and values.shape == (len(traj), 1)
    assert traj.inertia.dtype == np.float64 and traj.inertia.shape == (len(traj),)
    if spec.noise_kind != "ou":
        assert traj.noise is None


@pytest.mark.parametrize("noise, tau", [("white", None), ("ou", 0.5)])
def test_ensemble_rows_equal_the_two_gradient_reference(noise, tau):
    spec = SystemSpec(landscape=ISO1, gamma=0.4, sigma=0.3, noise_kind=noise, tau=tau)
    cfg = IntegratorConfig(method="stochastic_splitting", h=0.01, t_end=1.0, seed=5)
    start = State([0.8], [-0.1])
    series = ensemble_arrays(spec, start, cfg, 4)
    for i in range(4):
        ws, vs, _ = reference_for_member(spec, cfg, start, member=i)
        assert np.array_equal(series["inertia"][i], 0.5 * vs[:, 0] * vs[:, 0] + 0.5 * ws[:, 0] * ws[:, 0])


class CountingLandscape(QuadraticLandscape):
    """A quadratic that counts the calls of its raw gradient, and its row_values
    and value_from_gradient calls."""

    def __init__(self, landscape):
        super().__init__(landscape.matrix)
        self.gradient_calls = self.value_calls = 0

    def raw_gradient(self):
        raw = super().raw_gradient()

        def counted(w):
            self.gradient_calls += 1
            return raw(w)
        return counted

    def row_values(self, ws):
        self.value_calls += 1
        return super().row_values(ws)

    def value_from_gradient(self, w, gw):
        self.value_calls += 1
        return super().value_from_gradient(w, gw)


@pytest.mark.parametrize("case, per_step", [
    ("verlet", None), ("damped", None), ("white", None), ("ou", None),
    ("rk4", 4), ("explicit_euler", 1),
])
def test_gradient_calls_per_run(case, per_step):
    """A run takes its method's gradients per step, one for splitting runs,
    plus one at the start."""
    counting = CountingLandscape(coupled5())
    method, spec_args = STEP_CASES.get(case, (case, dict(gamma=0.4)))
    spec = SystemSpec(landscape=counting, **spec_args)
    cfg = IntegratorConfig(method=method, h=0.01, t_end=0.37, seed=2, record_every=5)
    start = State(np.linspace(1.0, -0.5, 5), np.zeros(5))
    integrate(spec, start, cfg)
    expected = (per_step or 1) * cfg.n_steps + 1
    assert counting.gradient_calls == expected
    assert counting.value_calls > 0  # the recorded potentials come from the landscape
    if method == "stochastic_splitting":
        counting.gradient_calls = counting.value_calls = 0
        every_step = IntegratorConfig(method=method, h=0.01, t_end=0.37, seed=2)
        ensemble_arrays(spec, start, every_step, 6)
        assert counting.gradient_calls == cfg.n_steps + 1  # one batched call per step
        assert counting.value_calls == cfg.n_steps + 1  # one per recorded step


def dense(dim, seed):
    m = np.random.default_rng(seed).standard_normal((dim, dim))
    b = m.T @ m / dim + 0.1 * np.eye(dim)
    return quadratic_general(0.5 * (b + b.T))


ENERGY_LANDSCAPES = {"iso1": ISO1, **MULTI_D, **{f"dense{d}": dense(d, d) for d in (2, 3, 8)}}


def energies_or_failure(call):
    """The bytes of ``call()``'s recorded energies, or its failure's message and step."""
    try:
        result = call()
    except NumericalFailure as exc:
        return str(exc), exc.step_index
    return (result[2] if isinstance(result, tuple) else result.inertia).tobytes()


def by_row_values(monkeypatch, call):
    """``energies_or_failure(call)`` with every recorded potential taken from
    ``row_values``, as ``inertia_rows`` takes it."""
    with monkeypatch.context() as m:
        m.setattr(QuadraticLandscape, "value_from_gradient", lambda self, w, gw: self.row_values(w))
        return energies_or_failure(call)


@pytest.mark.parametrize("row_floats", [None, 24])  # 24: a few rows' gradients per block
@pytest.mark.parametrize("record_every", [1, 10, 7])  # 7 leaves the last of 300 steps off it
@pytest.mark.parametrize("name", sorted(ENERGY_LANDSCAPES))
@pytest.mark.parametrize("case", sorted(DIM1_CASES))
def test_recorded_energies_have_the_bits_of_inertia_rows(monkeypatch, case, name, record_every,
                                                         row_floats):
    """Each recorded potential comes from the gradient its step carried."""
    if row_floats is not None:
        monkeypatch.setattr(integrators, "_ROW_FLOATS", row_floats)
    landscape = ENERGY_LANDSCAPES[name]
    method, spec_args = DIM1_CASES[case]
    cfg = IntegratorConfig(method=method, h=0.01, t_end=3.0, seed=3, record_every=record_every)
    start = State(np.linspace(1.0, -0.5, landscape.dim), np.linspace(-0.2, 0.4, landscape.dim))
    traj = integrate(SystemSpec(landscape=landscape, **spec_args), start, cfg)
    assert same_bits(traj.inertia, inertia_rows(traj.ws, traj.vs, landscape))


@pytest.mark.parametrize("name", sorted(ENERGY_LANDSCAPES))
def test_discrete_energies_have_the_bits_of_inertia_rows(monkeypatch, name):
    landscape = ENERGY_LANDSCAPES[name]
    monkeypatch.setattr(integrators, "_ROW_FLOATS", 24)
    w0, v0 = np.linspace(1.0, -0.5, landscape.dim), np.linspace(-0.2, 0.4, landscape.dim)
    ws, vs, energy = discrete_trajectory(w0, v0, 0.05, 300, landscape)
    assert same_bits(energy, inertia_rows(ws, vs, landscape))


EDGE_STARTS = [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (5e-324, -5e-324), (-5e-324, 5e-324),
               (-5e-324, -0.0), (1e200, 0.0), (0.0, 1e200)]


@pytest.mark.parametrize("w0, v0", EDGE_STARTS)
@pytest.mark.parametrize("case", sorted(DIM1_CASES))
def test_1d_energies_at_the_edges_are_those_of_row_values(monkeypatch, case, w0, v0):
    """Signed zeros, subnormals and an energy past the largest float: the same
    bits, or the same failure at the same step."""
    method, spec_args = DIM1_CASES[case]
    cfg = IntegratorConfig(method=method, h=0.01, t_end=0.5, seed=3, record_every=3)
    spec = SystemSpec(landscape=ISO1, **spec_args)
    run = lambda: integrate(spec, State([w0], [v0]), cfg)  # noqa: E731
    got = energies_or_failure(run)
    assert got == by_row_values(monkeypatch, run)
    if abs(w0) + abs(v0) > 1e100:
        assert got == ("energy not finite at step 0", 0)
    else:
        traj = run()
        assert same_bits(traj.inertia, inertia_rows(traj.ws, traj.vs, ISO1))
    discrete = lambda: discrete_trajectory([w0], [v0], 0.05, 40, ISO1)  # noqa: E731
    assert energies_or_failure(discrete) == by_row_values(monkeypatch, discrete)


@pytest.mark.parametrize("landscape, record_every", [(ISO1, 1), (dense(2, 2), 1), (dense(3, 3), 4)])
def test_an_energy_that_overflows_mid_run_fails_at_the_same_step(monkeypatch, landscape,
                                                                 record_every):
    """An unstable step grows the state past 1e154, where its energy overflows
    while the state stays finite."""
    cfg = IntegratorConfig(method="verlet", h=2.5, t_end=2.5 * 130, record_every=record_every)
    start = State(np.full(landscape.dim, 1e100), np.zeros(landscape.dim))
    run = lambda: integrate(SystemSpec(landscape=landscape), start, cfg)  # noqa: E731
    got = energies_or_failure(run)
    assert got == by_row_values(monkeypatch, run)
    assert got[0].startswith("energy not finite") and got[1] > 0


def test_trajectory_runs_call_no_quadratic_value(monkeypatch):
    """Every method's runs, the discrete map and the ensemble take every
    potential from a gradient; only the reference inertia_rows calls row_values."""
    calls = []
    for name in ("value", "row_values"):
        def spy(self, w, _original=getattr(QuadraticLandscape, name), _name=name):
            calls.append(_name)
            return _original(self, w)
        monkeypatch.setattr(QuadraticLandscape, name, spy)
    start = State(np.linspace(1.0, -0.5, 5), np.zeros(5))
    for case in sorted(DIM1_CASES):
        method, spec_args = DIM1_CASES[case]
        spec = SystemSpec(landscape=coupled5(), **spec_args)
        cfg = IntegratorConfig(method=method, h=0.01, t_end=0.37, seed=2, record_every=5)
        traj = integrate(spec, start, cfg)
        if method == "stochastic_splitting":
            ensemble_arrays(spec, start, IntegratorConfig(method=method, h=0.01, t_end=0.37), 6)
    integrate(SystemSpec(landscape=ISO1, gamma=0.4), UNIT_START,
              IntegratorConfig(method="damped_splitting", h=0.01, t_end=1.0))
    discrete_trajectory(start.w, start.v, 0.05, 300, coupled5())
    assert calls == []
    inertia_rows(traj.ws, traj.vs, traj.spec.landscape)
    assert calls == ["row_values"]


def test_white_noise_velocity_variance_growth():
    """Frictionless flat landscape: Var[v] after time t is sigma^2 t.

    Checked against the ensemble to three standard errors.
    """
    flat = quadratic_general([[0.0]])
    spec = SystemSpec(landscape=flat, gamma=0.0, sigma=0.3, noise_kind="white")
    cfg = IntegratorConfig(method="stochastic_splitting", h=0.01, t_end=0.5, seed=3)
    m = 2000
    series = ensemble_arrays(spec, State([0.0], [0.0]), cfg, m)
    var_hat = float(series["speed_squared"][:, -1].mean())
    expected = 0.3 ** 2 * 0.5
    se = expected * math.sqrt(2.0 / m)  # chi-square spread of a variance estimate
    assert abs(var_hat - expected) <= 3.0 * se


# --- ensembles ----------------------------------------------------------------

def test_ensemble_member_zero_is_the_single_trajectory():
    """Bit for bit on 1-D; at dim >= 2 the batched kernels differ by a few ulps."""
    for landscape, (noise, tau) in itertools.product(
        [ISO1, *MULTI_D.values()], [("white", None), ("ou", 0.5)]
    ):
        start = State(np.linspace(1.0, 0.2, landscape.dim), np.zeros(landscape.dim))
        spec = SystemSpec(landscape=landscape, gamma=0.4, sigma=0.3, noise_kind=noise, tau=tau)
        cfg = IntegratorConfig(method="stochastic_splitting", h=0.01, t_end=2.0, seed=11)
        traj = integrate(spec, start, cfg)
        series = ensemble_arrays(spec, start, cfg, 4)
        if landscape.dim == 1:
            assert np.array_equal(series["inertia"][0], traj.inertia)
            assert np.array_equal(series["speed_squared"][0], traj.speed_squared)
        else:
            assert_allclose(series["inertia"][0], traj.inertia, rtol=4e-15, atol=0)
            assert_allclose(series["speed_squared"][0], traj.speed_squared, rtol=4e-15, atol=1e-300)


def test_ensemble_rows_match_independent_runs():
    """Batched stepping must agree bitwise with one-member-at-a-time runs."""
    spec = SystemSpec(landscape=ISO1, gamma=0.4, sigma=0.3, noise_kind="ou", tau=0.5)
    cfg = IntegratorConfig(method="stochastic_splitting", h=0.01, t_end=1.0, seed=5)
    series = ensemble_arrays(spec, State([1.0], [0.0]), cfg, 4)
    for i in range(4):
        # member i's stream, replayed through the scalar path
        rng = member_rng(5, i)
        eta = initial_forcing(spec, rng)
        s = State([1.0], [0.0])
        energies = [0.5 * float(s.v @ s.v) + float(ISO1.value(s.w))]
        for _ in range(cfg.n_steps):
            s, eta = step_stochastic(s, spec, cfg.h, rng, eta)
            energies.append(0.5 * float(s.v @ s.v) + float(ISO1.value(s.w)))
        assert np.array_equal(series["inertia"][i], np.asarray(energies))


@pytest.mark.parametrize("noise, tau", [("white", None), ("ou", 0.5)])
def test_ensemble_noise_refills_do_not_change_the_draws(monkeypatch, noise, tau):
    """Members' draws are the same however many steps a slot holds and whichever process draws them.

    One refill is drawn in place. Several are drawn by two half-ensembles,
    this process's and a forked partner's, or, where os.fork is missing or
    one CPU is usable, by this process for both halves. Every member's
    rows and every reduced series agree bitwise with the one-refill run's.
    """
    landscape = MULTI_D["diag"]
    spec = SystemSpec(landscape=landscape, gamma=0.4, sigma=0.3, noise_kind=noise, tau=tau)
    cfg = IntegratorConfig(method="stochastic_splitting", h=0.01, t_end=0.5, seed=8)
    start = State([1.0, 0.5, -0.2], [0.0, 0.1, 0.0])
    pids = spy_on_fork(monkeypatch)
    whole = group_arrays(spec, start, cfg, 4)
    assert pids == []
    assert integrators._NOISE_FLOATS >= 2 * 2 * 4 * 3 * cfg.n_steps  # one refill above
    monkeypatch.setattr(integrators, "_NOISE_FLOATS", 2 * (2 * 4 * 3 * 3 + 5))  # slots of 3 or 6 steps
    forked = group_arrays(spec, start, cfg, 4)
    assert len(pids) == 1
    assert_no_child_process()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one_cpu = group_arrays(spec, start, cfg, 4)
    assert len(pids) == 1
    monkeypatch.delattr(os, "fork")
    in_place = group_arrays(spec, start, cfg, 4)
    for key in whole:
        assert np.array_equal(whole[key], forked[key]), key
        assert np.array_equal(whole[key], one_cpu[key]), key
        assert np.array_equal(whole[key], in_place[key]), key


@pytest.mark.parametrize("can_fork", [True, False])
def test_member_draws_are_each_members_own_stream(monkeypatch, can_fork):
    """Refills of 3, 3 and 1 steps, the first two in tiles of 64, 64 and 22 members:
    member i's column is its own stream drawn step by step, in place, whether or
    not a process could be forked."""
    n_members, n_steps, per_step, dim = 150, 7, 2, 2
    monkeypatch.setattr(integrators, "_TILE_FLOATS", 64 * 3 * per_step * dim)
    if not can_fork:
        monkeypatch.delattr(os, "fork")
    pids = spy_on_fork(monkeypatch) if can_fork else []
    rngs = [member_rng(3, i) for i in range(n_members)]
    draws = integrators._member_draws(rngs, n_steps, per_step, dim, 3)
    got = np.array([block.copy() for block in draws])  # a block is valid until the next
    expected = [member_rng(3, i).standard_normal((n_steps * per_step, dim))
                for i in range(n_members)]
    assert np.array_equal(got, np.stack(expected, axis=1))
    assert pids == []


@pytest.mark.parametrize("target, name", [
    (multiprocessing.context.BaseContext, "Semaphore"), (forking.mmap, "mmap"), (os, "fork"),
], ids=["semaphore", "mapping", "fork"])
def test_a_failing_semaphore_mapping_or_fork_draws_the_noise_in_place(monkeypatch, target,
                                                                      name):
    """Several refills with no partner to spare: this process draws and steps
    both halves, to the same bits, and no file is left open."""
    spec = SystemSpec(landscape=MULTI_D["diag"], gamma=0.4, sigma=0.3, noise_kind="white")
    cfg = IntegratorConfig(method="stochastic_splitting", h=0.01, t_end=0.2, seed=3)
    start = State([1.0, 0.5, -0.2], [0.0, 0.1, 0.0])
    monkeypatch.setattr(integrators, "_NOISE_FLOATS", 2 * 3 * 2 * 150 * 3)  # refills of 3 steps

    def run():
        return ensemble_arrays(spec, start, cfg, 150)
    with monkeypatch.context() as m:
        m.setattr(forking, "may_fork", lambda: False)
        in_process = run()
    pids = spy_on_fork(monkeypatch)
    monkeypatch.setattr(target, name, refuse)
    fds = open_fds()
    got = run()
    assert pids == []
    assert open_fds() == fds
    assert_no_child_process()
    for key in in_process:
        assert np.array_equal(got[key], in_process[key]), key


KILLED_RUN = """
import os, signal
from inertia import IntegratorConfig, State, SystemSpec, quadratic_isotropic
from inertia import integrators

fork = os.fork
def announcing_fork():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid
os.fork = announcing_fork
os.sched_getaffinity = lambda pid: {0, 1}
integrators._NOISE_FLOATS = 2 * 3 * 2 * 6
integrators._GROUP_FLOATS = 2 * 6  # a group per sample
spec = SystemSpec(landscape=quadratic_isotropic(1), gamma=0.4, sigma=0.3, noise_kind="white")
cfg = IntegratorConfig(method="stochastic_splitting", h=0.01, t_end=1.0, seed=2)
groups = integrators.ensemble_groups(spec, State([1.0], [0.0]), cfg, 6)[1]
next(groups), next(groups)
os.kill(os.getpid(), signal.SIGKILL)
"""


def test_an_ensemble_killed_outright_takes_its_partner_along():
    """No finally runs in a SIGKILLed run; its partner sees its parent change
    and exits, which closes the stdout it inherited, so the run below returns."""
    package_root = os.path.dirname(os.path.dirname(integrators.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    try:
        done = subprocess.run([sys.executable, "-c", KILLED_RUN], env=env,
                              stdout=subprocess.PIPE, timeout=60)
    except subprocess.TimeoutExpired as exc:
        if exc.output:  # the partner is still running: stop it
            os.kill(int(exc.output), signal.SIGKILL)
        raise
    assert done.returncode == -signal.SIGKILL
    assert int(done.stdout) > 0  # the partner's pid: it was forked


def ensemble_of_refills(n_members=6):
    """The groups of a 1-D white-noise ensemble whose draws take about 34 refills
    of 3 steps, with each of its 101 samples a group of its own, so two
    half-ensembles run it."""
    spec = SystemSpec(landscape=ISO1, gamma=0.4, sigma=0.3, noise_kind="white")
    cfg = IntegratorConfig(method="stochastic_splitting", h=0.01, t_end=1.0, seed=2)
    return ensemble_groups(spec, UNIT_START, cfg, n_members)[1]


@pytest.fixture
def small_refills_and_groups(monkeypatch):
    monkeypatch.setattr(integrators, "_NOISE_FLOATS", 2 * 3 * 2 * 6)
    monkeypatch.setattr(integrators, "_GROUP_FLOATS", 2 * 6)


def test_a_dropped_ensemble_leaves_no_process(monkeypatch, small_refills_and_groups):
    """Dropped while a second ensemble's partner, which holds copies of the
    first one's mapping and semaphores, is running: neither partner hangs or
    outlives its run."""
    pids = spy_on_fork(monkeypatch)
    first, second = ensemble_of_refills(), ensemble_of_refills()
    for _ in range(10):
        next(first), next(second)
    assert len(pids) == 2
    del first
    assert sum(1 for _ in second) == 101 - 10
    assert_no_child_process()


def test_a_killed_partner_fails_the_run(monkeypatch, small_refills_and_groups):
    """The run raises once it waits for a group the partner never wrote; it does not hang."""
    pids = spy_on_fork(monkeypatch)
    groups = ensemble_of_refills()
    next(groups), next(groups)  # the partner is forked before the first group
    os.kill(pids[0], signal.SIGKILL)
    # Wait until it is gone, without reaping it, so that the run's next ask
    # goes to a process that is no more.
    while os.waitid(os.P_PID, pids[0], os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
        time.sleep(0.001)
    with pytest.raises(RuntimeError, match="the ensemble partner ended before group"):
        for _ in groups:
            pass
    assert_no_child_process()


@pytest.mark.parametrize("noise, tau", [("white", None), ("ou", 0.5)])
def test_a_one_process_ensemble_holds_one_group_and_hands_it_out_at_once(monkeypatch, noise, tau):
    """200 members take one noise refill, so no partner runs: every group is
    written into the same memory and handed out as soon as its last sample's
    rate is known, one sample past the group, before any later sample."""
    sampled, sample = [], integrators._sample
    monkeypatch.setattr(integrators, "_sample", lambda *args: sampled.append(1) or sample(*args))
    pids = spy_on_fork(monkeypatch)
    spec = SystemSpec(landscape=ISO1, gamma=0.4, sigma=0.3, noise_kind=noise, tau=tau)
    cfg = IntegratorConfig(method="stochastic_splitting", h=0.01, t_end=2.0, seed=4)
    times, groups = ensemble_groups(spec, UNIT_START, cfg, 200)
    n_rec, addresses, n_groups = times.shape[0], set(), 0
    for first, rows, out in groups:
        assert len(sampled) == min(first + rows.shape[1] + 1, n_rec)
        addresses.add(rows.__array_interface__["data"][0])
        n_groups += 1
    assert n_groups >= 4 and len(addresses) == 1  # groups of 54 (white) or 40 samples
    assert pids == []


def test_ensemble_requires_stochastic_method():
    spec = SystemSpec(landscape=ISO1, gamma=0.4)
    cfg = IntegratorConfig(method="damped_splitting", h=0.01, t_end=1.0)
    with pytest.raises(InvalidArgument):
        ensemble_arrays(spec, UNIT_START, cfg, 4)
    noisy = SystemSpec(landscape=ISO1, gamma=0.4, sigma=0.3, noise_kind="white")
    stochastic = IntegratorConfig(method="stochastic_splitting", h=0.01, t_end=1.0)
    with pytest.raises(InvalidArgument, match="at least one member"):
        ensemble_groups(noisy, UNIT_START, stochastic, 0)


@pytest.mark.parametrize("config, message", [
    (dict(t_end=0.5, record_every=3), "record_every=3"),
    (dict(t_end=0.01), "at least 2 steps, got 1"),
], ids=["stride", "one-step"])
def test_ensemble_groups_refuses_a_run_it_cannot_record_whole(config, message):
    """Every step is recorded, and a rate needs a sample on each side or two on one."""
    spec = SystemSpec(landscape=ISO1, gamma=0.4, sigma=0.3, noise_kind="white")
    cfg = IntegratorConfig(method="stochastic_splitting", h=0.01, **config)
    with pytest.raises(InvalidArgument, match=message):
        ensemble_groups(spec, UNIT_START, cfg, 4)


@pytest.mark.parametrize("n_steps", [2, 3, 50])
@pytest.mark.parametrize("noise, tau", [("white", None), ("ou", 0.5)])
def test_ensemble_rates_are_each_members_centered_difference(noise, tau, n_steps):
    """rows[1] is (E[k+1] - E[k-1]) / 2h inside and the one-sided O(h^2)
    stencils at both ends, member by member."""
    spec = SystemSpec(landscape=ISO1, gamma=0.4, sigma=0.3, noise_kind=noise, tau=tau)
    cfg = IntegratorConfig(method="stochastic_splitting", h=0.01, t_end=n_steps * 0.01, seed=9)
    rows = group_arrays(spec, State([0.8], [-0.1]), cfg, 4)["rows"]
    assert rows.shape[1] == n_steps + 1
    two_h = 2.0 * cfg.h
    for energy, rate in zip(rows[0].T, rows[1].T):
        assert np.array_equal(rate[1:-1], (energy[2:] - energy[:-2]) / two_h)
        assert rate[0] == (-3.0 * energy[0] + 4.0 * energy[1] - energy[2]) / two_h
        assert rate[-1] == (3.0 * energy[-1] - 4.0 * energy[-2] + energy[-3]) / two_h


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("noise, tau", [("white", None), ("ou", 0.5)])
def test_a_one_member_ensemble_reduces_without_a_warning(noise, tau):
    """One member's means are its rows and its standard errors are 0, with no 0 / 0."""
    spec = SystemSpec(landscape=ISO1, gamma=0.4, sigma=0.3, noise_kind=noise, tau=tau)
    cfg = IntegratorConfig(method="stochastic_splitting", h=0.01, t_end=0.5, seed=4)
    joined = group_arrays(spec, UNIT_START, cfg, 1)
    rows, out = joined["rows"], joined["out"]
    assert np.array_equal(out[: rows.shape[0]], rows[:, :, 0])
    assert not out[rows.shape[0]:].any()


# --- recording and failure handling -------------------------------------------

def test_record_every_subsamples_without_recomputing():
    full = run("damped_splitting", gamma=0.4, t_end=1.0)
    sub = run("damped_splitting", gamma=0.4, t_end=1.0, record_every=10)
    assert np.array_equal(sub.times, full.times[::10])
    assert np.array_equal(sub.ws, full.ws[::10])
    assert np.array_equal(sub.inertia, full.inertia[::10])


def test_record_indices_are_every_stride_th_step_and_the_last():
    """The trajectory loop steps its next target by record[1], so the layout is a contract."""
    for n_steps, stride in itertools.product(range(1, 30), range(1, 35)):
        record = integrators._record_indices(n_steps, stride)
        assert record[-1] == n_steps
        assert np.array_equal(record[:-1], np.arange(0, n_steps, stride))
        assert record[1] == min(stride, n_steps)


def test_record_every_keeps_the_final_sample():
    traj = run("damped_splitting", gamma=0.4, t_end=1.0, record_every=7)
    # 100 steps, stride 7: last stride index is 98, so 100 is appended
    assert traj.times[-1] == pytest.approx(1.0)
    assert len(traj) == len(range(0, 101, 7)) + 1


def test_blowup_raises_with_step_index():
    """667 steps make one block, so the failure falls in the final block."""
    spec = SystemSpec(landscape=ISO1)
    cfg = IntegratorConfig(method="explicit_euler", h=3.0, t_end=2000.0)
    w, v, expected = 1.0, 0.0, None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, cfg.n_steps + 1):  # explicit Euler on L = w^2/2, written out
            w, v = w + cfg.h * v, v - cfg.h * w
            if not (math.isfinite(w) and math.isfinite(v)):
                expected = k
                break
        with pytest.raises(NumericalFailure) as exc:
            integrate(spec, State([1.0], [0.0]), cfg)
    assert cfg.n_steps < 1024 and expected is not None
    assert exc.value.step_index == expected
    assert str(exc.value) == f"non-finite state at step {expected}"


def first_bad_step(spec, cfg, start, member=0):
    """Index of the first non-finite state when stepping one public step at a time."""
    rng = member_rng(cfg.seed, member)
    state = start
    for k in range(1, cfg.n_steps + 1):
        try:
            if spec.deterministic:
                state = step_verlet(state, spec, cfg.h)
            else:
                state = step_stochastic(state, spec, cfg.h, rng)
        except NumericalFailure:  # State refuses non-finite components
            return k
    return None


def check_failure_step(landscape, h, sigma, n):
    """integrate's failure names the step a per-step replay first leaves the finite."""
    spec = (SystemSpec(landscape=landscape) if sigma == 0 else
            SystemSpec(landscape=landscape, gamma=0.1, sigma=sigma, noise_kind="white"))
    method = "verlet" if sigma == 0 else "stochastic_splitting"
    cfg = IntegratorConfig(method=method, h=h, t_end=n * h, seed=3, record_every=7)
    assert cfg.n_steps == n
    start = State(np.ones(landscape.dim), np.zeros(landscape.dim))
    with np.errstate(over="ignore", invalid="ignore"):
        expected = first_bad_step(spec, cfg, start)
        with pytest.raises(NumericalFailure) as exc:
            integrate(spec, start, cfg)
    assert expected is not None and expected % 1024 not in (0, 1)  # mid-block
    assert exc.value.step_index == expected
    assert str(exc.value) == f"non-finite state at step {expected}"
    return expected


@pytest.mark.parametrize("landscape, h, sigma", [
    (ISO1, 2.05, 0.0),              # unstable verlet, fails inside the second block
    (MULTI_D["diag"], 0.7, 0.0),    # only the curvature-9 mode is unstable
    (ISO1, 2.05, 0.3),              # the failure replay must redraw the same noise
    (landscape_from_name("diag:1e6"), 3.0, 0.0),  # 1-D floats overflow within a few steps
])
def test_failure_step_matches_per_step_replay(landscape, h, sigma):
    check_failure_step(landscape, h, sigma, 4000)


@pytest.mark.parametrize("landscape, h, sigma, n", [
    (ISO1, 2.05, 0.0, 2000),
    (MULTI_D["diag"], 0.7, 0.0, 1200),
    (ISO1, 2.05, 0.3, 2000),
    (landscape_from_name("diag:1e6"), 3.0, 0.0, 300),  # a single block
])
def test_failure_in_the_final_block_matches_per_step_replay(landscape, h, sigma, n):
    """The run ends at step n inside the block that fails, and is still replayed."""
    expected = check_failure_step(landscape, h, sigma, n)
    assert expected > (n - 1) // 1024 * 1024


@pytest.mark.parametrize("name, w0, h, n", [
    ("iso1d", [1e200], 0.01, 100),          # the energy overflows at the start
    ("iso1d", [1e150], 2.05, 100),          # unstable: passes 1e154 within a few dozen steps
    ("diag:1,4", [1e200, 0.0], 0.01, 100),
    ("diag:1,4", [1.0, 1e150], 1.05, 60),   # only the curvature-4 mode is unstable
])
def test_energy_overflow_with_a_finite_state_names_its_step(name, w0, h, n):
    """A state can stay finite while 1/2 |v|^2 + L(w) overflows; integrate refuses the run."""
    landscape = landscape_from_name(name)
    spec = SystemSpec(landscape=landscape)
    cfg = IntegratorConfig(method="verlet", h=h, t_end=n * h)
    assert cfg.n_steps == n
    start = State(w0, np.zeros(len(w0)))
    with np.errstate(over="ignore", invalid="ignore"):
        ws, vs, _ = two_gradient_reference(spec, "verlet", h, n, start.w, start.v)
        energies = np.array([0.5 * float(v @ v) + float(landscape.value(w))
                             for w, v in zip(ws, vs)])
        with pytest.raises(NumericalFailure) as exc:
            integrate(spec, start, cfg)
    assert np.all(np.isfinite(ws)) and np.all(np.isfinite(vs))
    expected = int(np.flatnonzero(~np.isfinite(energies))[0])
    assert (expected == 0) == (max(w0) == 1e200)
    assert expected < n
    assert (exc.value.step_index, exc.value.member) == (expected, None)
    assert str(exc.value) == f"energy not finite at step {expected}"


def test_ensemble_failure_names_the_first_bad_member():
    # unstable (h * sqrt(1e6) = 10); from rest the growth is seeded by the
    # noise alone, so members overflow at different steps: with seed 5,
    # member 3 is the first to fail and member 0 fails one step later
    spec = SystemSpec(landscape=landscape_from_name("diag:1e6"), gamma=0.4, sigma=0.3,
                      noise_kind="white")
    cfg = IntegratorConfig(method="stochastic_splitting", h=0.01, t_end=10.0, seed=5)
    start = State([0.0], [0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        firsts = [first_bad_step(spec, cfg, start, member=i) for i in range(200)]
        failures = []
        for run_ensemble in (ensemble_arrays, ensemble_expected_decay):
            with pytest.raises(NumericalFailure) as exc:
                run_ensemble(spec, start, cfg, 200)
            failures.append(exc.value)
    step = min(firsts)
    member = firsts.index(step)
    assert member > 0 and firsts[0] > step
    for failure in failures:
        assert (failure.step_index, failure.member) == (step, member)
        assert str(failure) == f"non-finite state in member {member} at step {step}"


def test_single_run_failure_has_no_member():
    spec = SystemSpec(landscape=ISO1)
    cfg = IntegratorConfig(method="verlet", h=2.05, t_end=2000 * 2.05)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailure) as exc:
            integrate(spec, UNIT_START, cfg)
    assert exc.value.member is None and exc.value.step_index is not None


def test_trajectory_accessors():
    traj = run("verlet", t_end=0.1)
    assert len(traj) == 11
    assert traj.times[3] == pytest.approx(0.03)
    assert traj.times[-1] == pytest.approx(0.1)
    assert np.array_equal(traj.speed_squared, np.sum(traj.vs ** 2, axis=1))


# --- properties ----------------------------------------------------------------

@given(
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.integers(1, 200),
)
@settings(max_examples=25, deadline=None)
def test_verlet_reversibility_property(w0, v0, n):
    spec = SystemSpec(landscape=ISO1)
    h = 0.01
    s = State([w0], [v0])
    for _ in range(n):
        s = step_verlet(s, spec, h)
    s = State(s.w, -s.v)
    for _ in range(n):
        s = step_verlet(s, spec, h)
    assert abs(s.w[0] - w0) <= 1e-10
    assert abs(s.v[0] + v0) <= 1e-10


@given(st.floats(0.0, 1.5), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
@settings(max_examples=40, deadline=None)
def test_damped_step_energy_gain_is_bounded_property(gamma, w0, v0):
    """One splitting step can raise the energy only by the O(h^2) wobble.

    (Per-step monotonicity is false even for verlet; the energy oscillates
    within a band. The band scales with h^2 and the energy itself.)
    """
    h = 0.01
    spec = SystemSpec(landscape=ISO1, gamma=gamma)
    s0 = State([w0], [v0])
    s1 = step_damped_splitting(s0, spec, h)
    e0 = 0.5 * s0.v[0] ** 2 + 0.5 * s0.w[0] ** 2
    e1 = 0.5 * s1.v[0] ** 2 + 0.5 * s1.w[0] ** 2
    assert e1 <= e0 + h ** 2 * max(1.0, e0)
