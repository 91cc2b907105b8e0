import math
import mmap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from inertia import (
    IntegratorConfig,
    InvalidArgument,
    NumericalFailure,
    State,
    SystemSpec,
    Trajectory,
    closed_form_underdamped,
    damped_period,
    ensemble_expected_decay,
    fit_decay_rate,
    integrate,
    landscape_from_name,
    quadratic_general,
    quadratic_isotropic,
    sweep_gamma,
)
from inertia import integrators
from inertia.integrators import _GROUP_FLOATS

from ensemble_arrays import ensemble_arrays, spy_on_fork

ISO1 = quadratic_isotropic(1)


def damped_run(gamma, h=0.01, t_end=10.0, w0=1.0, v0=0.0):
    spec = SystemSpec(landscape=ISO1, gamma=gamma)
    method = "verlet" if gamma == 0 else "damped_splitting"
    cfg = IntegratorConfig(method=method, h=h, t_end=t_end)
    return integrate(spec, State([w0], [v0]), cfg)


# --- closed form ---------------------------------------------------------------

def test_frictionless_solution_is_cosine():
    sol = closed_form_underdamped(0.0, 1.0, 0.0)
    assert sol.omega == 1.0
    t = np.linspace(0.0, 10.0, 101)
    assert_allclose(sol.position(t), np.cos(t), atol=1e-15)
    assert abs(sol.position(math.pi) + 1.0) <= 1e-12
    assert abs(sol.velocity(math.pi)) <= 1e-12


def test_damped_solution_coefficients():
    sol = closed_form_underdamped(0.4, 1.0, 0.0)
    assert sol.A == 1.0
    assert sol.omega == pytest.approx(0.9797958971132712, abs=1e-15)
    assert sol.B == pytest.approx(0.20412414523193154, abs=1e-15)
    # spot values at t = 10
    assert sol.position(10.0) == pytest.approx(-0.1360920475956015, abs=1e-12)
    assert sol.velocity(10.0) == pytest.approx(0.05035788416141193, abs=1e-12)


def test_solution_matches_initial_conditions():
    sol = closed_form_underdamped(0.7, -2.0, 1.5)
    w, v = sol.evaluate(0.0)
    assert w == pytest.approx(-2.0, abs=1e-14)
    assert v == pytest.approx(1.5, abs=1e-14)


def test_closed_form_rejects_out_of_range_gamma():
    for gamma in (-0.1, 2.0, 2.5):
        with pytest.raises(InvalidArgument):
            closed_form_underdamped(gamma, 1.0, 0.0)
        with pytest.raises(InvalidArgument):
            damped_period(gamma)


def test_residual_of_the_motion_equation_is_tiny():
    """d2w/dt2 + gamma dw/dt + w should vanish along the solution."""
    sol = closed_form_underdamped(0.4, 1.0, 0.0)
    t = np.linspace(0.0, 10.0, 1000)
    residual = sol.acceleration(t) + 0.4 * sol.velocity(t) + sol.position(t)
    assert np.max(np.abs(residual)) <= 1e-9


@given(st.floats(0.0, 1.99), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
@settings(max_examples=50)
def test_frequency_identity_property(gamma, w0, v0):
    sol = closed_form_underdamped(gamma, w0, v0)
    assert sol.omega ** 2 + gamma ** 2 / 4.0 == pytest.approx(1.0, abs=1e-14)
    # and the ICs always round-trip
    assert sol.position(0.0) == pytest.approx(w0, abs=1e-12)
    assert sol.velocity(0.0) == pytest.approx(v0, abs=max(1e-12, 1e-12 * abs(v0)))


@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
@settings(max_examples=30)
def test_frictionless_energy_is_constant_property(w0, v0):
    sol = closed_form_underdamped(0.0, w0, v0)
    t = np.linspace(0.0, 20.0, 200)
    e = sol.inertia(t)
    e0 = 0.5 * (w0 * w0 + v0 * v0)
    assert np.max(np.abs(e - e0)) <= 1e-13 * max(1.0, e0)


# --- decay-rate fitting -----------------------------------------------------------

def synthetic_trajectory(times, energies):
    """Wrap plain arrays so the fitter can consume them."""
    n = len(times)
    spec = SystemSpec(landscape=ISO1, gamma=0.4)
    cfg = IntegratorConfig(method="damped_splitting", h=times[1] - times[0], t_end=times[-1])
    zeros = np.zeros((n, 1))
    return Trajectory(np.asarray(times), zeros, zeros, np.asarray(energies), spec, cfg)


def test_fit_recovers_exact_exponential():
    t = np.linspace(0.0, 10.0, 1001)
    traj = synthetic_trajectory(t, 0.5 * np.exp(-0.4 * t))
    fit = fit_decay_rate(traj, (0.0, 10.0))
    assert fit.gamma_hat == pytest.approx(0.4, abs=1e-10)
    assert fit.r_squared >= 1.0 - 1e-12
    assert fit.n_points == 1001


def test_fit_window_is_respected():
    t = np.linspace(0.0, 10.0, 1001)
    traj = synthetic_trajectory(t, 0.5 * np.exp(-0.4 * t))
    fit = fit_decay_rate(traj, (2.0, 6.0))
    assert fit.window[0] == pytest.approx(2.0)
    assert fit.window[1] == pytest.approx(6.0)
    assert fit.n_points == 401


def test_fit_rejects_bad_windows():
    t = np.linspace(0.0, 10.0, 1001)
    traj = synthetic_trajectory(t, 0.5 * np.exp(-0.4 * t))
    with pytest.raises(InvalidArgument):
        fit_decay_rate(traj, (6.0, 2.0))
    with pytest.raises(InvalidArgument):
        fit_decay_rate(traj, (0.0, 50.0))
    with pytest.raises(InvalidArgument):
        fit_decay_rate(traj, (0.0, 0.05))  # fewer than 10 samples


def test_fit_rejects_nonpositive_energy():
    t = np.linspace(0.0, 10.0, 101)
    e = 0.5 * np.exp(-0.4 * t)
    e[50] = 0.0
    with pytest.raises(InvalidArgument):
        fit_decay_rate(synthetic_trajectory(t, e), (0.0, 10.0))


def test_fit_on_conservative_run_gives_zero_rate():
    traj = damped_run(0.0, t_end=5 * damped_period(0.0))
    fit = fit_decay_rate(traj, (0.0, traj.times[-1]))
    assert abs(fit.gamma_hat) <= 1e-4


def test_fit_on_damped_run_near_true_rate():
    # integer number of periods, raw (unsmoothed) fit
    period = damped_period(0.4)
    traj = damped_run(0.4, t_end=5 * period)
    fit = fit_decay_rate(traj, (0.0, traj.times[-1]))
    assert 0.38 <= fit.gamma_hat <= 0.42


def test_period_averaging_removes_the_wobble():
    period = damped_period(0.4)
    traj = damped_run(0.4, t_end=5 * period)
    raw = fit_decay_rate(traj, (0.0, traj.times[-1]))
    smooth = fit_decay_rate(traj, (0.0, traj.times[-1]), smooth_period=period)
    assert smooth.r_squared >= 0.999
    assert smooth.r_squared > raw.r_squared
    assert smooth.gamma_hat == pytest.approx(0.4, abs=1e-4)
    # smoothing trims half a period at each end
    assert smooth.n_points < raw.n_points


def test_smoothing_window_must_fit():
    t = np.linspace(0.0, 1.0, 101)
    traj = synthetic_trajectory(t, 0.5 * np.exp(-0.4 * t))
    with pytest.raises(InvalidArgument):
        fit_decay_rate(traj, (0.0, 1.0), smooth_period=5.0)
    with pytest.raises(InvalidArgument, match="smooth_period must be positive"):
        fit_decay_rate(traj, (0.0, 1.0), smooth_period=0.0)


def test_smoothing_refuses_the_short_final_interval():
    # 1000 steps recorded every 7th: the last interval is 6 steps, not 7
    spec = SystemSpec(landscape=ISO1, gamma=0.4)
    cfg = IntegratorConfig(method="damped_splitting", h=0.01, t_end=10.0, record_every=7)
    traj = integrate(spec, State([1.0], [0.0]), cfg)
    period = damped_period(0.4)
    with pytest.raises(InvalidArgument, match="evenly spaced"):
        fit_decay_rate(traj, (0.0, traj.times[-1]), smooth_period=period)
    # a window that stops before the short interval is evenly spaced
    fit = fit_decay_rate(traj, (0.0, traj.times[-2]), smooth_period=period)
    assert fit.gamma_hat == pytest.approx(0.4, abs=0.01)
    # without smoothing the uneven grid is fine for least squares
    fit_decay_rate(traj, (0.0, traj.times[-1]))


def test_smoothing_refuses_a_window_of_fewer_than_two_samples():
    traj = damped_run(0.4)
    period = damped_period(0.4)
    for window in [(0.0, 0.005), (0.001, 0.009)]:  # one sample, then none
        with pytest.raises(InvalidArgument, match="at least 2 samples"):
            fit_decay_rate(traj, window, smooth_period=period)


# --- gamma sweep ----------------------------------------------------------------

def test_sweep_recovers_each_rate():
    entries = sweep_gamma([0.1, 0.2, 0.4, 0.8])
    assert [e.gamma for e in entries] == [0.1, 0.2, 0.4, 0.8]
    for e in entries:
        assert e.error is None
        assert abs(e.gamma_hat - e.gamma) / e.gamma <= 0.05
    hats = [e.gamma_hat for e in entries]
    assert hats == sorted(hats)  # monotone in gamma


def test_sweep_handles_gamma_zero():
    (entry,) = sweep_gamma([0.0])
    assert entry.error is None
    assert abs(entry.gamma_hat) <= 1e-4


def test_sweep_captures_per_entry_failures():
    entries = sweep_gamma([0.4, 2.5])
    assert entries[0].error is None
    assert entries[1].gamma_hat is None
    assert "2.5" in entries[1].error


def test_sweep_sorts_input():
    entries = sweep_gamma([0.8, 0.1])
    assert [e.gamma for e in entries] == [0.1, 0.8]


# --- ensemble balance --------------------------------------------------------------

def white_spec(sigma=0.3):
    return SystemSpec(landscape=ISO1, gamma=0.4, sigma=sigma, noise_kind="white")


def test_ensemble_argument_validation():
    cfg = IntegratorConfig(method="stochastic_splitting", h=0.01, t_end=2.0, seed=0)
    with pytest.raises(InvalidArgument):
        ensemble_expected_decay(white_spec(), State([1.0], [0.0]), cfg, 50)
    with pytest.raises(InvalidArgument):
        ensemble_expected_decay(SystemSpec(landscape=ISO1, gamma=0.4), State([1.0], [0.0]),
                                IntegratorConfig(method="damped_splitting", h=0.01, t_end=2.0), 100)
    coarse = IntegratorConfig(method="stochastic_splitting", h=0.01, t_end=2.0, record_every=5)
    with pytest.raises(InvalidArgument):
        ensemble_expected_decay(white_spec(), State([1.0], [0.0]), coarse, 100)
    with pytest.raises(InvalidArgument):
        ensemble_expected_decay(white_spec(), State([1.0], [0.0]), cfg, 100, burn_in=2.0)
    # 200 steps: a burn-in to step 195 leaves the interior samples 195..199, fewer than 10
    with pytest.raises(InvalidArgument, match="too few samples"):
        ensemble_expected_decay(white_spec(), State([1.0], [0.0]), cfg, 100, burn_in=1.95)


def test_degenerate_ensemble_collapses_to_deterministic():
    """sigma = 0: every member is the damped run, so scatter is exactly zero."""
    cfg = IntegratorConfig(method="stochastic_splitting", h=0.01, t_end=5.0, seed=0)
    res = ensemble_expected_decay(white_spec(sigma=0.0), State([1.0], [0.0]), cfg, 100)
    assert res.n_members == 100
    assert np.all(res.inertia.stderr_series == 0.0)
    assert res.balance_stderr == 0.0
    # averaging 100 identical rows can round in the last ulp, so not bitwise
    traj = damped_run(0.4, t_end=5.0)
    assert_allclose(res.inertia.mean_series, traj.inertia, rtol=1e-14, atol=0.0)


def test_degenerate_ensemble_satisfies_decay_identity():
    cfg = IntegratorConfig(method="stochastic_splitting", h=0.01, t_end=5.0, seed=0)
    res = ensemble_expected_decay(white_spec(sigma=0.0), State([1.0], [0.0]), cfg, 100)
    interior = slice(1, -1)
    gap = res.inertia_rate.mean_series[interior] + 0.4 * res.speed_squared.mean_series[interior]
    assert np.max(np.abs(gap)) <= 1e-4  # centered-difference O(h^2)


def test_white_noise_balance_within_three_standard_errors():
    cfg = IntegratorConfig(method="stochastic_splitting", h=0.01, t_end=5.0, seed=0)
    res = ensemble_expected_decay(white_spec(), State([1.0], [0.0]), cfg, 200)
    assert abs(res.balance_residual) <= 3.0 * res.balance_stderr


def test_correlated_noise_balance_needs_the_work_term():
    """With the <eta, v> term the budget closes; without it, it fails loudly."""
    spec = SystemSpec(landscape=ISO1, gamma=0.4, sigma=0.3, noise_kind="ou", tau=0.5)
    cfg = IntegratorConfig(method="stochastic_splitting", h=0.01, t_end=20.0, seed=0)
    res = ensemble_expected_decay(spec, State([1.0], [0.0]), cfg, 200, burn_in=10.0)
    assert abs(res.balance_residual) <= 3.0 * res.balance_stderr

    # drop the work term: the residual should sit far outside the noise band
    sl = (res.times >= 10.0) & (res.times < res.times[-1])
    broken = float(np.mean(res.inertia_rate.mean_series[sl])
                   + 0.4 * np.mean(res.speed_squared.mean_series[sl]))
    assert abs(broken) > 30.0 * (3.0 * res.balance_stderr)


def test_overflowing_statistics_raise_instead_of_writing_inf():
    """Members still finite, but their spread overflows the variance at step 128."""
    spec = SystemSpec(landscape=ISO1, gamma=0.0, sigma=0.3, noise_kind="white")
    cfg = IntegratorConfig(method="stochastic_splitting", h=2.5, t_end=500.0, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailure) as exc:
            ensemble_expected_decay(spec, State([1.0], [0.0]), cfg, 100)
    assert (exc.value.step_index, exc.value.member) == (128, None)
    assert str(exc.value) == "ensemble statistics not finite at step 128"


def test_ensemble_is_deterministic():
    cfg = IntegratorConfig(method="stochastic_splitting", h=0.01, t_end=2.0, seed=9)
    a = ensemble_expected_decay(white_spec(), State([1.0], [0.0]), cfg, 100)
    b = ensemble_expected_decay(white_spec(), State([1.0], [0.0]), cfg, 100)
    assert a.balance_residual == b.balance_residual
    assert np.array_equal(a.inertia.mean_series, b.inertia.mean_series)


def coupled5():
    m = np.random.default_rng(5).standard_normal((5, 5))
    b = m.T @ m / 5 + 0.1 * np.eye(5)
    return quadratic_general(0.5 * (b + b.T))


ENSEMBLE_LANDSCAPES = {
    "iso1d": ISO1,
    "diag": landscape_from_name("diag:1,4,9"),
    "coupled5": coupled5(),
}


def centred_rate(energy, dt):
    """d/dt along axis 1: centred inside, one-sided O(h^2) at both ends."""
    rate = np.empty_like(energy)
    rate[:, 1:-1] = (energy[:, 2:] - energy[:, :-2]) / (2.0 * dt)
    rate[:, 0] = (-3.0 * energy[:, 0] + 4.0 * energy[:, 1] - energy[:, 2]) / (2.0 * dt)
    rate[:, -1] = (3.0 * energy[:, -1] - 4.0 * energy[:, -2] + energy[:, -3]) / (2.0 * dt)
    return rate


def column_stats(values):
    """Mean and standard error of each column; exactly 0 where all members agree."""
    stderr = values.std(axis=0, ddof=1) / math.sqrt(values.shape[0])
    stderr[values.max(axis=0) == values.min(axis=0)] = 0.0
    return values.mean(axis=0), stderr


def full_array_reduction(spec, start, cfg, n_members, burn_in):
    """The ensemble reduction over whole (n_members, n_samples) arrays."""
    series = ensemble_arrays(spec, start, cfg, n_members)
    times, energy = series["times"], series["inertia"]
    rate = centred_rate(energy, cfg.h)
    sl = slice(max(int(np.searchsorted(times, burn_in - 1e-9)), 1), times.shape[0] - 1)
    residual = rate[:, sl].mean(axis=1) + spec.gamma * series["speed_squared"][:, sl].mean(axis=1)
    if spec.noise_kind == "white":
        residual -= 0.5 * spec.sigma ** 2 * start.dim
    else:
        residual -= series["noise_dot_v"][:, sl].mean(axis=1)
    return {
        "times": times,
        "inertia": column_stats(energy),
        "inertia_rate": column_stats(rate),
        "speed_squared": column_stats(series["speed_squared"]),
        "noise_dot_v": series["noise_dot_v"].mean(axis=0) if "noise_dot_v" in series else None,
        "residual": float(residual.mean()),
        "stderr": float(residual.std(ddof=1) / math.sqrt(n_members)),
    }


def check_streamed_reduction(name, noise, tau, n_steps, burn_in, n_members=100):
    """Series bit for bit; the balance up to the order of its time sums."""
    landscape = ENSEMBLE_LANDSCAPES[name]
    spec = SystemSpec(landscape=landscape, gamma=0.4, sigma=0.3, noise_kind=noise, tau=tau)
    cfg = IntegratorConfig(method="stochastic_splitting", h=0.01, t_end=n_steps * 0.01, seed=4)
    assert cfg.n_steps == n_steps
    start = State(np.linspace(1.0, 0.2, landscape.dim), np.full(landscape.dim, 0.1))
    res = ensemble_expected_decay(spec, start, cfg, n_members, burn_in=burn_in)
    ref = full_array_reduction(spec, start, cfg, n_members, burn_in)

    assert np.array_equal(res.times, ref["times"])
    for q in ("inertia", "inertia_rate", "speed_squared"):
        got, (mean, stderr) = getattr(res, q), ref[q]
        assert np.array_equal(got.mean_series, mean), q
        assert np.array_equal(got.stderr_series, stderr), q
    if noise == "ou":
        assert np.array_equal(res.mean_noise_dot_v, ref["noise_dot_v"])
    else:
        assert res.mean_noise_dot_v is None
    assert res.balance_residual == pytest.approx(ref["residual"], rel=0, abs=1e-14)
    assert res.balance_stderr == pytest.approx(ref["stderr"], rel=1e-9)


RUN_CASES = [
    (11, 0.0),     # the shortest run the balance accepts: one group, longer than the run
    (128, 0.0),
    (128, 0.37),
    (129, 0.5),
    (212, 0.0),
    (212, 1.5),
]


@pytest.mark.parametrize("n_steps, burn_in", RUN_CASES)
@pytest.mark.parametrize("noise, tau", [("white", None), ("ou", 0.5)])
@pytest.mark.parametrize("name", list(ENSEMBLE_LANDSCAPES))
def test_streamed_reduction_equals_the_full_array_reduction(name, noise, tau, n_steps, burn_in):
    check_streamed_reduction(name, noise, tau, n_steps, burn_in)


def group_size(noise, n_members):
    """Samples per reduction group: the float budget over the rows of one sample."""
    rows = 4 if noise == "ou" else 3
    return _GROUP_FLOATS // (rows * n_members)


@pytest.mark.parametrize("residue", [0, 1, 2])
@pytest.mark.parametrize("noise, tau", [("white", None), ("ou", 0.5)])
@pytest.mark.parametrize("name", ["iso1d", "coupled5"])
def test_streamed_reduction_at_group_boundaries(name, noise, tau, residue):
    """Runs of 2 * size + residue samples: full groups, then a tail of 0, 1 or 2."""
    size = group_size(noise, 100)
    assert 1 < size < 250  # two full groups still make a short run
    n_samples = 2 * size + residue
    check_streamed_reduction(name, noise, tau, n_samples - 1, burn_in=0.5)


@pytest.mark.parametrize("noise, tau", [("white", None), ("ou", 0.5)])
@pytest.mark.parametrize("name", ["iso1d", "coupled5"])
def test_streamed_reduction_in_groups_of_one_sample(name, noise, tau):
    """At 6000 members the budget holds a single sample: every sample is its own group."""
    assert group_size(noise, 6000) == 1
    check_streamed_reduction(name, noise, tau, 11, burn_in=0.0, n_members=6000)


def test_ensemble_memory_does_not_grow_with_the_horizon(monkeypatch):
    """From T = 5 to T = 40 the traced peak grows by the longer result series only.

    The noise slots are an anonymous shared mapping, which tracemalloc does
    not see, so their size is checked on its own: the same at both horizons.
    The result holds seven series of one float per sample (times, and the
    mean and standard error of three quantities); the run also holds the
    recorded step indices as one array. The growth measured 1.14 times the
    bytes of the seven extra series; a Python list of those indices, about
    40 B more per sample, took it to 1.86.
    """
    n_members, h = 2000, 0.01
    mappings, real_mmap = [], mmap.mmap

    def recording_mmap(*args, **kwargs):
        mapping = real_mmap(*args, **kwargs)
        mappings.append(len(mapping))
        return mapping
    monkeypatch.setattr(mmap, "mmap", recording_mmap)
    spy_on_fork(monkeypatch)
    peaks, sizes = {}, {}
    for t_end in (5.0, 5.0, 40.0):  # the first run warms caches; the second's peak is kept
        cfg = IntegratorConfig(method="stochastic_splitting", h=h, t_end=t_end, seed=1)
        mappings.clear()
        tracemalloc.start()
        try:
            ensemble_expected_decay(white_spec(), State([1.0], [0.0]), cfg, n_members)
            peaks[t_end] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sizes[t_end] = list(mappings)
    assert len(sizes[5.0]) == 1  # both horizons take several refills, so both fork
    assert sizes[5.0] == sizes[40.0]
    assert sizes[40.0][0] <= integrators._NOISE_FLOATS * 8
    extra_series = 7 * (round(40.0 / h) - round(5.0 / h)) * 8
    assert peaks[40.0] - peaks[5.0] <= 1.5 * extra_series
    one_series = n_members * (round(40.0 / h) + 1) * 8  # one (members, samples) float array
    assert peaks[40.0] < one_series
