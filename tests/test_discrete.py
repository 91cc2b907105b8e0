import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from inertia import (
    InvalidArgument,
    NumericalFailure,
    State,
    discrete_trajectory,
    drift_profile,
    inertia,
    landscape_from_name,
    momentum_step,
    quadratic_general,
    quadratic_isotropic,
)

ISO1 = quadratic_isotropic(1)


def coupled5():
    m = np.random.default_rng(5).standard_normal((5, 5))
    b = m.T @ m / 5 + 0.1 * np.eye(5)
    return quadratic_general(0.5 * (b + b.T))


def replay(w0, v0, eta, n, landscape):
    """States 0..n of the map and their energies, or up to the first non-finite energy.

    Written out here, apart from the package's step code: the velocity
    update takes ``landscape.gradient`` and the position drifts with the new
    velocity. Returns ``(ws, vs, energies, failed)``, ``failed`` being the
    first step whose energy is not finite, or None.
    """
    w, v = np.array(w0, dtype=float), np.array(v0, dtype=float)
    ws, vs, energies = [], [], []
    for k in range(n + 1):
        if k > 0:
            v = v - eta * landscape.gradient(w)
            w = w + eta * v
        ws.append(w)
        vs.append(v)
        energies.append(0.5 * float(v @ v) + float(landscape.value(w)))
        if not np.isfinite(energies[-1]):
            return np.array(ws), np.array(vs), np.array(energies), k
    return np.array(ws), np.array(vs), np.array(energies), None


def test_single_step_worked_example():
    out = momentum_step(State([1.0], [0.0]), 0.1, ISO1)
    assert_allclose(out.v, [-0.1], rtol=1e-15)
    assert_allclose(out.w, [0.99], rtol=1e-15)
    assert out.t == 0.1  # eta plays the time step
    assert momentum_step(State([1.0], [0.0], t=2.5), 0.1, ISO1).t == 2.5 + 0.1


def test_small_step_example():
    out = momentum_step(State([1.0], [0.0]), 0.01, ISO1)
    assert_allclose(out.v, [-0.01], rtol=1e-15)
    assert_allclose(out.w, [0.9999], rtol=1e-15)


def test_minimum_is_a_fixed_point():
    out = momentum_step(State([0.0], [0.0]), 0.1, ISO1)
    assert np.array_equal(out.w, [0.0])
    assert np.array_equal(out.v, [0.0])


def test_energy_values():
    assert inertia(State([1.0], [0.0]), ISO1) == 0.5
    assert inertia(State([0.0], [0.0]), ISO1) == 0.0
    after = momentum_step(State([1.0], [0.0]), 0.1, ISO1)
    assert inertia(after, ISO1) == pytest.approx(0.49505, abs=1e-10)


@given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
def test_energy_matches_continuous_functional(w, v):
    """The map's energy series is the continuous-time inertia of each state."""
    ws, vs, energy = discrete_trajectory([w], [v], 0.1, 1, ISO1)
    for k in range(2):
        assert energy[k] == inertia(State(ws[k], vs[k]), ISO1)


def test_argument_validation():
    with pytest.raises(InvalidArgument):
        momentum_step(State([1.0], [0.0]), 0.0, ISO1)
    with pytest.raises(InvalidArgument):
        momentum_step(State([1.0, 2.0], [0.0, 0.0]), 0.1, ISO1)
    with pytest.raises(InvalidArgument):
        discrete_trajectory([1.0, 2.0], [0.0], 0.1, 10, ISO1)  # the start is a State
    with pytest.raises(InvalidArgument):
        drift_profile([1.0], [0.0], 0.01, 0, ISO1)
    with pytest.raises(InvalidArgument, match=r"limit 1e8"):  # refused before any allocation
        discrete_trajectory([1.0], [0.0], 1e-300, 10**301, ISO1)
    for eta in (float("nan"), float("inf")):  # the step size must be finite too
        with pytest.raises(InvalidArgument):
            momentum_step(State([1.0], [0.0]), eta, ISO1)
        with pytest.raises(InvalidArgument):
            discrete_trajectory([1.0], [0.0], eta, 10, ISO1)


def test_drift_small_step_stays_within_one_percent():
    series, max_drift = drift_profile([1.0], [0.0], 0.01, 1000, ISO1)
    assert series.shape == (1001,)
    assert max_drift / series[0] <= 0.01


def test_drift_at_minimum_is_zero():
    _, max_drift = drift_profile([0.0], [0.0], 0.01, 100, ISO1)
    assert max_drift == 0.0


def test_drift_halves_quadratically_with_eta():
    # Fixed horizon 10: eta and eta/2 with matching step counts.
    _, d1 = drift_profile([1.0], [0.0], 0.01, 1000, ISO1)
    _, d2 = drift_profile([1.0], [0.0], 0.005, 2000, ISO1)
    assert 1.5 <= d1 / d2 <= 4.5


@pytest.mark.parametrize("eta", [0.005, 0.01, 0.02, 0.1, 0.5])
def test_transition_determinant_is_exactly_one(eta):
    """Probe the linear map with basis vectors; det must be 1.0 exactly.

    On the unit quadratic the update is linear:
        (w, v) -> ((1 - eta^2) w + eta v, -eta w + v)
    """
    e_w = momentum_step(State([1.0], [0.0]), eta, ISO1)
    e_v = momentum_step(State([0.0], [1.0]), eta, ISO1)
    det = e_w.w[0] * e_v.v[0] - e_v.w[0] * e_w.v[0]
    assert det == 1.0


def test_stable_step_size_stays_bounded():
    # eta just under the threshold 2: wild oscillation, but no growth.
    series, _ = drift_profile([1.0], [0.0], 1.9, 100_000, ISO1)
    assert float(series.max()) <= 10.0 + 1e-9


def test_unstable_step_size_blows_up():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailure) as exc:
            drift_profile([1.0], [0.0], 2.1, 2000, ISO1)
    assert exc.value.step_index > 0


@pytest.mark.parametrize("landscape", [ISO1, landscape_from_name("iso2d"),
                                       landscape_from_name("diag:1,4,9"), coupled5()])
def test_trajectory_matches_repeated_steps(landscape):
    dim = landscape.dim
    w0, v0 = np.linspace(1.0, -0.5, dim), np.linspace(0.0, 0.3, dim)
    ws, vs, energy = discrete_trajectory(w0, v0, 0.05, 300, landscape)
    ref_ws, ref_vs, energies, failed = replay(w0, v0, 0.05, 300, landscape)
    assert failed is None
    assert np.array_equal(ws, ref_ws)
    assert np.array_equal(vs, ref_vs)
    assert np.array_equal(energy, energies)
    # the single step chains to the same states, and t advances by eta per step
    s, t = State(w0, v0), 0.0
    for k in range(1, 301):
        s, t = momentum_step(s, 0.05, landscape), t + 0.05
        assert np.array_equal(s.w, ref_ws[k]) and np.array_equal(s.v, ref_vs[k])
        assert inertia(s, landscape) == energies[k]
        assert s.t == t


def test_the_map_takes_one_gradient_per_step_plus_one(monkeypatch):
    """The step carries the gradient at its new position to the next step."""
    landscape, calls = coupled5(), []
    grad = landscape.raw_gradient()

    def counting(w):
        calls.append(1)
        return grad(w)
    monkeypatch.setattr(landscape, "raw_gradient", lambda: counting)
    discrete_trajectory(np.ones(5), np.zeros(5), 0.05, 300, landscape)
    assert len(calls) == 301


@pytest.mark.parametrize("v0", [0.7, -0.0])
def test_1d_trajectory_keeps_the_bits_of_the_array_steps_from_minus_zero(v0):
    """The 1-D map steps floats; from w0 = -0.0 it keeps every bit, signed zeros included."""
    ws, vs, energy = discrete_trajectory([-0.0], [v0], 0.05, 300, ISO1)
    ref_ws, ref_vs, energies, failed = replay([-0.0], [v0], 0.05, 300, ISO1)
    assert failed is None
    for got, expected in ((ws, ref_ws), (vs, ref_vs), (energy, energies)):
        assert got.dtype == np.float64 and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
    if v0 != 0:
        assert ws.min() < 0 < ws.max()


@pytest.mark.parametrize("eta, landscape", [
    (2.02, ISO1),                             # energy overflows inside the second block
    (0.7, landscape_from_name("diag:1,4,9")),  # only the curvature-9 mode is unstable
])
def test_failure_step_matches_per_step_replay(eta, landscape):
    w0, v0 = np.ones(landscape.dim), np.zeros(landscape.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = replay(w0, v0, eta, 4000, landscape)[3]
        with pytest.raises(NumericalFailure) as exc:
            drift_profile(w0, v0, eta, 4000, landscape)
    assert expected is not None and expected % 1024 not in (0, 1)  # mid-block
    assert exc.value.step_index == expected
    assert str(exc.value) == f"energy not finite at step {expected}"


def test_profile_matches_repeated_steps():
    series, _ = drift_profile([1.0], [0.5], 0.1, 20, ISO1)
    s = State([1.0], [0.5])
    for k in range(1, 21):
        s = momentum_step(s, 0.1, ISO1)
        assert series[k] == inertia(s, ISO1)
