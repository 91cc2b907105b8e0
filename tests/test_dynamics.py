import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from inertia import (
    InvalidArgument,
    NumericalFailure,
    State,
    SystemSpec,
    inertia,
    inertia_rate_theoretical,
    inertia_rows,
    quadratic_general,
    quadratic_isotropic,
)

ISO1 = quadratic_isotropic(1)
ISO2 = quadratic_isotropic(2)

finite = st.floats(-100.0, 100.0)


def test_state_basics():
    s = State([1.0, 2.0], [0.5, -0.5], t=3.0)
    assert s.dim == 2
    assert s.t == 3.0
    assert_allclose(s.w, [1.0, 2.0])
    assert_allclose(s.v, [0.5, -0.5])


def test_state_arrays_are_read_only():
    s = State([1.0], [0.0])
    with pytest.raises(ValueError):
        s.w[0] = 2.0


def test_state_rejects_mismatched_dims():
    with pytest.raises(InvalidArgument):
        State([1.0, 2.0], [0.0])


def test_state_rejects_nonfinite():
    with pytest.raises(NumericalFailure):
        State([np.nan], [0.0])
    with pytest.raises(NumericalFailure):
        State([0.0], [np.inf])


def test_spec_validation():
    SystemSpec(landscape=ISO1)  # all defaults fine
    with pytest.raises(InvalidArgument):
        SystemSpec(landscape=ISO1, gamma=-0.1)
    with pytest.raises(InvalidArgument):
        SystemSpec(landscape=ISO1, sigma=-1.0)
    # noise_kind "none" forces sigma back to zero
    with pytest.raises(InvalidArgument):
        SystemSpec(landscape=ISO1, sigma=0.3, noise_kind="none")
    with pytest.raises(InvalidArgument):
        SystemSpec(landscape=ISO1, sigma=0.3, noise_kind="pink")
    # correlated noise needs a positive correlation time
    with pytest.raises(InvalidArgument):
        SystemSpec(landscape=ISO1, sigma=0.3, noise_kind="ou")
    with pytest.raises(InvalidArgument):
        SystemSpec(landscape=ISO1, sigma=0.3, noise_kind="ou", tau=0.0)
    with pytest.raises(InvalidArgument):
        SystemSpec(landscape=ISO1, sigma=0.3, noise_kind="white", tau=0.5)
    # every parameter must be finite; a NaN fails each check
    for x in (float("nan"), float("inf")):
        for kwargs in (dict(gamma=x), dict(sigma=x, noise_kind="white"),
                       dict(sigma=0.3, noise_kind="ou", tau=x)):
            with pytest.raises(InvalidArgument):
                SystemSpec(landscape=ISO1, **kwargs)


def test_spec_allows_degenerate_noise():
    # sigma = 0 with a stochastic kind is the degenerate limit used to
    # cross-check the noisy code path against the deterministic one.
    spec = SystemSpec(landscape=ISO1, gamma=0.4, sigma=0.0, noise_kind="white")
    assert not spec.deterministic
    assert SystemSpec(landscape=ISO1, gamma=0.4).deterministic


def test_inertia_examples():
    assert inertia(State([1.0], [0.0]), ISO1) == 0.5
    assert inertia(State([0.0], [0.0]), ISO1) == 0.0
    assert inertia(State([1.0, 0.0], [0.0, 1.0]), ISO2) == 1.0
    # diag(1, 4) at w = (1, 1), v = (1, 0): 0.5 + 2.5
    ls = quadratic_general([[1.0, 0.0], [0.0, 4.0]])
    assert inertia(State([1.0, 1.0], [1.0, 0.0]), ls) == 3.0


@pytest.mark.parametrize("dim", [1, 3, 40])
def test_inertia_rows_match_single_states(dim):
    """Bit for bit, across several chunks (40 dims give 819 rows per chunk)."""
    rng = np.random.default_rng(dim)
    m = rng.standard_normal((dim, dim))
    ls = quadratic_general(0.5 * (m.T @ m + (m.T @ m).T))
    ws, vs = rng.standard_normal((2000, dim)), rng.standard_normal((2000, dim))
    expected = [inertia(State(w, v), ls) for w, v in zip(ws, vs)]
    assert np.array_equal(inertia_rows(ws, vs, ls), expected)


def test_inertia_dimension_mismatch():
    with pytest.raises(InvalidArgument):
        inertia(State([1.0], [0.0]), ISO2)


def test_theoretical_rate():
    spec = SystemSpec(landscape=ISO1, gamma=0.4)
    # dI/dt = -gamma * ||v||^2
    assert inertia_rate_theoretical(State([1.0], [3.0]), spec) == -3.6
    cons = SystemSpec(landscape=ISO1)
    assert inertia_rate_theoretical(State([1.0], [3.0]), cons) == 0.0


def test_theoretical_rate_rejects_noisy_spec():
    spec = SystemSpec(landscape=ISO1, gamma=0.4, sigma=0.3, noise_kind="white")
    with pytest.raises(InvalidArgument):
        inertia_rate_theoretical(State([1.0], [0.0]), spec)


@given(finite, finite)
def test_inertia_sign_symmetry(w, v):
    """I(w, v) = I(-w, -v) for any quadratic landscape."""
    a = inertia(State([w], [v]), ISO1)
    b = inertia(State([-w], [-v]), ISO1)
    assert a == b


@given(finite, finite)
def test_inertia_lower_bound(w, v):
    assert inertia(State([w], [v]), ISO1) >= 0.0
