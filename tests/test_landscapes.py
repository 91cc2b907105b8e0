import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

import inertia
from inertia import (
    InvalidArgument,
    NumericalFailure,
    QuadraticLandscape,
    landscape_from_name,
    quadratic_general,
    quadratic_isotropic,
)

from gradients import check_gradient
from inertia.landscapes import _coordinate_sum


def test_isotropic_values_1d():
    ls = quadratic_isotropic(1)
    assert ls.dim == 1
    assert ls.value(np.array([1.0])) == 0.5
    assert_allclose(ls.gradient(np.array([1.0])), [1.0])


def test_isotropic_values_2d():
    ls = quadratic_isotropic(2)
    assert ls.value(np.array([0.0, 0.0])) == 0.0
    assert ls.value(np.array([3.0, 4.0])) == 12.5
    assert_allclose(ls.gradient(np.array([3.0, 4.0])), [3.0, 4.0])


def test_general_diagonal():
    ls = quadratic_general([[1.0, 0.0], [0.0, 4.0]])
    assert ls.value(np.array([1.0, 1.0])) == 2.5
    assert_allclose(ls.gradient(np.array([1.0, 1.0])), [1.0, 4.0])


def test_general_single_entry():
    ls = quadratic_general([[2.0]])
    assert ls.value(np.array([2.0])) == 4.0
    assert_allclose(ls.gradient(np.array([2.0])), [4.0])


def test_isotropic_matches_identity_matrix():
    # Same arithmetic path, so agreement should be exact, not approximate.
    iso = quadratic_isotropic(3)
    gen = quadratic_general(np.eye(3))
    rng = np.random.default_rng(7)
    for _ in range(20):
        w = rng.uniform(-5.0, 5.0, size=3)
        assert iso.value(w) == gen.value(w)
        assert np.array_equal(iso.gradient(w), gen.gradient(w))


def test_flat_landscape_is_allowed():
    ls = quadratic_general([[0.0]])
    assert ls.value(np.array([3.0])) == 0.0
    assert_allclose(ls.gradient(np.array([3.0])), [0.0])


def test_rejects_zero_dimension():
    with pytest.raises(InvalidArgument):
        quadratic_isotropic(0)


def test_rejects_asymmetric_matrix():
    with pytest.raises(InvalidArgument):
        quadratic_general([[1.0, 0.5], [0.25, 1.0]])


@pytest.mark.parametrize("entry", [float("inf"), float("nan")])
def test_rejects_non_finite_matrix(entry):
    with pytest.raises(InvalidArgument, match="finite"):
        quadratic_general([[1.0, 0.0], [0.0, entry]])


def test_rejects_indefinite_matrix():
    with pytest.raises(InvalidArgument):
        quadratic_general([[1.0, 0.0], [0.0, -0.5]])


def test_rejects_nonsquare_matrix():
    with pytest.raises(InvalidArgument):
        quadratic_general([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_rejects_an_empty_matrix():
    with pytest.raises(InvalidArgument, match="non-empty"):
        quadratic_general(np.zeros((0, 0)))


def test_matrix_is_read_only():
    ls = quadratic_general([[1.0, 0.0], [0.0, 4.0]])
    with pytest.raises(ValueError):
        ls.matrix[0, 0] = 9.0


def test_dimension_mismatch_raises():
    ls = quadratic_isotropic(2)
    with pytest.raises(InvalidArgument):
        ls.value(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(InvalidArgument):
        ls.gradient(np.array([1.0]))


@pytest.mark.parametrize("call", ["value", "gradient", "check_point"])
def test_a_0d_point_is_refused(call):
    with pytest.raises(InvalidArgument, match="dimension 1"):
        getattr(quadratic_isotropic(1), call)(1.0)


def test_batched_evaluation_matches_loop():
    ls = quadratic_general([[2.0, 0.5], [0.5, 1.0]])
    rng = np.random.default_rng(11)
    batch = rng.uniform(-5.0, 5.0, size=(40, 2))
    vals = ls.value(batch)
    grads = ls.gradient(batch)
    assert vals.shape == (40,)
    assert grads.shape == (40, 2)
    for i, w in enumerate(batch):
        assert vals[i] == ls.value(w)
        assert np.array_equal(grads[i], ls.gradient(w))


@pytest.mark.parametrize("dim", [1, 2, 5, 33])
def test_row_values_and_raw_gradient_match_single_points(dim):
    """Bit for bit on dense matrices, where ws @ A would move the last bits."""
    rng = np.random.default_rng(dim)
    m = rng.standard_normal((dim, dim))
    ls = quadratic_general(0.5 * (m.T @ m + (m.T @ m).T))
    batch = rng.standard_normal((50, dim))
    assert np.array_equal(ls.row_values(batch), [ls.value(w) for w in batch])
    grad = ls.raw_gradient()
    for w in batch:
        assert np.array_equal(grad(w), ls.gradient(w))


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 100, 512])
def test_values_from_gradients_have_the_bits_of_row_values(dim):
    """Over magnitudes from 1e-300 to 1e300, where products underflow and overflow."""
    rng = np.random.default_rng(dim)
    m = rng.standard_normal((dim, dim))
    ls = quadratic_general(0.5 * (m.T @ m + (m.T @ m).T))
    batch = rng.standard_normal((60, dim)) * 10.0 ** rng.uniform(-300, 300, (60, 1))
    grad = ls.raw_gradient()
    with np.errstate(over="ignore", invalid="ignore"):
        gradients = np.array([grad(w) for w in batch])
        assert bits(ls.value_from_gradient(batch, gradients)) == bits(ls.row_values(batch))


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-300, -1e-300,
               1e300, -1e300, 1.5, -2.5, np.inf, -np.inf, np.nan, -np.nan]


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("curvature", [1.0, 4.0, 0.0, 1e-300, 1e300, 3.7, 0.5])
def test_1d_values_from_float_gradients_have_the_bits_of_row_values(curvature):
    """Signed zeros, subnormals and non-finite values from the float path's gradients."""
    ls = quadratic_general([[curvature]])
    grad = ls.raw_gradient()
    ws = np.array(EDGE_VALUES)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        gradients = np.array([grad(float(w)) for w in EDGE_VALUES])[:, None]
        assert bits(ls.value_from_gradient(ws, gradients)) == bits(ls.row_values(ws))


@pytest.mark.parametrize("curvature", [1.0, 4.0, 0.0, 1e-300, 1e300, 3.7])
def test_scalar_raw_gradient_is_the_matmul_bit_for_bit(curvature):
    """At dim 1 raw_gradient takes floats and (m, 1) arrays; its bits are those of w @ A.

    The signed zeros pin the + 0.0: a -0.0 product must come out as +0.0.
    """
    ls = quadratic_general([[curvature]])
    grad = ls.raw_gradient()
    batch = np.array(EDGE_VALUES)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        for x in EDGE_VALUES:
            got = grad(x)
            assert type(got) is float
            assert bits(got) == bits(ls.gradient(np.array([x]))[0]), x
        assert bits(grad(batch)) == bits(ls.gradient(batch))
        assert grad(batch).shape == batch.shape


@given(hnp.arrays(
    float,
    st.tuples(st.integers(1, 9)) | st.tuples(st.integers(0, 6), st.integers(1, 9)),
    elements=st.sampled_from(EDGE_VALUES) | st.floats(allow_subnormal=True),
))
def test_coordinate_sum_has_the_bits_of_np_sum(x):
    """Shape and bits of np.sum(x, axis=-1) for (d,) and (m, d), d = 1 to 9: a -0.0
    sum is +0.0, and infinities, NaN and subnormals pass through as np.sum leaves them."""
    with np.errstate(over="ignore", invalid="ignore"):
        got, expected = _coordinate_sum(x), np.sum(x, axis=-1)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@given(
    st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4),
)
def test_value_is_even(ws):
    """Quadratic forms are invariant under w -> -w, exactly."""
    w = np.asarray(ws)
    ls = quadratic_isotropic(len(ws))
    assert ls.value(w) == ls.value(-w)
    assert np.array_equal(ls.gradient(-w), -ls.gradient(w))


@given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
def test_value_nonnegative_psd(a, b):
    ls = quadratic_general([[1.0, 0.0], [0.0, 4.0]])
    assert ls.value(np.array([a, b])) >= 0.0


# --- finite-difference gradient checks ------------------------------------

def test_check_gradient_simple_points():
    assert check_gradient(quadratic_isotropic(1), np.array([1.0])) < 1e-9
    assert check_gradient(quadratic_isotropic(2), np.array([0.0, 0.0])) < 1e-9
    ls = quadratic_general([[1.0, 0.0], [0.0, 4.0]])
    assert check_gradient(ls, np.array([0.3, -0.7])) < 1e-8


@pytest.mark.parametrize(
    "ls",
    [
        quadratic_isotropic(1),
        quadratic_isotropic(2),
        quadratic_isotropic(5),
        quadratic_general([[1.0, 0.0], [0.0, 4.0]]),
        quadratic_general([[2.0, 0.5], [0.5, 1.0]]),
        quadratic_general([[0.0]]),
    ],
    ids=["iso1", "iso2", "iso5", "diag14", "coupled", "flat"],
)
def test_check_gradient_random_points(ls):
    rng = np.random.default_rng(2024)
    worst = max(
        check_gradient(ls, rng.uniform(-5.0, 5.0, size=ls.dim)) for _ in range(100)
    )
    assert worst <= 1e-6


def test_check_gradient_rejects_nonfinite_point():
    with pytest.raises(InvalidArgument):
        check_gradient(quadratic_isotropic(1), np.array([np.inf]))


def test_check_gradient_flags_loss_overflow():
    # Finite point, but the quadratic overflows at w +/- fd_step.
    with np.errstate(over="ignore"), pytest.raises(NumericalFailure):
        check_gradient(quadratic_isotropic(1), np.array([1e200]))


# --- name parsing -----------------------------------------------------------

def test_from_name_isotropic():
    assert landscape_from_name("iso1d").dim == 1
    assert landscape_from_name("iso2d").dim == 2
    assert landscape_from_name("iso7d").dim == 7


def test_from_name_diagonal():
    ls = landscape_from_name("diag:1,4")
    assert ls.dim == 2
    assert_allclose(ls.matrix, [[1.0, 0.0], [0.0, 4.0]])
    flat = landscape_from_name("diag:0")
    assert flat.value(np.array([5.0])) == 0.0


# iso10000000000d: an identity numpy refuses to build, before allocating anything
@pytest.mark.parametrize("name", ["iso0d", "isoXd", "diag:", "diag:1,-4", "banana", "",
                                  "iso10000000000d"])
def test_from_name_rejects_garbage(name):
    with pytest.raises(InvalidArgument):
        landscape_from_name(name)


# --- the package's names ------------------------------------------------------

def test_every_exported_name_resolves_once():
    """A deleted name left in an ``__all__`` would make ``from inertia import *`` raise."""
    modules = [inertia] + [importlib.import_module(f"inertia.{info.name}")
                           for info in pkgutil.iter_modules(inertia.__path__)]
    for module in modules:
        names = getattr(module, "__all__", [])
        assert len(names) == len(set(names)), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


# Every name the package exported when __init__.py still listed them by hand.
EXPORTED = [
    "__version__", "State", "SystemSpec", "inertia", "inertia_rows", "inertia_rate_theoretical",
    "QuadraticLandscape", "quadratic_isotropic", "quadratic_general", "landscape_from_name",
    "METHODS", "RNG_ALGORITHM", "IntegratorConfig", "Trajectory", "integrate", "member_rng",
    "step_verlet", "step_damped_splitting", "step_stochastic", "momentum_step",
    "discrete_trajectory", "drift_profile", "ClosedFormSolution", "DecayFit", "SweepEntry",
    "EnsembleStats", "EnsembleResult", "closed_form_underdamped", "damped_period",
    "fit_decay_rate", "sweep_gamma", "ensemble_expected_decay", "InvalidArgument",
    "NumericalFailure",
]


def test_the_package_exports_what_its_library_modules_list():
    """Each public name is declared once, in its module's ``__all__``; none is dropped."""
    modules = ("dynamics", "landscapes", "integrators", "analysis", "errors")
    listed = [name for module in modules
              for name in importlib.import_module(f"inertia.{module}").__all__]
    assert inertia.__all__ == ["__version__", *listed]
    assert len(EXPORTED) == 34
    assert [name for name in EXPORTED if name not in inertia.__all__] == []


def test_quadratic_landscape_is_the_one_landscape_class():
    """A plain class, defining itself the methods the benchmark's tracer wraps."""
    assert QuadraticLandscape.__mro__ == (QuadraticLandscape, object)
    for name in ("__init__", "gradient", "value"):
        assert name in vars(QuadraticLandscape), name
