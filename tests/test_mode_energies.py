"""Every deterministic method's recorded energy, exact per eigenmode.

On a quadratic every noise-free kernel is linear, so one step of each
eigenmode's (w~, v~) = (Q^T w, Q^T v) is a 2x2 matrix of its curvature
lambda. The matrices below are written from the methods' definitions, not
from the package's kernels: kick, drift and friction factors, and the RK4
polynomial. The recorded energy must equal 1/2 sum(v~^2 + lambda w~^2) of
the modes stepped by them, to round-off.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inertia import (IntegratorConfig, State, SystemSpec, discrete_trajectory, integrate,
                     landscape_from_name, quadratic_general, shadow_inertia_rows)

H, STEPS = 0.05, 400


def random_psd(dim, seed, floor=0.0):
    m = np.random.default_rng(seed).standard_normal((dim, dim))
    a = m.T @ m / dim + floor * np.eye(dim)
    return quadratic_general(0.5 * (a + a.T))


def drawn_psd(floor):
    """Random PSD matrices m^T m / dim + floor * I at dim 1-8. Without a floor
    an eigenvalue near 0 can leave the 1e-12 bounds below to chance: one
    draw in 120 broke it at dim 5, with eigenvalues 9e-5 to 2.9."""
    return st.builds(random_psd, st.integers(1, 8), st.integers(0, 2**32 - 1), st.just(floor))


LANDSCAPES = {"iso1d": landscape_from_name("iso1d"), "diag": landscape_from_name("diag:1,4,9"),
              "psd5": random_psd(5, 11)}


def kick(lam, h):
    return np.array([[1.0, 0.0], [-h * lam, 1.0]])


def drift(h):
    return np.array([[1.0, h], [0.0, 1.0]])


def friction(factor):
    return np.array([[1.0, 0.0], [0.0, factor]])


def step_matrix(method, lam, gamma, h):
    """One step of a mode of curvature ``lam`` acting on the column (w~, v~)."""
    if method == "explicit_euler":
        return np.array([[1.0, h], [-h * lam, 1.0 - h * gamma]])
    if method == "rk4":  # the degree-4 Taylor polynomial of exp(h J)
        hj = h * np.array([[0.0, 1.0], [-lam, -gamma]])
        return np.eye(2) + hj @ (np.eye(2) + hj / 2 @ (np.eye(2) + hj / 3 @ (np.eye(2) + hj / 4)))
    if method in ("verlet", "damped_splitting"):  # D(h/2) K(h/2) X(h) K(h/2) D(h/2)
        damp = friction(math.exp(-gamma * h / 2))
        return damp @ kick(lam, h / 2) @ drift(h) @ kick(lam, h / 2) @ damp
    assert method == "discrete_trajectory" and gamma == 0  # velocity first: kick, then drift
    return drift(h) @ kick(lam, h)


def run(method, landscape, gamma, w0, v0):
    if method == "discrete_trajectory":
        return discrete_trajectory(w0, v0, H, STEPS, landscape)[2]
    spec = SystemSpec(landscape=landscape, gamma=gamma)
    config = IntegratorConfig(method=method, h=H, t_end=STEPS * H)
    assert config.n_steps == STEPS
    return integrate(spec, State(w0, v0), config).inertia


CASES = [(method, gamma) for method in ("explicit_euler", "rk4", "damped_splitting")
         for gamma in (0.0, 0.4, 5.0)] + [("verlet", 0.0), ("discrete_trajectory", 0.0)]


def assert_step_matrix_energy(method, gamma, landscape, seed=7):
    rng = np.random.default_rng(seed)
    w0, v0 = rng.standard_normal(landscape.dim), rng.standard_normal(landscape.dim)
    lams, q = np.linalg.eigh(landscape.matrix)
    modes = np.stack([q.T @ w0, q.T @ v0], axis=1)  # row i: (w~, v~) of mode i
    matrices = [step_matrix(method, lam, gamma, H) for lam in lams]
    expected = []
    for _ in range(STEPS + 1):
        expected.append(0.5 * np.sum(modes[:, 1] ** 2 + lams * modes[:, 0] ** 2))
        modes = np.stack([m @ x for m, x in zip(matrices, modes)])
    recorded = run(method, landscape, gamma, w0, v0)
    np.testing.assert_allclose(recorded, expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", sorted(LANDSCAPES))
@pytest.mark.parametrize("method, gamma", CASES)
def test_recorded_energy_is_the_step_matrix_energy_of_each_mode(method, gamma, name):
    """verlet and the discrete map are frictionless; the rest run at gamma 0, 0.4 and 5.
    At gamma 5 the modes of curvature 1 and 4 (iso1d's, and two of diag's) are overdamped."""
    assert_step_matrix_energy(method, gamma, LANDSCAPES[name])


@pytest.mark.parametrize("method, gamma", CASES)
@settings(max_examples=15, deadline=None)
@given(landscape=drawn_psd(0.1), seed=st.integers(0, 2**32 - 1))
def test_recorded_energy_is_the_step_matrix_energy_on_drawn_matrices(method, gamma, landscape,
                                                                     seed):
    assert_step_matrix_energy(method, gamma, landscape, seed)


# --- shadow energies: what each symplectic kernel conserves exactly ----------

def shadow_start(landscape, seed, fraction):
    """A random start and a step h with h * sqrt(lambda_max) = 0.3 * fraction."""
    rng = np.random.default_rng(seed)
    w0, v0 = rng.standard_normal(landscape.dim), rng.standard_normal(landscape.dim)
    h = 0.3 * fraction / np.sqrt(np.linalg.eigvalsh(landscape.matrix).max())
    return w0, v0, h


def relative_drift(series):
    return float(np.max(np.abs(series - series[0])) / series[0])


@settings(max_examples=40, deadline=None)
@given(landscape=drawn_psd(0.05), seed=st.integers(0, 2**32 - 1), fraction=st.floats(0.05, 1.0))
def test_verlet_conserves_the_shadow_energy(landscape, seed, fraction):
    """Kick-drift-kick conserves I - (h^2/8)|grad L(w)|^2 on a quadratic: over
    400 steps its drift is round-off (4e-15 measured), where I's is O(h^2)."""
    w0, v0, h = shadow_start(landscape, seed, fraction)
    config = IntegratorConfig(method="verlet", h=h, t_end=STEPS * h)
    assert config.n_steps == STEPS
    run = integrate(SystemSpec(landscape=landscape), State(w0, v0), config)
    assert relative_drift(shadow_inertia_rows(run.ws, run.vs, landscape, h)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(landscape=drawn_psd(0.05), seed=st.integers(0, 2**32 - 1), fraction=st.floats(0.05, 1.0))
def test_the_discrete_map_conserves_its_shadow_energy(landscape, seed, fraction):
    """v' = v - eta A w, w' = w + eta v' conserves
    1/2 |v|^2 + 1/2 w^T A w - (eta/2) w^T A v, to round-off (3e-15 measured)."""
    w0, v0, eta = shadow_start(landscape, seed, fraction)
    ws, vs, _ = discrete_trajectory(w0, v0, eta, STEPS, landscape)
    aw = ws @ landscape.matrix
    shadow = 0.5 * np.sum(vs * vs, axis=1) + 0.5 * np.sum(ws * aw, axis=1) \
        - 0.5 * eta * np.sum(aw * vs, axis=1)
    assert relative_drift(shadow) <= 1e-12
