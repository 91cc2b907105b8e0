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

from inertia import (IntegratorConfig, State, SystemSpec, discrete_trajectory, integrate,
                     landscape_from_name, quadratic_general)

H, STEPS = 0.05, 400


def random_psd(dim, seed):
    m = np.random.default_rng(seed).standard_normal((dim, dim))
    a = m.T @ m / dim
    return quadratic_general(0.5 * (a + a.T))


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


@pytest.mark.parametrize("name", sorted(LANDSCAPES))
@pytest.mark.parametrize("method, gamma", CASES)
def test_recorded_energy_is_the_step_matrix_energy_of_each_mode(method, gamma, name):
    """verlet and the discrete map are frictionless; the rest run at gamma 0, 0.4 and 5.
    At gamma 5 the modes of curvature 1 and 4 (iso1d's, and two of diag's) are overdamped."""
    landscape = LANDSCAPES[name]
    rng = np.random.default_rng(7)
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
