"""Discrete-time momentum updates and their (nearly conserved) energy.

The map is

    v' = v - eta * grad L(w)
    w' = w + eta * v'        (note: the *new* velocity)

with a single step-size parameter eta. Updating the velocity first makes
this a symplectic-Euler-type map: on 1D quadratics the one-step transition
matrix [[1 - eta^2, eta], [-eta, 1]] has determinant exactly 1, so phase
space area is preserved and the energy 1/2 ||v||^2 + L(w) stays bounded
(not drifting) for eta below the stability threshold eta = 2 of the unit
quadratic.

The map's step is one kernel of ``integrators._make_stepper``, under the
name "momentum", which is not one of the integrators' METHODS: one step and
the trajectory loop run the same arithmetic as every integrator, and each
recorded energy comes from the gradient the step carries.
"""

from __future__ import annotations

import numpy as np

from .dynamics import State, SystemSpec
from .errors import InvalidArgument
from .integrators import (_finite_energies, _gradient, _make_stepper, _run, _single_step,
                          check_step_count)
from .landscapes import QuadraticLandscape

__all__ = [
    "momentum_step",
    "discrete_trajectory",
    "drift_profile",
]


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
