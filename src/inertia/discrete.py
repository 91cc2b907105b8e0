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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import _as_readonly_vector, _require_dim, inertia_rows
from .errors import InvalidArgument, NumericalFailure
from .integrators import _BLOCK, _loop_value, _rows
from .landscapes import LossLandscape

__all__ = [
    "DiscreteState",
    "momentum_step",
    "discrete_inertia",
    "discrete_trajectory",
    "drift_profile",
]


@dataclass(frozen=True)
class DiscreteState:
    w: np.ndarray
    v: np.ndarray
    step_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "w", _as_readonly_vector(self.w, "w"))
        object.__setattr__(self, "v", _as_readonly_vector(self.v, "v"))
        if self.w.shape != self.v.shape:
            raise InvalidArgument(
                f"w and v must have equal dimension, got {self.w.shape[0]} and {self.v.shape[0]}"
            )
        if self.step_index < 0:
            raise InvalidArgument(f"step_index must be >= 0, got {self.step_index}")


def momentum_step(state: DiscreteState, eta_step: float, landscape: LossLandscape) -> DiscreteState:
    """One velocity-first update; eta_step plays the role of a time step."""
    if eta_step <= 0:
        raise InvalidArgument(f"eta_step must be positive, got {eta_step}")
    _require_dim(state.w.shape[0], landscape)
    v = state.v - eta_step * landscape.gradient(state.w)
    w = state.w + eta_step * v
    return DiscreteState(w, v, state.step_index + 1)


def discrete_inertia(state: DiscreteState, landscape: LossLandscape) -> float:
    """1/2 ||v||^2 + L(w), the same functional as the continuous-time energy."""
    _require_dim(state.w.shape[0], landscape)
    return 0.5 * float(state.v @ state.v) + float(landscape.value(state.w))


def discrete_trajectory(
    w0: np.ndarray,
    v0: np.ndarray,
    eta_step: float,
    n_steps: int,
    landscape: LossLandscape,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every state of the map for t = 0..n_steps, and its energy series.

    Returns ``(ws, vs, energy)`` with ``ws``/``vs`` of shape
    (n_steps + 1, dim); row t is ``momentum_step`` applied t times and
    ``energy[t]`` its ``discrete_inertia``, bit for bit. Raises
    NumericalFailure at the first step whose energy is not finite.
    """
    if eta_step <= 0:
        raise InvalidArgument(f"eta_step must be positive, got {eta_step}")
    if n_steps < 1:
        raise InvalidArgument(f"n_steps must be >= 1, got {n_steps}")
    w = np.array(w0, dtype=float).reshape(-1)
    v = np.array(v0, dtype=float).reshape(-1)
    if w.shape != v.shape:
        raise InvalidArgument("w0 and v0 must have equal dimension")
    if w.shape[0] != landscape.dim:
        raise InvalidArgument(
            f"initial dimension {w.shape[0]} does not match landscape dimension {landscape.dim}"
        )
    grad = landscape.raw_gradient()
    ws = np.empty((n_steps + 1, w.shape[0]))
    vs = np.empty((n_steps + 1, w.shape[0]))
    # a 1-D state steps as Python floats into flat views, as in integrate
    w, v = _loop_value(w), _loop_value(v)
    w_rows, v_rows = _rows(ws), _rows(vs)
    w_rows[0], v_rows[0] = w, v
    # NaN and Inf stay non-finite under the map, so a finite state at the
    # end of a block means the whole block was; stop at the first that is not.
    last = n_steps
    for start in range(1, n_steps + 1, _BLOCK):
        stop = min(start + _BLOCK, n_steps + 1)
        for k in range(start, stop):
            v = v - eta_step * grad(w)
            w = w + eta_step * v
            w_rows[k], v_rows[k] = w, v
        if not (np.isfinite(w).all() and np.isfinite(v).all()):
            last = stop - 1
            break
    energy = inertia_rows(ws[: last + 1], vs[: last + 1], landscape)
    bad = np.flatnonzero(~np.isfinite(energy))
    if bad.size:
        k = int(bad[0])
        raise NumericalFailure(f"energy not finite at step {k}", step_index=k)
    return ws, vs, energy


def drift_profile(
    w0: np.ndarray,
    v0: np.ndarray,
    eta_step: float,
    n_steps: int,
    landscape: LossLandscape,
) -> tuple[np.ndarray, float]:
    """Energy series I_t for t = 0..n_steps plus max_t |I_t - I_0|.

    For step-size scaling studies, keep the physical horizon
    n_steps * eta_step fixed while varying eta_step.
    """
    _, _, series = discrete_trajectory(w0, v0, eta_step, n_steps, landscape)
    return series, float(np.max(np.abs(series - series[0])))
