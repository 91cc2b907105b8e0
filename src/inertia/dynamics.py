"""The second-order system and its energy functional.

The deterministic dynamics are

    d2w/dt2 + gamma * dw/dt + grad L(w) = 0,

optionally forced by a zero-mean noise process eta(t) on the right-hand
side. The scalar

    I = 1/2 ||dw/dt||^2 + L(w)

is conserved when gamma = 0 and decays at the pointwise rate
dI/dt = -gamma ||dw/dt||^2 otherwise (for smooth forcing the rate gains
the work term <eta, dw/dt>).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NumericalFailure
from .landscapes import QuadraticLandscape

__all__ = [
    "State",
    "SystemSpec",
    "NOISE_KINDS",
    "inertia",
    "inertia_rows",
    "shadow_inertia_rows",
    "inertia_rate_theoretical",
]

NOISE_KINDS = ("none", "white", "ou")

# Floats in one chunk of rows whose energies are reduced at once (32 KB). On
# a dense dim-512 run a chunk of 2**15 floats (256 KB) raised the peak RSS by
# about 0.45 MB; one of 2**12 floats adds nothing measurable.
_ROW_FLOATS = 2**12


def _as_readonly_vector(x, name: str) -> np.ndarray:
    arr = np.array(x, dtype=float).reshape(-1)
    if not np.all(np.isfinite(arr)):
        raise NumericalFailure(f"{name} contains non-finite components: {arr!r}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class State:
    """A phase-space point: parameters ``w``, velocity ``v``, time ``t``."""

    w: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "w", _as_readonly_vector(self.w, "w"))
        object.__setattr__(self, "v", _as_readonly_vector(self.v, "v"))
        if self.w.shape != self.v.shape:
            raise InvalidArgument(
                f"w and v must have equal dimension, got {self.w.shape[0]} and {self.v.shape[0]}"
            )
        if not np.isfinite(self.t):
            raise NumericalFailure(f"time is not finite: {self.t}")

    @property
    def dim(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True)
class SystemSpec:
    """Landscape plus damping and (optional) noise process parameters.

    ``noise_kind`` is one of ``none``, ``white``, or ``ou``. For white noise,
    ``sigma`` scales the velocity increments: sigma * sqrt(h) per step of
    size h. For the exponentially correlated (Ornstein-Uhlenbeck) option,
    ``sigma`` is the stationary standard deviation of the forcing and
    ``tau`` its correlation time. A zero-amplitude noisy spec (sigma = 0,
    noise_kind != none) is allowed and degenerates to the deterministic
    dynamics.
    """

    landscape: QuadraticLandscape
    gamma: float = 0.0
    sigma: float = 0.0
    noise_kind: str = "none"
    tau: float | None = None

    def __post_init__(self):
        # written so that a NaN fails them
        if not 0 <= self.gamma < np.inf:
            raise InvalidArgument(f"gamma must be finite and >= 0, got {self.gamma}")
        if not 0 <= self.sigma < np.inf:
            raise InvalidArgument(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.noise_kind not in NOISE_KINDS:
            raise InvalidArgument(
                f"noise_kind must be one of {NOISE_KINDS}, got {self.noise_kind!r}"
            )
        if self.noise_kind == "none" and self.sigma > 0:
            raise InvalidArgument("sigma > 0 requires a noise kind")
        if self.noise_kind == "ou":
            if self.tau is None or not 0 < self.tau < np.inf:
                raise InvalidArgument(f"ou noise requires a finite tau > 0, got {self.tau}")
        elif self.tau is not None:
            raise InvalidArgument("tau is only meaningful for ou noise")

    @property
    def deterministic(self) -> bool:
        return self.noise_kind == "none"


def inertia(state: State, landscape: QuadraticLandscape) -> float:
    """Kinetic plus potential energy 1/2 ||v||^2 + L(w) of a State."""
    return 0.5 * float(state.v @ state.v) + float(landscape.value(state.w))


def inertia_rows(ws: np.ndarray, vs: np.ndarray, landscape: QuadraticLandscape) -> np.ndarray:
    """``inertia`` of every row pair (ws[i], vs[i]) of two (n, dim) arrays, bit for bit.

    The trajectory loops take their recorded energies from the gradients
    their steps carry, with these bits; this stays the public reference that
    the tests compare them against. Rows go in chunks of _ROW_FLOATS floats
    per temporary, so memory stays flat however long the trajectory.
    """
    n, dim = ws.shape
    out = np.empty(n)
    rows = max(1, _ROW_FLOATS // dim)
    for i in range(0, n, rows):
        out[i : i + rows] = _kinetic_plus(vs[i : i + rows], landscape.row_values(ws[i : i + rows]))
    return out


def shadow_inertia_rows(ws: np.ndarray, vs: np.ndarray, landscape: QuadraticLandscape,
                        h: float) -> np.ndarray:
    """The shadow energy I - (h^2/8)|grad L(w)|^2 of every row pair, I from ``inertia_rows``.

    On a quadratic it is 1/2 ||v||^2 + 1/2 w^T A (I - h^2 A / 4) w, which
    kick-drift-kick with step ``h`` (``verlet``) conserves exactly, so a
    run's drift in it is round-off alone (Hairer, Lubich & Wanner,
    *Geometric Numerical Integration*, ch. IX). ``damped_splitting`` wraps
    that core in damping half-steps that only shrink v, so there it falls
    at every step.
    """
    gradients = landscape.gradient(ws)
    return inertia_rows(ws, vs, landscape) - h ** 2 / 8 * np.sum(gradients * gradients, axis=1)


def _kinetic_plus(vs: np.ndarray, potentials: np.ndarray) -> np.ndarray:
    # 1/2 vs[i] @ vs[i] + potentials[i] for every row, inertia's sum: v @ v
    # runs as stacked vector-vector products, the kernel a single state uses
    return 0.5 * (vs[:, None, :] @ vs[:, :, None])[:, 0, 0] + potentials


def inertia_rate_theoretical(state: State, spec: SystemSpec) -> float:
    """The deterministic energy decay rate -gamma * ||v||^2 (always <= 0).

    Only defined for noise-free dynamics; under forcing the pointwise
    identity does not hold, so a stochastic spec is rejected.
    """
    if not spec.deterministic:
        raise InvalidArgument("pointwise decay rate is only defined without noise")
    return -spec.gamma * float(state.v @ state.v)
