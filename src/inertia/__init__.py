"""Continuous-time momentum dynamics and their conserved energy.

The library simulates the second-order system

    d2w/dt2 + gamma * dw/dt + grad L(w) = eta(t)

on analytic loss surfaces and tracks the scalar I = 1/2 ||dw/dt||^2 + L(w),
which is conserved without damping, decays at rate -gamma ||dw/dt||^2 under
friction, and obeys a corrected expected-decay balance under noise. See the
``inertia`` CLI for the runnable experiments.
"""

__version__ = "0.1.0"

from .analysis import (
    ClosedFormSolution,
    DecayFit,
    EnsembleResult,
    EnsembleStats,
    SweepEntry,
    closed_form_underdamped,
    damped_period,
    ensemble_expected_decay,
    fit_decay_rate,
    sweep_gamma,
)
from .discrete import discrete_trajectory, drift_profile, momentum_step
from .dynamics import (
    State,
    SystemSpec,
    inertia,
    inertia_rate_theoretical,
    inertia_rows,
)
from .errors import InvalidArgument, NumericalFailure
from .integrators import (
    METHODS,
    RNG_ALGORITHM,
    IntegratorConfig,
    Trajectory,
    integrate,
    member_rng,
    step_damped_splitting,
    step_stochastic,
    step_verlet,
)
from .landscapes import (
    QuadraticLandscape,
    landscape_from_name,
    quadratic_general,
    quadratic_isotropic,
)

__all__ = [
    "__version__",
    "State",
    "SystemSpec",
    "inertia",
    "inertia_rows",
    "inertia_rate_theoretical",
    "QuadraticLandscape",
    "quadratic_isotropic",
    "quadratic_general",
    "landscape_from_name",
    "METHODS",
    "RNG_ALGORITHM",
    "IntegratorConfig",
    "Trajectory",
    "integrate",
    "member_rng",
    "step_verlet",
    "step_damped_splitting",
    "step_stochastic",
    "momentum_step",
    "discrete_trajectory",
    "drift_profile",
    "ClosedFormSolution",
    "DecayFit",
    "SweepEntry",
    "EnsembleStats",
    "EnsembleResult",
    "closed_form_underdamped",
    "damped_period",
    "fit_decay_rate",
    "sweep_gamma",
    "ensemble_expected_decay",
    "InvalidArgument",
    "NumericalFailure",
]
