"""Continuous-time momentum dynamics and their conserved energy.

The library simulates the second-order system

    d2w/dt2 + gamma * dw/dt + grad L(w) = eta(t)

on analytic loss surfaces and tracks the scalar I = 1/2 ||dw/dt||^2 + L(w),
which is conserved without damping, decays at rate -gamma ||dw/dt||^2 under
friction, and obeys a corrected expected-decay balance under noise. See the
``inertia`` CLI for the runnable experiments.
"""

__version__ = "0.1.0"

from . import analysis, dynamics, errors, integrators, landscapes
from .analysis import *
from .dynamics import *
from .errors import *
from .integrators import *
from .landscapes import *

# the package exports what each library module lists, and nothing else
__all__ = ["__version__", *(name for module in (dynamics, landscapes, integrators, analysis, errors)
                            for name in module.__all__)]
