"""Test helper: a finite-difference check of a landscape's exact gradient."""

import numpy as np

from inertia import InvalidArgument, NumericalFailure


def check_gradient(landscape, w, fd_step=1e-5):
    """Max relative error between analytic gradient and central differences.

    The error for coordinate i is |g_i - fd_i| / max(1, |g_i|); the maximum
    over coordinates is returned. Raises NumericalFailure if the loss is
    non-finite at any perturbed point.
    """
    if fd_step <= 0:
        raise InvalidArgument(f"fd_step must be positive, got {fd_step}")
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise InvalidArgument("point must be finite")
    analytic = landscape.gradient(w)
    worst = 0.0
    for i in range(landscape.dim):
        e = np.zeros(landscape.dim)
        e[i] = fd_step
        plus = landscape.value(w + e)
        minus = landscape.value(w - e)
        if not (np.isfinite(plus) and np.isfinite(minus)):
            raise NumericalFailure(f"loss not finite near coordinate {i} of {w!r}")
        fd = (plus - minus) / (2.0 * fd_step)
        err = abs(analytic[i] - fd) / max(1.0, abs(analytic[i]))
        worst = max(worst, err)
    return worst
