"""Whole-run ensemble arrays for tests that compare members or reduce them in one pass."""

import numpy as np

from inertia.integrators import ensemble_samples


def ensemble_arrays(spec, initial, config, n_members):
    """``ensemble_samples`` stacked into (n_members, n_samples) arrays, plus ``times``.

    Keys: ``times``, ``inertia``, ``speed_squared`` and, for correlated
    noise, ``noise_dot_v``. This holds every sample of every member, which
    the package's own reduction avoids.
    """
    times, samples = ensemble_samples(spec, initial, config, n_members)
    names = ("inertia", "speed_squared", "noise_dot_v")
    columns = zip(names, zip(*samples))
    return {"times": times, **{name: np.column_stack(col) for name, col in columns
                               if col[0] is not None}}
