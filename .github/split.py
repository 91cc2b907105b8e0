"""A long dense run whose gradient is split by columns, saved as raw bytes.

A dim-512 damped_splitting run of 4000 steps, an rk4 run of 2000 (the
fewest steps that split) and a discrete map of 3000 steps each compute
every gradient in two column blocks. Each recorded energy must have the
bits of inertia_rows. Writes every array the runs return to the path given:

    PYTHONPATH=src python .github/split.py split.bin

CI compares these bytes between two CPUs and one, and between a pull
request and its base.
"""

import sys

import numpy as np

import inertia

rng = np.random.default_rng(3)
m = rng.standard_normal((512, 512))
b = m.T @ m / 512 + 0.1 * np.eye(512)
landscape = inertia.quadratic_general(0.5 * (b + b.T))
spec = inertia.SystemSpec(landscape=landscape, gamma=0.05)
start = inertia.State(rng.standard_normal(512) / 512**0.5, rng.standard_normal(512) / 512**0.5)
config = inertia.IntegratorConfig(method="damped_splitting", h=0.01, t_end=40.0,
                                  record_every=10)
run = inertia.integrate(spec, start, config)
assert run.inertia.tobytes() == inertia.inertia_rows(run.ws, run.vs, landscape).tobytes()
config = inertia.IntegratorConfig(method="rk4", h=0.01, t_end=20.0, record_every=10)
assert config.n_steps == inertia.integrators._SPLIT_STEPS
rk4 = inertia.integrate(spec, start, config)
assert rk4.inertia.tobytes() == inertia.inertia_rows(rk4.ws, rk4.vs, landscape).tobytes()
discrete = inertia.discrete_trajectory(start.w, start.v, 0.05, 3000, landscape)
assert discrete[2].tobytes() == inertia.inertia_rows(*discrete[:2], landscape).tobytes()
with open(sys.argv[1], "wb") as fh:
    for values in (run.ws, run.vs, run.inertia, rk4.ws, rk4.vs, rk4.inertia, *discrete):
        fh.write(values.tobytes())
