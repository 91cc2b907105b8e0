"""The four workloads: inputs generated from the seed, and the oracle per operation.

A workload is a spec for child.py (what one iteration runs) plus a list of
checked operations. Each check owns one output directory; it reads that
directory and the captured stdout of the child operation it depends on,
raises ``OracleError`` when an output is wrong, and returns the number of
phase-space steps it verified (one per trajectory step, per ensemble
member step, and per discrete-map step).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles as orc

NAMES = ("horizon", "ensemble", "coupled", "reproduce")
ONE = np.eye(1)
TWO = np.eye(2)


@dataclass
class Check:
    name: str
    op: str  # name of the child operation whose exit code and stdout it depends on
    dir: str  # its output directory, relative to the iteration's output root
    run: Callable[[str, str], int]  # (its output directory, stdout) -> steps verified


@dataclass
class Workload:
    spec: dict
    checks: list[Check]
    inputs: dict[str, np.ndarray] = field(default_factory=dict)  # spec key -> .npy input


def _initial(rng, dim: int = 1):
    """A start point in the unit box, away from the origin."""
    while True:
        w0, v0 = rng.uniform(-1.0, 1.0, dim), rng.uniform(-1.0, 1.0, dim)
        if float(w0 @ w0 + v0 @ v0) >= 0.04:
            return [float(x) for x in w0], [float(x) for x in v0]


def _flags(w0, v0) -> list[str]:
    return [f"--w0={','.join(map(repr, w0))}", f"--v0={','.join(map(repr, v0))}"]


def _all(*checks):
    def check(d, stdout):
        return sum(c(d, stdout) for c in checks)
    return check


def _cli(*checks):
    """The checks of one CLI run directory, plus its manifest."""
    def manifest(d, stdout):
        orc.check_manifests(d)
        return 0
    return _all(*checks, manifest)


def _svg(name: str, n_series: int, n_points: int):
    def check(d, stdout):
        orc.check_svg(os.path.join(d, name), n_series, n_points)
        return 0
    return check


def _conserve(a, gamma, h, w0, v0, t_end):
    """conserve_g0.csv (verlet), conserve_g<gamma>.csv (splitting), conserve.csv."""
    def check(d, stdout):
        g0 = os.path.join(d, "conserve_g0.csv")
        gd = os.path.join(d, f"conserve_g{gamma:g}.csv")
        steps = orc.check_verlet_csv(g0, a, h, w0, v0, t_end)
        steps += orc.check_damped_csv(gd, a, gamma, h, w0, v0, t_end)
        first, damped = orc.read_csv(g0), orc.read_csv(gd)
        orc.check_energy_table(os.path.join(d, "conserve.csv"), {
            "t": first["t"], "inertia_g0": first["inertia"],
            f"inertia_g{gamma:g}": damped["inertia"]})
        return steps
    return check


def _discrete(a, eta, w0, v0, n_steps):
    def check(d, stdout):
        return orc.check_discrete_dir(d, a, eta, w0, v0, n_steps)
    return check


def _stochastic(gamma, sigma, h, w0, v0, t_end, members, noise, section=None):
    """stochastic.csv plus the balance line printed for it (in ``section`` of stdout)."""
    def check(d, stdout):
        text = stdout if section is None else _sections(stdout).get(section, "")
        printed = orc.parse_balance(text)
        if len(printed) != 1:
            raise orc.OracleError(f"{d}: expected one balance line, got {len(printed)}")
        return orc.check_stochastic_csv(os.path.join(d, "stochastic.csv"), gamma, sigma, h,
                                        w0, v0, t_end, members, noise, printed[0])
    return check


def _sections(stdout: str) -> dict[str, str]:
    """Split reproduce_all.py output into per-experiment text at its '== name:' lines."""
    sections, name = {}, None
    for line in stdout.splitlines(keepends=True):
        if line.startswith("== "):
            name = line[3:].split(":", 1)[0]
            sections[name] = ""
        elif name is not None:
            sections[name] += line
    return sections


def horizon(seed: int) -> Workload:
    """Long 1-D single trajectories through the CLI: conserve, discrete, render."""
    rng = np.random.default_rng([seed, 1])
    w0, v0 = _initial(rng)
    h, t_end, gamma, eta, n_discrete = 0.01, 200.0, 0.4, 0.01, 20000
    n = orc.steps_for(t_end, h)
    ops = [
        {"name": "conserve", "argv": ["conserve", f"--h={h}", f"--T={t_end}", f"--gamma={gamma}",
                                      *_flags(w0, v0), "--out-dir", "conserve"]},
        {"name": "discrete", "argv": ["discrete", f"--eta={eta}", f"--steps={n_discrete}",
                                      "--eta-halving", *_flags(w0, v0), "--out-dir", "discrete"]},
        {"name": "render", "argv": ["render", "--input", "conserve/conserve.csv",
                                    "--out", "render/conserve.svg"]},
    ]
    checks = [
        Check("conserve", "conserve", "conserve", _cli(_conserve(ONE, gamma, h, w0, v0, t_end))),
        Check("discrete", "discrete", "discrete", _cli(_discrete(ONE, eta, w0, v0, n_discrete))),
        Check("render", "render", "render", _cli(_svg("conserve.svg", 2, n + 1))),
    ]
    return Workload({"kind": "cli", "ops": ops}, checks)


def ensemble(seed: int) -> Workload:
    """The stochastic subcommand at 10^4 members, white and correlated noise."""
    rng = np.random.default_rng([seed, 2])
    w0, v0 = _initial(rng)
    noise_seed = int(rng.integers(0, 2**32))
    h, t_end, gamma, sigma, members = 0.01, 10.0, 0.4, 0.3, 10000
    base = ["stochastic", f"--members={members}", f"--h={h}", f"--T={t_end}",
            f"--gamma={gamma}", f"--sigma={sigma}", f"--seed={noise_seed}", *_flags(w0, v0)]
    ops, checks = [], []
    for name, noise in (("white", "white"), ("ou", "ou:0.5")):
        ops.append({"name": name, "argv": [*base, f"--noise={noise}", "--out-dir", name]})
        checks.append(Check(name, name, name, _cli(_stochastic(gamma, sigma, h, w0, v0, t_end,
                                                               members, noise))))
    return Workload({"kind": "cli", "ops": ops}, checks)


def coupled(seed: int) -> Workload:
    """One long damped trajectory on a dense random PSD matrix, through the Python API."""
    rng = np.random.default_rng([seed, 3])
    dim, gamma, h, t_end, record_every = 512, 0.05, 0.01, 100.0, 10
    m = rng.standard_normal((dim, dim))
    b = m.T @ m / dim + 0.1 * np.eye(dim)  # spectrum in about [0.1, 4.1]: every mode underdamped
    a = 0.5 * (b + b.T)  # exactly symmetric
    w0 = [float(x) for x in rng.standard_normal(dim) / math.sqrt(dim)]
    v0 = [float(x) for x in rng.standard_normal(dim) / math.sqrt(dim)]
    n = orc.steps_for(t_end, h)

    def check(d, stdout):
        t, ws, vs, recorded = (np.load(os.path.join(d, f"{f}.npy"))
                               for f in ("times", "ws", "vs", "inertia"))
        orc.check_grid(t, h * record_every, n // record_every, d)
        orc.check_start(ws, vs, w0, v0, d)
        orc.check_energy_column(ws, vs, recorded, a, d)
        # measured 1.9e-4 = 1.9 h^2; explicit Euler is at 0.12 by t = 20
        orc.check_exact(ws, vs, t, a, gamma, w0, v0, 20 * h * h, d)
        return n

    spec = {"kind": "api", "method": "damped_splitting", "gamma": gamma, "h": h,
            "t_end": t_end, "record_every": record_every, "w0": w0, "v0": v0, "out": "coupled"}
    return Workload(spec, [Check("coupled", "api", "coupled", check)], {"matrix": a})


def reproduce(seed: int) -> Workload:
    """scripts/reproduce_all.py: 8 desk-scale experiments and 13 renders.

    The parameters below are the CLI defaults that script runs with. It
    takes no inputs, so the seed does not change this workload.
    """
    h, gamma, sigma, w0, v0, t_end, members = 0.01, 0.4, 0.3, [1.0], [0.0], 10.0, 200
    n = orc.steps_for(t_end, h)
    inits = ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0])
    sweep_gammas = (0.1, 0.2, 0.4, 0.8)

    def phase(d, stdout):
        return (orc.check_verlet_csv(os.path.join(d, "phase_g0.csv"), ONE, h, w0, v0, 2 * t_end)
                + orc.check_damped_csv(os.path.join(d, "phase_g0.4.csv"), ONE, gamma, h, w0, v0,
                                       2 * t_end))

    def sweep(d, stdout):
        orc.check_sweep_csv(os.path.join(d, "sweep.csv"), sweep_gammas)
        # five damped periods per gamma
        return sum(orc.steps_for(10 * math.pi / math.sqrt(1 - g * g / 4), h) for g in sweep_gammas)

    def traj2d(damped: bool):
        def check(d, stdout):
            steps = 0
            for i, w in enumerate(inits):
                path = os.path.join(d, f"traj2d_init{i}.csv")
                if damped:
                    steps += orc.check_damped_csv(path, TWO, gamma, h, w, [0.0, 0.0], t_end)
                else:
                    steps += orc.check_verlet_csv(path, TWO, h, w, [0.0, 0.0], t_end)
            return steps
        return check

    def stochastic(name, noise):
        return _stochastic(gamma, sigma, h, w0, v0, t_end, members, noise, section=name)

    experiments = {
        "conserve": _cli(_conserve(ONE, gamma, h, w0, v0, t_end), _svg("conserve.svg", 2, n + 1)),
        "phase": _cli(phase, _svg("orbit.svg", 1, 2 * n + 1), _svg("spiral.svg", 1, 2 * n + 1)),
        "sweep": _cli(sweep, _svg("sweep.svg", 1, len(sweep_gammas))),
        "traj2d": _cli(traj2d(False), *(_svg(f"orbit2d_{i}.svg", 1, n + 1) for i in range(3))),
        "traj2d-damped": _cli(traj2d(True),
                              *(_svg(f"spiral2d_{i}.svg", 1, n + 1) for i in range(3))),
        "discrete": _cli(_discrete(ONE, h, w0, v0, n), _svg("discrete.svg", 1, n + 1)),
        "stochastic-white": _cli(stochastic("stochastic-white", "white"),
                                 _svg("decay.svg", 1, n + 1)),
        "stochastic-corr": _cli(stochastic("stochastic-corr", "ou:0.5"),
                                _svg("decay.svg", 1, n + 1)),
    }
    checks = [Check(name, "script", f"runs/{name}", run) for name, run in experiments.items()]
    spec = {"kind": "script", "script": "scripts/reproduce_all.py", "argv": ["--root", "runs"]}
    return Workload(spec, checks)


def build(name: str, seed: int) -> Workload:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return globals()[name](seed)
