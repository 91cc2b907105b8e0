"""Self-tests of the benchmark: its oracles accept correct output and reject bad output.

    python3 -m pytest perfbench/test_oracles.py -q

Every workload must pass end to end (two iterations, so the byte-identity
check runs too) for three workload seeds, and each oracle must reject a
known-bad input: explicit-Euler output, a file with one perturbed row, a
balance residual pushed past its bound, changed bytes.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracles as orc  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from inertia import (IntegratorConfig, State, SystemSpec, integrate,  # noqa: E402
                     quadratic_general)
from inertia.cli import main as cli  # noqa: E402

ONE = np.eye(1)
W0, V0 = [0.6], [-0.3]
INIT = ["--w0=0.6", "--v0=-0.3"]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_workload_passes_its_oracles(workload, seed, capsys):
    assert bench.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * len(workloads.build(workload, seed).checks)


def _perturb_row(path, row: int, column: int, factor: float = 1 + 1e-7):
    with open(path) as fh:
        lines = fh.read().splitlines()
    fields = lines[row].split(",")
    fields[column] = repr(float(fields[column]) * factor)
    lines[row] = ",".join(fields)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _conserve(tmp_path, *extra):
    out = str(tmp_path / "conserve")
    assert cli(["conserve", "--T=20", *INIT, "--out-dir", out, *extra]) == 0
    return out


def test_verlet_oracle_rejects_euler_and_a_perturbed_row(tmp_path):
    path = os.path.join(_conserve(tmp_path), "conserve_g0.csv")
    assert orc.check_verlet_csv(path, ONE, 0.01, W0, V0, 20.0) == 2000
    _perturb_row(path, 700, 1)
    with pytest.raises(orc.OracleError):
        orc.check_verlet_csv(path, ONE, 0.01, W0, V0, 20.0)

    euler = os.path.join(_conserve(tmp_path, "--method=explicit_euler"), "conserve_g0.csv")
    with pytest.raises(orc.OracleError):
        orc.check_verlet_csv(euler, ONE, 0.01, W0, V0, 20.0)


def test_damped_oracle_rejects_euler(tmp_path):
    path = os.path.join(_conserve(tmp_path), "conserve_g0.4.csv")
    orc.check_damped_csv(path, ONE, 0.4, 0.01, W0, V0, 20.0)
    euler = os.path.join(_conserve(tmp_path, "--method=explicit_euler"), "conserve_g0.4.csv")
    with pytest.raises(orc.OracleError, match="exact solution"):
        orc.check_damped_csv(euler, ONE, 0.4, 0.01, W0, V0, 20.0)


def test_discrete_oracle_rejects_a_perturbed_row(tmp_path):
    out = str(tmp_path / "discrete")
    assert cli(["discrete", "--steps=3000", "--eta-halving", *INIT, "--out-dir", out]) == 0
    assert orc.check_discrete_dir(out, ONE, 0.01, W0, V0, 3000) == 12000
    _perturb_row(os.path.join(out, "discrete.csv"), 1500, 2)
    with pytest.raises(orc.OracleError):
        orc.check_discrete_dir(out, ONE, 0.01, W0, V0, 3000)


def test_coupled_oracle_rejects_euler():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((16, 16))
    b = m.T @ m / 16 + 0.1 * np.eye(16)
    a = 0.5 * (b + b.T)
    w0, v0 = rng.standard_normal(16) / 4, rng.standard_normal(16) / 4
    spec = SystemSpec(landscape=quadratic_general(a), gamma=0.05)
    for method, ok in (("damped_splitting", True), ("explicit_euler", False)):
        tr = integrate(spec, State(w0, v0), IntegratorConfig(method, 0.01, 30.0, record_every=10))
        if ok:
            orc.check_exact(tr.ws, tr.vs, tr.times, a, 0.05, w0, v0, 20e-4, method)
        else:
            with pytest.raises(orc.OracleError):
                orc.check_exact(tr.ws, tr.vs, tr.times, a, 0.05, w0, v0, 20e-4, method)


@pytest.mark.parametrize("noise", ["white", "ou:0.5"])
def test_balance_oracles_reject_residuals_past_their_bounds(tmp_path, noise, capsys):
    out = str(tmp_path / "s")
    assert cli(["stochastic", "--members=400", f"--noise={noise}", *INIT, "--out-dir", out]) == 0
    printed = orc.parse_balance(capsys.readouterr().out)[0]
    path = os.path.join(out, "stochastic.csv")
    orc.check_stochastic_csv(path, 0.4, 0.3, 0.01, W0, V0, 10.0, 400, noise, printed)

    residual, stderr = printed
    if noise == "white":
        with pytest.raises(orc.OracleError, match="z-score"):
            orc.check_white(1.01 * orc.WHITE_Z_MAX * stderr, stderr, path)
    else:
        with pytest.raises(orc.OracleError, match="beyond"):
            orc.check_ou(residual * 1.01 * orc.OU_C * 1e-4 / abs(residual), 0.01, path)

    _perturb_row(path, 300, 1)
    with pytest.raises(orc.OracleError, match="centered difference"):
        orc.check_stochastic_csv(path, 0.4, 0.3, 0.01, W0, V0, 10.0, 400, noise, printed)


def test_svg_oracle_rejects_nan_coordinates(tmp_path):
    out = _conserve(tmp_path)
    svg = os.path.join(out, "c.svg")
    assert cli(["render", "--input", os.path.join(out, "conserve.csv"), "--out", svg]) == 0
    orc.check_svg(svg, 2, 2001)
    with open(svg) as fh:
        text = fh.read()
    with open(svg, "w") as fh:
        fh.write(text.replace('points="', 'points="nan,nan ', 1))
    with pytest.raises(orc.OracleError):
        orc.check_svg(svg, 2, 2001)


def test_byte_identity_check_rejects_changed_files(tmp_path):
    out = _conserve(tmp_path)
    first = orc.tree_digest(out)
    orc.check_same_bytes(first, orc.tree_digest(out))
    _perturb_row(os.path.join(out, "conserve.csv"), 5, 1, factor=1 + 1e-12)
    with pytest.raises(orc.OracleError, match="bytes differ"):
        orc.check_same_bytes(first, orc.tree_digest(out))


def test_self_time_subtracts_child_spans():
    dump = {"names": ["integrators.integrate", "landscapes.gradient"],
            "spans": [(1, 1.0, 4.0, 1), (0, 0.0, 10.0, -1), (1, 5.0, 6.0, 1)],
            "counts": {"integrators.steps": 3}}
    metrics = tracing.layer_metrics(dump)
    assert metrics["integrators.integrate_s"] == 10.0
    assert metrics["landscapes.gradient_s"] == 4.0
    assert metrics["integrators.us_per_step"] == pytest.approx(2e6)


def test_benchmark_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "horizon", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
