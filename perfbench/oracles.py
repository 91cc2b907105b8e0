"""Exact oracles for the outputs of the benchmarked program.

Every check here holds on correct code by construction, up to round-off or
a stated truncation order, rather than comparing against stored bytes:

* velocity Verlet conserves the shadow energy
  1/2 |v|^2 + 1/2 w^T (A - h^2 A^2 / 4) w on a quadratic to round-off;
* the velocity-first discrete map conserves
  1/2 |v|^2 + 1/2 w^T A w - (eta / 2) w^T A v to round-off, and is
  replayed by an independent reference loop;
* damped splitting tracks the exact eigenmode solution of
  w'' + gamma w' + A w = 0 to O(h^2);
* a white-noise ensemble balance residual is zero in expectation, so its
  z-score is bounded; the correlated-noise residual carries a deterministic
  O(h^2) bias, so it is bounded by C h^2 instead of a z-score.

The module depends on numpy and the standard library only; it never imports
the program it checks.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np

# Round-off tolerances, relative to the size of the conserved quantity.
SHADOW_RTOL = 1e-11  # measured <= 4e-14 over 2e4 steps
ROUNDOFF_RTOL = 1e-12
# |z| bound for the white-noise balance; the residual is unbiased there.
WHITE_Z_MAX = 5.0
# |residual| <= OU_C * h^2 for correlated noise. At sigma = 0.3, gamma = 0.4,
# tau = 0.5, T = 10 the measured |residual| / h^2 is 0.001-0.02 for starts
# in the unit box and 0.041 at its corner w0 = v0 = 1; the bias grows with
# the initial energy.
OU_C = 0.25
# |gamma_hat - gamma| / gamma for the smoothed log-linear sweep fits
# (measured about 1.4e-5 at h = 0.01).
SWEEP_RTOL = 2e-3


class OracleError(Exception):
    """An output broke its oracle."""


def _require(ok: bool, message: str):
    if not ok:
        raise OracleError(message)


# ---------------------------------------------------------------------------
# files


def read_csv(path: str) -> dict[str, np.ndarray]:
    """Parse a header-row CSV of finite floats into named columns."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise OracleError(f"cannot read {path}: {exc}")
    _require(len(rows) >= 2, f"{path}: no data rows")
    header = rows[0]
    _require(all(len(r) == len(header) for r in rows[1:]), f"{path}: ragged rows")
    try:
        data = np.array(rows[1:], dtype=float)
    except ValueError as exc:
        raise OracleError(f"{path}: {exc}")
    _require(bool(np.all(np.isfinite(data))), f"{path}: non-finite values")
    return {name: data[:, i] for i, name in enumerate(header)}


def trajectory_arrays(columns: dict[str, np.ndarray], dim: int):
    """(t, ws, vs, inertia) from a trajectory CSV with t/step, w*, v*, inertia."""
    try:
        ws = np.stack([columns[f"w{i}"] for i in range(dim)], axis=1)
        vs = np.stack([columns[f"v{i}"] for i in range(dim)], axis=1)
        t = columns["t"] if "t" in columns else columns["step"]
        return t, ws, vs, columns["inertia"]
    except KeyError as exc:
        raise OracleError(f"missing column {exc}")


def tree_digest(root: str) -> dict[str, str]:
    """sha256 of every file under ``root`` except run manifests, which hold timings."""
    digests = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            if name == "manifest.json":
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def check_same_bytes(first: dict[str, str], again: dict[str, str]):
    """Two runs with the same inputs must write byte-identical data files."""
    _require(first.keys() == again.keys(),
             f"file sets differ: {sorted(first.keys() ^ again.keys())}")
    changed = sorted(k for k in first if first[k] != again[k])
    _require(not changed, f"bytes differ between identical runs: {changed}")


def check_manifests(root: str):
    """Every manifest under ``root`` parses as strict JSON."""
    found = 0
    for dirpath, _, filenames in os.walk(root):
        if "manifest.json" in filenames:
            with open(os.path.join(dirpath, "manifest.json")) as fh:
                try:
                    json.load(fh, parse_constant=_reject_constant)
                except ValueError as exc:
                    raise OracleError(f"{dirpath}/manifest.json: {exc}")
            found += 1
    _require(found > 0, f"no manifest under {root}")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def check_svg(path: str, n_series: int, n_points: int):
    """A well-formed SVG with ``n_series`` finite polylines of ``n_points`` points."""
    try:
        tree = ET.parse(path)
    except (OSError, ET.ParseError) as exc:
        raise OracleError(f"{path}: {exc}")
    root = tree.getroot()
    width, height = float(root.get("width")), float(root.get("height"))
    lines = [el for el in root.iter() if el.tag.endswith("polyline")]
    _require(len(lines) == n_series, f"{path}: {len(lines)} polylines, expected {n_series}")
    for line in lines:
        pairs = line.get("points").split()
        _require(len(pairs) == n_points, f"{path}: {len(pairs)} points, expected {n_points}")
        xy = np.array([p.split(",") for p in pairs], dtype=float)
        _require(bool(np.all(np.isfinite(xy))), f"{path}: non-finite coordinates")
        inside = (xy[:, 0] >= 0) & (xy[:, 0] <= width) & (xy[:, 1] >= 0) & (xy[:, 1] <= height)
        _require(bool(inside.all()), f"{path}: points outside the canvas")


# ---------------------------------------------------------------------------
# deterministic dynamics on L(w) = 1/2 w^T A w


def energy(ws, vs, a):
    return 0.5 * np.sum(vs * vs, axis=1) + 0.5 * np.sum((ws @ a) * ws, axis=1)


def check_grid(t, step: float, n_steps: int, what: str):
    _require(t.shape[0] == n_steps + 1, f"{what}: {t.shape[0]} rows, expected {n_steps + 1}")
    expected = np.arange(n_steps + 1) * step
    _require(bool(np.allclose(t, expected, rtol=0, atol=1e-9 * max(1.0, expected[-1]))),
             f"{what}: sample times are not k * {step}")


def check_start(ws, vs, w0, v0, what: str):
    scale = max(1.0, float(np.max(np.abs(np.concatenate([w0, v0])))))
    ok = np.allclose(ws[0], w0, rtol=0, atol=1e-15 * scale) and np.allclose(
        vs[0], v0, rtol=0, atol=1e-15 * scale)
    _require(bool(ok), f"{what}: first row {ws[0]}, {vs[0]} is not the initial state")


def check_energy_column(ws, vs, recorded, a, what: str):
    """The recorded energy is 1/2 |v|^2 + L(w) of the recorded state."""
    expected = energy(ws, vs, a)
    err = float(np.max(np.abs(recorded - expected)))
    _require(err <= ROUNDOFF_RTOL * max(float(np.max(np.abs(expected))), 1e-300),
             f"{what}: energy column off by {err:.3e}")


def check_constant(series, what: str):
    scale = max(abs(float(series[0])), 1e-300)
    drift = float(np.max(np.abs(series - series[0]))) / scale
    _require(drift <= SHADOW_RTOL, f"{what}: relative drift {drift:.3e} > {SHADOW_RTOL:.1e}")


def verlet_shadow(ws, vs, a, h: float):
    return 0.5 * np.sum(vs * vs, axis=1) + 0.5 * np.sum(
        (ws @ (a - 0.25 * h * h * (a @ a))) * ws, axis=1)


def discrete_shadow(ws, vs, a, eta: float):
    wa = ws @ a
    return 0.5 * np.sum(vs * vs, axis=1) + 0.5 * np.sum(wa * ws, axis=1) - 0.5 * eta * np.sum(
        wa * vs, axis=1)


def exact_solution(a, gamma: float, w0, v0, t):
    """Eigenmode solution of w'' + gamma w' + A w = 0 at times t; (ws, vs)."""
    lam, q = np.linalg.eigh(np.asarray(a, dtype=float))
    _require(bool(lam.min() > 0.25 * gamma * gamma), "exact solution needs every mode underdamped")
    omega = np.sqrt(lam - 0.25 * gamma * gamma)
    c0 = np.asarray(w0, dtype=float) @ q
    s0 = (np.asarray(v0, dtype=float) @ q + 0.5 * gamma * c0) / omega
    t = np.asarray(t, dtype=float)[:, None]
    envelope = np.exp(-0.5 * gamma * t)
    cos, sin = np.cos(omega * t), np.sin(omega * t)
    osc = c0 * cos + s0 * sin
    d_osc = omega * (s0 * cos - c0 * sin)
    return (envelope * osc) @ q.T, (envelope * (d_osc - 0.5 * gamma * osc)) @ q.T


def check_exact(ws, vs, t, a, gamma, w0, v0, tol: float, what: str):
    """Max phase-space distance to the exact solution, relative to |(w0, v0)|."""
    w_ref, v_ref = exact_solution(a, gamma, w0, v0, t)
    dist = np.sqrt(np.sum((ws - w_ref) ** 2, axis=1) + np.sum((vs - v_ref) ** 2, axis=1))
    err = float(dist.max()) / math.sqrt(float(np.sum(np.square(w0)) + np.sum(np.square(v0))))
    _require(err <= tol, f"{what}: distance to the exact solution {err:.3e} > {tol:.1e}")
    return err


def check_verlet_csv(path, a, h, w0, v0, t_end):
    """A frictionless trajectory: shadow energy constant, phase near the exact orbit.

    The exact orbit drifts from the discrete one by O(h^2 T), so that check
    is loose; the shadow energy carries the sharp test.
    """
    dim = a.shape[0]
    n = steps_for(t_end, h)
    t, ws, vs, recorded = trajectory_arrays(read_csv(path), dim)
    check_grid(t, h, n, path)
    check_start(ws, vs, w0, v0, path)
    check_energy_column(ws, vs, recorded, a, path)
    check_constant(verlet_shadow(ws, vs, a, h), f"{path} shadow energy")
    check_exact(ws, vs, t, a, 0.0, w0, v0, 0.25 * h * h * (1.0 + t_end), path)
    return n


def check_damped_csv(path, a, gamma, h, w0, v0, t_end):
    """A damped trajectory: within h^2 of the exact solution (measured 0.14 h^2)."""
    dim = a.shape[0]
    n = steps_for(t_end, h)
    t, ws, vs, recorded = trajectory_arrays(read_csv(path), dim)
    check_grid(t, h, n, path)
    check_start(ws, vs, w0, v0, path)
    check_energy_column(ws, vs, recorded, a, path)
    check_exact(ws, vs, t, a, gamma, w0, v0, h * h, path)
    return n


def check_energy_table(path, sources: dict[str, np.ndarray]):
    """A combined energy table reproduces each source trajectory's energy column."""
    columns = read_csv(path)
    for name, expected in sources.items():
        _require(name in columns, f"{path}: missing column {name}")
        got = columns[name]
        _require(got.shape == expected.shape and bool(np.allclose(
            got, expected, rtol=0, atol=ROUNDOFF_RTOL * float(np.max(np.abs(expected))))),
            f"{path}: column {name} differs from its trajectory")


def discrete_reference(a, eta: float, w0, v0, n_steps: int):
    """Independent replay of v' = v - eta A w, w' = w + eta v'."""
    a = np.asarray(a, dtype=float)
    ws = np.empty((n_steps + 1, a.shape[0]))
    vs = np.empty_like(ws)
    w = np.array(w0, dtype=float)
    v = np.array(v0, dtype=float)
    ws[0], vs[0] = w, v
    for k in range(1, n_steps + 1):
        v = v - eta * (a @ w)
        w = w + eta * v
        ws[k], vs[k] = w, v
    return ws, vs


def max_drift(ws, vs, a) -> float:
    e = energy(ws, vs, a)
    return float(np.max(np.abs(e - e[0])))


def check_discrete_dir(out_dir, a, eta, w0, v0, n_steps):
    """discrete.csv and discrete_halving.csv: shadow energy and reference replay."""
    path = os.path.join(out_dir, "discrete.csv")
    t, ws, vs, recorded = trajectory_arrays(read_csv(path), a.shape[0])
    check_grid(t, 1.0, n_steps, path)
    check_start(ws, vs, w0, v0, path)
    check_energy_column(ws, vs, recorded, a, path)
    check_constant(discrete_shadow(ws, vs, a, eta), f"{path} shadow energy")
    ref_w, ref_v = discrete_reference(a, eta, w0, v0, n_steps)
    scale = math.sqrt(float(np.sum(np.square(w0)) + np.sum(np.square(v0))))
    gap = float(max(np.max(np.abs(ws - ref_w)), np.max(np.abs(vs - ref_v))))
    _require(gap <= 1e-9 * scale, f"{path}: {gap:.3e} away from the reference map")

    hpath = os.path.join(out_dir, "discrete_halving.csv")
    table = read_csv(hpath)
    half_w, half_v = discrete_reference(a, eta / 2, w0, v0, 2 * n_steps)
    expected = {
        "eta": np.array([eta, eta / 2]),
        "n_steps": np.array([n_steps, 2 * n_steps], dtype=float),
        "max_drift": np.array([max_drift(ref_w, ref_v, a), max_drift(half_w, half_v, a)]),
    }
    for name, want in expected.items():
        _require(name in table and table[name].shape == want.shape
                 and bool(np.allclose(table[name], want, rtol=1e-9, atol=0)),
                 f"{hpath}: {name} = {table.get(name)}, expected {want}")
    # the map's own n steps, then drift_profile's n at eta and 2n at eta / 2
    return 4 * n_steps


def steps_for(t_end: float, h: float) -> int:
    """Fixed-step count that reaches t_end (the last step may overshoot it)."""
    n = int(round(t_end / h))
    if n * h < t_end - 1e-12:
        n += 1
    return n


# ---------------------------------------------------------------------------
# stochastic ensembles and fits


def balance_residual(columns, gamma: float, sigma: float, dim: int) -> float:
    """Time-averaged dI/dt + gamma |v|^2 - noise work, over interior samples."""
    sl = slice(1, -1)
    residual = float(np.mean(columns["mean_dIdt"][sl]) + gamma * np.mean(columns["mean_speed_sq"][sl]))
    if "mean_noise_dot_v" in columns:
        return residual - float(np.mean(columns["mean_noise_dot_v"][sl]))
    return residual - 0.5 * sigma * sigma * dim


def check_white(residual: float, stderr: float, what: str):
    _require(stderr > 0 and math.isfinite(stderr), f"{what}: bad standard error {stderr}")
    z = residual / stderr
    _require(abs(z) <= WHITE_Z_MAX, f"{what}: balance z-score {z:.2f} beyond {WHITE_Z_MAX}")
    return z


def check_ou(residual: float, h: float, what: str):
    bound = OU_C * h * h
    _require(abs(residual) <= bound, f"{what}: balance residual {residual:.3e} beyond {bound:.1e}")
    return residual


def parse_balance(stdout: str) -> list[tuple[float, float]]:
    """(residual, stderr) pairs from the 'balance residual = R +/- S' lines, in order."""
    pairs = []
    for line in stdout.splitlines():
        if line.startswith("balance residual = "):
            fields = line.split()
            pairs.append((float(fields[3]), float(fields[5])))
    return pairs


def check_stochastic_csv(path, gamma, sigma, h, w0, v0, t_end, members, noise, printed):
    """Ensemble table: grid, exact start, centered-rate consistency and the balance."""
    columns = read_csv(path)
    n = steps_for(t_end, h)
    dim = len(w0)
    for name in ("t", "mean_I", "stderr_I", "mean_speed_sq", "mean_dIdt"):
        _require(name in columns, f"{path}: missing column {name}")
    _require(("mean_noise_dot_v" in columns) == (noise != "white"),
             f"{path}: noise-work column does not match the noise kind")
    check_grid(columns["t"], h, n, path)
    i0 = 0.5 * float(np.sum(np.square(v0)) + np.sum(np.square(w0)))
    _require(abs(columns["mean_I"][0] - i0) <= ROUNDOFF_RTOL * max(i0, 1e-300)
             and columns["stderr_I"][0] == 0.0, f"{path}: members do not share the start")
    mean_i = columns["mean_I"]
    rate = (mean_i[2:] - mean_i[:-2]) / (2.0 * h)
    gap = float(np.max(np.abs(columns["mean_dIdt"][1:-1] - rate)))
    _require(gap <= 1e-9 * max(1.0, float(np.max(np.abs(mean_i)))) / h,
             f"{path}: mean dI/dt is not the centered difference of mean I ({gap:.3e})")
    residual = balance_residual(columns, gamma, sigma, dim)
    printed_residual, printed_stderr = printed
    _require(abs(residual - printed_residual) <= 1e-10,
             f"{path}: printed residual {printed_residual} but the table gives {residual}")
    if noise == "white":
        check_white(printed_residual, printed_stderr, path)
    else:
        check_ou(printed_residual, h, path)
    return n * members


def check_sweep_csv(path, gammas):
    columns = read_csv(path)
    for name in ("gamma", "gamma_hat", "r_squared"):
        _require(name in columns, f"{path}: missing column {name}")
    _require(bool(np.array_equal(columns["gamma"], np.sort(np.asarray(gammas, dtype=float)))),
             f"{path}: gammas {columns['gamma']}")
    rel = np.abs(columns["gamma_hat"] - columns["gamma"]) / columns["gamma"]
    _require(bool(np.all(rel <= SWEEP_RTOL)), f"{path}: fitted rates off by {rel.max():.3e}")
    _require(bool(np.all(columns["r_squared"] >= 0.9999)), f"{path}: poor fits")
