"""Acceptance gate: the twelve headline checks, one printed line each.

Each test recomputes its quantities from scratch through the public API
(or the CLI), prints ``criterion NN: PASS/FAIL - ...`` with capture suspended so the
lines always reach the terminal, and then asserts.
"""

import math
import os
import time

import numpy as np

from inertia import (
    IntegratorConfig,
    State,
    SystemSpec,
    closed_form_underdamped,
    damped_period,
    drift_profile,
    ensemble_expected_decay,
    fit_decay_rate,
    integrate,
    momentum_step,
    quadratic_general,
    quadratic_isotropic,
    sweep_gamma,
)
from inertia.cli import main
from inertia.errors import NumericalFailure

from gradients import check_gradient

ISO1 = quadratic_isotropic(1)
ISO2 = quadratic_isotropic(2)


def _report(capsys, index: int, ok: bool, description: str, detail: str = ""):
    line = f"criterion {index:2d}: {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" [{detail}]"
    with capsys.disabled():
        print(line, flush=True)


def _run(method, gamma, h, t_end, w0=(1.0,), v0=(0.0,), landscape=ISO1):
    spec = SystemSpec(landscape=landscape, gamma=gamma)
    cfg = IntegratorConfig(method=method, h=h, t_end=t_end)
    return integrate(spec, State(list(w0), list(v0)), cfg)


def _dissipation_identity_error(h: float) -> float:
    """Max gap in dI/dt = -gamma ||v||^2 (centered differences, interior)."""
    traj = _run("damped_splitting", 0.4, h, 10.0)
    rate = (traj.inertia[2:] - traj.inertia[:-2]) / (2.0 * h)
    target = -0.4 * traj.speed_squared[1:-1]
    return float(np.max(np.abs(rate - target)))


def test_criterion_01_frictionless_conservation(capsys):
    started = time.perf_counter()
    traj = _run("verlet", 0.0, 0.01, 10.0)
    elapsed = time.perf_counter() - started
    drift = float(np.max(np.abs(traj.inertia - traj.inertia[0])) / traj.inertia[0])
    ok = drift <= 1e-4 and elapsed < 1.0
    _report(capsys, 1, ok, "frictionless energy conservation",
            f"relative drift {drift:.2e} <= 1e-4, {elapsed:.3f}s")
    assert ok


def test_criterion_02_dissipation_identity_converges(capsys):
    err_coarse = _dissipation_identity_error(0.02)
    err_fine = _dissipation_identity_error(0.01)
    ratio = err_coarse / err_fine
    ok = ratio >= 3.5
    _report(capsys, 2, ok, "dissipation identity error shrinks with the step",
            f"err(0.02)={err_coarse:.2e}, err(0.01)={err_fine:.2e}, ratio {ratio:.3f} >= 3.5")
    assert ok


def test_criterion_03_decay_rate_fit(capsys):
    period = damped_period(0.4)
    traj = _run("damped_splitting", 0.4, 0.01, 5 * period)
    fit = fit_decay_rate(traj, (0.0, traj.times[-1]), smooth_period=period)
    ok = 0.38 <= fit.gamma_hat <= 0.42 and fit.r_squared >= 0.999
    _report(capsys, 3, ok, "decay-rate fit over five periods",
            f"gamma_hat {fit.gamma_hat:.6f} in [0.38, 0.42], r^2 {fit.r_squared:.6f} >= 0.999")
    assert ok


def test_criterion_04_gamma_sweep(capsys):
    gammas = [0.1, 0.2, 0.4, 0.8]
    entries = sweep_gamma(gammas)
    rel_errs = [abs(e.gamma_hat - e.gamma) / e.gamma for e in entries]
    hats = [e.gamma_hat for e in entries]
    slope = float(np.polyfit(gammas, hats, 1)[0])
    ok = (
        all(e.error is None for e in entries)
        and max(rel_errs) <= 0.05
        and all(b > a for a, b in zip(hats, hats[1:]))
        and 0.95 <= slope <= 1.05
    )
    _report(capsys, 4, ok, "fitted rate tracks the true damping",
            f"max rel err {max(rel_errs):.4f} <= 0.05, slope {slope:.4f} in [0.95, 1.05]")
    assert ok


def test_criterion_05_matches_closed_form(capsys):
    traj = _run("damped_splitting", 0.4, 0.01, 10.0)
    sol = closed_form_underdamped(0.4, 1.0, 0.0)
    max_err = float(np.max(np.abs(traj.ws[:, 0] - sol.position(traj.times))))
    t = np.linspace(0.0, 10.0, 1000)
    residual = float(np.max(np.abs(
        sol.acceleration(t) + 0.4 * sol.velocity(t) + sol.position(t)
    )))
    ok = max_err <= 1e-3 and residual <= 1e-9
    _report(capsys, 5, ok, "damped run matches the analytic solution",
            f"max |w - w_exact| {max_err:.2e} <= 1e-3, motion-equation residual {residual:.2e} <= 1e-9")
    assert ok


def test_criterion_06_phase_portraits(capsys):
    orbit = _run("verlet", 0.0, 0.01, 10.0)
    radius_sq = orbit.ws[:, 0] ** 2 + orbit.vs[:, 0] ** 2
    band = float(np.max(np.abs(radius_sq - 1.0)))
    spiral = _run("damped_splitting", 0.4, 0.01, 10.0)
    final_radius = float(math.hypot(spiral.ws[-1, 0], spiral.vs[-1, 0]))
    ok = band <= 2e-4 and final_radius < 0.15
    _report(capsys, 6, ok, "circular orbit and inward spiral",
            f"|w^2+v^2 - 1| <= {band:.2e} (tol 2e-4), damped final radius {final_radius:.4f} < 0.15")
    assert ok


def test_criterion_07_2d_trajectories(capsys):
    inits = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    drifts = []
    for w0 in inits:
        traj = _run("verlet", 0.0, 0.01, 10.0, w0=w0, v0=(0.0, 0.0), landscape=ISO2)
        drifts.append(float(np.max(np.abs(traj.inertia - traj.inertia[0])) / traj.inertia[0]))
    max_increase = -np.inf
    for w0 in inits:
        traj = _run("damped_splitting", 0.4, 0.01, 10.0, w0=w0, v0=(0.0, 0.0), landscape=ISO2)
        max_increase = max(max_increase, float(np.diff(traj.inertia).max()))
    ok = max(drifts) <= 1e-4 and max_increase <= 1e-12
    _report(capsys, 7, ok, "2D energy plateaus and monotone decay",
            f"max frictionless drift {max(drifts):.2e} <= 1e-4, "
            f"max damped increase {max_increase:.2e} <= 1e-12")
    assert ok


def test_criterion_08_discrete_map(capsys):
    _, drift = drift_profile([1.0], [0.0], 0.01, 1000, ISO1)
    rel_drift = drift / 0.5

    _, drift_half = drift_profile([1.0], [0.0], 0.005, 2000, ISO1)
    ratio = drift / drift_half

    dets = []
    for eta in (0.005, 0.01, 0.02, 0.1, 0.5):
        e_w = momentum_step(State([1.0], [0.0]), eta, ISO1)
        e_v = momentum_step(State([0.0], [1.0]), eta, ISO1)
        dets.append(e_w.w[0] * e_v.v[0] - e_v.w[0] * e_w.v[0])

    series, _ = drift_profile([1.0], [0.0], 1.9, 1_000_000, ISO1)
    bounded = float(series.max()) <= 10.0 + 1e-9
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            drift_profile([1.0], [0.0], 2.1, 5000, ISO1)
        diverged = False
    except NumericalFailure:
        diverged = True

    ok = (
        rel_drift <= 0.01
        and 1.8 <= ratio <= 2.2
        and all(det == 1.0 for det in dets)
        and bounded
        and diverged
    )
    _report(capsys, 8, ok, "discrete momentum map",
            f"drift {rel_drift:.4%} <= 1%, halving ratio {ratio:.3f} in [1.8, 2.2], "
            f"det exactly 1.0, eta=1.9 bounded, eta=2.1 diverges")
    assert ok


def test_criterion_09_stochastic_balance(capsys):
    started = time.perf_counter()
    init = State([1.0], [0.0])

    # degenerate sigma = 0: deterministic identity, zero scatter
    def degenerate_err(h):
        spec = SystemSpec(landscape=ISO1, gamma=0.4, sigma=0.0, noise_kind="white")
        cfg = IntegratorConfig(method="stochastic_splitting", h=h, t_end=10.0, seed=0)
        res = ensemble_expected_decay(spec, init, cfg, 100)
        assert np.all(res.inertia.stderr_series == 0.0)
        gap = res.inertia_rate.mean_series[1:-1] + 0.4 * res.speed_squared.mean_series[1:-1]
        return float(np.max(np.abs(gap)))

    degenerate_ratio = degenerate_err(0.02) / degenerate_err(0.01)

    white = SystemSpec(landscape=ISO1, gamma=0.4, sigma=0.3, noise_kind="white")
    cfg10 = IntegratorConfig(method="stochastic_splitting", h=0.01, t_end=10.0, seed=0)
    res_w = ensemble_expected_decay(white, init, cfg10, 1000)
    z_white = abs(res_w.balance_residual) / res_w.balance_stderr

    corr = SystemSpec(landscape=ISO1, gamma=0.4, sigma=0.3, noise_kind="ou", tau=0.5)
    cfg20 = IntegratorConfig(method="stochastic_splitting", h=0.01, t_end=20.0, seed=0)
    res_c = ensemble_expected_decay(corr, init, cfg20, 1000, burn_in=10.0)
    z_corr = abs(res_c.balance_residual) / res_c.balance_stderr

    elapsed = time.perf_counter() - started
    ok = degenerate_ratio >= 3.5 and z_white <= 3.0 and z_corr <= 3.0 and elapsed < 120.0
    _report(capsys, 9, ok, "noisy energy balance to three standard errors",
            f"degenerate halving {degenerate_ratio:.3f} >= 3.5, white |z| {z_white:.2f} <= 3, "
            f"correlated |z| {z_corr:.2f} <= 3, {elapsed:.1f}s < 120s")
    assert ok


def test_criterion_10_euler_negative_control(capsys):
    traj = _run("explicit_euler", 0.0, 0.01, 10.0)
    ok = bool(np.all(np.diff(traj.inertia) > 0.0))
    _report(capsys, 10, ok, "explicit Euler strictly gains energy",
            f"min per-step gain {np.diff(traj.inertia).min():.2e} > 0")
    assert ok


def test_criterion_11_gradient_checks(capsys):
    landscapes = {
        "iso1d": ISO1,
        "iso2d": ISO2,
        "iso5d": quadratic_isotropic(5),
        "diag(1,4)": quadratic_general([[1.0, 0.0], [0.0, 4.0]]),
        "coupled": quadratic_general([[2.0, 0.5], [0.5, 1.0]]),
        "flat": quadratic_general([[0.0]]),
    }
    rng = np.random.default_rng(12345)
    worst = 0.0
    for ls in landscapes.values():
        for _ in range(100):
            w = rng.uniform(-5.0, 5.0, size=ls.dim)
            worst = max(worst, check_gradient(ls, w))
    ok = worst <= 1e-6
    _report(capsys, 11, ok, "analytic gradients match finite differences",
            f"worst error {worst:.2e} <= 1e-6 over {len(landscapes)} landscapes x 100 points")
    assert ok


def test_criterion_12_byte_identical_reruns(tmp_path, capsys):
    commands = {
        "conserve": ["conserve"],
        "phase": ["phase"],
        "sweep": ["sweep"],
        "traj2d": ["traj2d", "--gamma", "0"],
        "discrete": ["discrete", "--eta-halving"],
        "stochastic-white": ["stochastic", "--members", "100", "--T", "5"],
        "stochastic-corr": ["stochastic", "--members", "100", "--T", "5", "--noise", "ou:0.5"],
    }
    mismatches = []
    for name, argv in commands.items():
        outs = []
        for attempt in ("first", "second"):
            out_dir = str(tmp_path / name / attempt)
            code = main(argv + ["--out-dir", out_dir])
            assert code == 0, (name, attempt)
            data = {
                f: open(os.path.join(out_dir, f), "rb").read()
                for f in sorted(os.listdir(out_dir))
                if f.endswith(".csv")
            }
            outs.append(data)
        if outs[0] != outs[1]:
            mismatches.append(name)

    # rendering is part of the pipeline: identical input, identical bytes
    src = str(tmp_path / "conserve" / "first" / "conserve.csv")
    svgs = []
    for attempt in ("first", "second"):
        out = str(tmp_path / f"render-{attempt}.svg")
        assert main(["render", "--input", src, "--out", out]) == 0
        svgs.append(open(out, "rb").read())
    if svgs[0] != svgs[1]:
        mismatches.append("render")

    ok = not mismatches
    _report(capsys, 12, ok, "identical seeds give byte-identical outputs",
            "all subcommands" if ok else f"mismatches: {mismatches}")
    assert ok
