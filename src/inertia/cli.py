"""Command-line experiment runner.

Each subcommand integrates a configured system, writes machine-readable
data (CSV by default, columnar JSON with ``--format json``) plus a
``manifest.json`` recording the parsed flags and the run's status, and
prints a short summary. Exit codes: 0 success, 2 invalid arguments, 3
numerical failure (including an experiment whose documented expectation
did not hold).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

import numpy as np

from .analysis import ensemble_expected_decay, sweep_gamma
from .dynamics import State, SystemSpec, shadow_inertia_rows
from .errors import InvalidArgument, NumericalFailure
from .integrators import (METHODS, RNG_ALGORITHM, IntegratorConfig, Trajectory, check_method,
                          check_step_count, discrete_trajectory, drift_profile, integrate)
from .landscapes import landscape_from_name
from .output import (format_float, record_render, write_csv, write_csvs, write_json,
                     write_manifest)
from .render import render_csv

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# flag parsing helpers


def _parse_floats(text: str, flag: str) -> list[float]:
    items = [piece for piece in text.split(",") if piece.strip() != ""]
    if not items:
        raise InvalidArgument(f"{flag} needs at least one value, got {text!r}")
    try:
        return [float(piece) for piece in items]
    except ValueError:
        raise InvalidArgument(f"{flag} expects comma-separated numbers, got {text!r}")


def _parse_gammas(text: str) -> list[float]:
    """The --gammas values, refusing two that print alike (``:g``), as labels and file names do."""
    gammas = _parse_floats(text, "--gammas")
    labels = [f"{gamma:g}" for gamma in gammas]
    twice = [label for label in labels if labels.count(label) > 1]
    if twice:
        raise InvalidArgument(f"--gammas {text!r} has two values that both print as {twice[0]}")
    return gammas


def _parse_noise(text: str) -> tuple[str, float | None]:
    if text == "white":
        return "white", None
    if text.startswith("ou:"):
        try:
            tau = float(text[3:])
        except ValueError:
            raise InvalidArgument(f"bad correlation time in --noise {text!r}")
        return "ou", tau
    raise InvalidArgument(f"--noise must be 'white' or 'ou:<tau>', got {text!r}")


def _coords(text: str, flag: str, dim: int) -> list[float]:
    """The point ``text`` given to ``flag``: ``dim`` finite, comma-separated numbers."""
    point = _parse_floats(text, flag)
    if len(point) != dim:
        raise InvalidArgument(
            f"{flag} point {text!r} has {len(point)} coordinates, landscape needs {dim}"
        )
    if not np.all(np.isfinite(point)):
        raise InvalidArgument(f"{flag} point {text!r} is not finite")
    return point


def _parse_inits(text: str, dim: int) -> list[list[float]]:
    inits = [_coords(piece, "--inits", dim) for piece in text.split(";") if piece.strip() != ""]
    if not inits:
        raise InvalidArgument(f"--inits needs at least one initialization, got {text!r}")
    return inits


def _resolve_method(gamma: float, override: str | None) -> str:
    """Pick the deterministic integrator: verlet when frictionless, else splitting."""
    return override or ("verlet" if gamma == 0 else "damped_splitting")


def _initial(args, landscape) -> State:
    return State(_coords(args.w0, "--w0", landscape.dim), _coords(args.v0, "--v0", landscape.dim))


def _runs(args, landscape, gammas) -> list[tuple[SystemSpec, IntegratorConfig]]:
    """Spec and config per gamma, with --method or the method gamma picks.

    Every gamma is checked before any is integrated, so a refused gamma
    exits 2 before an earlier one has written its file.
    """
    runs = []
    for gamma in gammas:
        spec = SystemSpec(landscape=landscape, gamma=gamma)
        config = IntegratorConfig(method=_resolve_method(gamma, args.method), h=args.h,
                                  t_end=args.T)
        check_method(spec, config.method)
        runs.append((spec, config))
    return runs


def _trajectory(write, stem, spec, initial, config) -> Trajectory:
    """Integrate ``initial`` and write the run as ``stem``."""
    trajectory = integrate(spec, initial, config)
    write({stem: _trajectory_columns(trajectory.ws, trajectory.vs, trajectory.inertia,
                                     t=trajectory.times)})
    return trajectory


def _trajectory_columns(ws, vs, inertia, **axis) -> dict[str, np.ndarray]:
    """The trajectory schema: the one ``axis`` column, w0.., v0.., inertia."""
    columns = dict(axis)
    columns.update((f"w{i}", ws[:, i]) for i in range(ws.shape[1]))
    columns.update((f"v{i}", vs[:, i]) for i in range(vs.shape[1]))
    columns["inertia"] = inertia
    return columns


def _drift(energy: np.ndarray) -> tuple[float, float]:
    """max |I_t - I_0|, and the same relative to I_0 (absolute when I_0 is 0)."""
    drift = float(np.max(np.abs(energy - energy[0])))
    return drift, drift / (energy[0] if energy[0] != 0 else 1.0)


# ---------------------------------------------------------------------------
# the run protocol


def _parameters(args) -> dict:
    """The parsed flags, less those that place the output; the seed has its own field."""
    return {k: v for k, v in vars(args).items()
            if k not in ("command", "func", "out_dir", "format", "seed")}


def _experiment(body):
    """Wrap ``body(args, write)`` in the run protocol shared by every experiment.

    ``write({stem: columns, ...}, then)`` writes one data file per table in
    --format, several CSVs in one pass (``write_csvs``), then records and
    prints each path in turn, calling ``then(stem)``, if given, after each.
    ``manifest.json`` follows when the body returns, and also when it raises
    NumericalFailure, with a ``status`` that names the failure. Its
    ``parameters`` are the parsed flags: a body that derives a default from
    other flags stores the resolved value back in ``args``. An InvalidArgument
    leaves no manifest.
    """

    @functools.wraps(body)
    def run(args) -> int:
        started = time.monotonic()
        outputs: list[str] = []

        def write(tables: dict[str, dict], then=None) -> None:
            paths = {stem: os.path.join(args.out_dir, f"{stem}.{args.format}") for stem in tables}
            os.makedirs(args.out_dir, exist_ok=True)
            if args.format == "json":
                for stem, columns in tables.items():
                    write_json(paths[stem], columns)
            elif len(tables) == 1:  # the writer perfbench's tracer times
                write_csv(*paths.values(), *tables.values())
            else:
                write_csvs({paths[stem]: columns for stem, columns in tables.items()})
            for stem, path in paths.items():
                outputs.append(os.path.basename(path))
                print(f"wrote {path}")
                if then is not None:
                    then(stem)

        def manifest(status: dict) -> None:
            os.makedirs(args.out_dir, exist_ok=True)
            seed = getattr(args, "seed", None)
            write_manifest(args.out_dir, args.command, _parameters(args), outputs,
                           time.monotonic() - started, seed=seed,
                           rng_algorithm=None if seed is None else RNG_ALGORITHM,
                           status=status)

        try:
            body(args, write)
        except NumericalFailure as exc:
            manifest({"state": "failed", "exit_code": 3, "error": str(exc),
                      "step_index": exc.step_index, "member": exc.member})
            raise
        manifest({"state": "ok"})
        return 0

    return run


# ---------------------------------------------------------------------------
# subcommands


@_experiment
def cmd_conserve(args, write) -> None:
    landscape = landscape_from_name(args.landscape)
    initial = _initial(args, landscape)
    gammas = [0.0]
    if args.gamma != 0.0:
        gammas.append(args.gamma)

    # Every gamma is integrated before any table is written, so that all the
    # tables are written in one pass; a run that fails has the runs before it
    # written and reported first.
    runs, failure = {}, None
    for spec, config in _runs(args, landscape, gammas):
        try:
            runs[f"conserve_g{spec.gamma:g}"] = integrate(spec, initial, config)
        except NumericalFailure as exc:
            failure = exc
            break
    # every gamma takes the same steps of the same h, so one t serves every table
    t = next((trajectory.times for trajectory in runs.values()), None)
    tables = {stem: _trajectory_columns(trajectory.ws, trajectory.vs, trajectory.inertia, t=t)
              for stem, trajectory in runs.items()}
    if len(runs) > 1:
        tables["conserve"] = {"t": t, **{f"inertia_g{trajectory.spec.gamma:g}": trajectory.inertia
                                         for trajectory in runs.values()}}

    def report(stem):
        if stem not in runs:
            return
        trajectory = runs[stem]
        gamma, method, energy = trajectory.spec.gamma, trajectory.config.method, trajectory.inertia
        print(f"gamma={gamma:g} ({method}): max relative inertia drift = {_drift(energy)[1]:.3e}")
        if gamma > 0:
            # a run from rest at the minimum has no ratio; print I(T) itself
            ratio = (f"I(T)/I(0) = {energy[-1] / energy[0]:.6f}" if energy[0] != 0
                     else f"I(T) = {energy[-1]:.6f} (I(0) = 0)")
            # n_steps rounds up, so a run may end past --T: T is its last recorded time
            decay = np.exp(-gamma * trajectory.times[-1])
            print(f"gamma={gamma:g}: {ratio}, exp(-gamma*T) = {decay:.6f}")
        if method == "explicit_euler" and np.all(np.diff(energy) > 0):
            print(
                "warning: explicit_euler grows the energy monotonically; "
                "it is the negative control, not a production integrator"
            )

    write(tables, report)
    if failure is not None:
        raise failure


@_experiment
def cmd_phase(args, write) -> None:
    landscape = landscape_from_name(args.landscape)
    initial = _initial(args, landscape)
    for spec, config in _runs(args, landscape, _parse_gammas(args.gammas)):
        gamma = spec.gamma
        trajectory = _trajectory(write, f"phase_g{gamma:g}", spec, initial, config)
        if gamma == 0:
            # a frictionless orbit must return near its starting point
            late = trajectory.times >= 0.5 * args.T
            gaps = np.sqrt(
                np.sum((trajectory.ws[late] - initial.w) ** 2, axis=1)
                + np.sum((trajectory.vs[late] - initial.v) ** 2, axis=1)
            )
            closure = float(gaps.min())
            print(f"gamma=0: orbit closure distance = {closure:.3e}")
            if closure > 1e-3:
                raise NumericalFailure(
                    f"frictionless orbit failed to close: distance {closure:.3e} > 1e-3"
                )
        else:
            radius = float(
                np.sqrt(np.sum(trajectory.ws[-1] ** 2) + np.sum(trajectory.vs[-1] ** 2))
            )
            print(f"gamma={gamma:g}: final phase-space radius = {radius:.4f}")


@_experiment
def cmd_sweep(args, write) -> None:
    gammas = _parse_gammas(args.gammas)
    # the decay-rate sweep runs on the 1D quadratic
    initial = _initial(args, landscape_from_name("iso1d"))
    entries = sweep_gamma(gammas, h=args.h, n_periods=args.periods,
                          w0=initial.w[0], v0=initial.v[0])
    nan = float("nan")
    write({
        "sweep": {
            "gamma": np.array([e.gamma for e in entries]),
            "gamma_hat": np.array([nan if e.gamma_hat is None else e.gamma_hat for e in entries]),
            "r_squared": np.array([nan if e.r_squared is None else e.r_squared for e in entries]),
        },
    })

    failed = [e for e in entries if e.error is not None]
    for entry in failed:
        print(f"gamma={entry.gamma:g}: fit failed: {entry.error}", file=sys.stderr)
    fitted = [e for e in entries if e.gamma_hat is not None]
    for entry in fitted:
        print(
            f"gamma={entry.gamma:g}: gamma_hat = {entry.gamma_hat:.6f} "
            f"(r^2 = {entry.r_squared:.9f})"
        )
    if len(fitted) >= 2:
        rates = [e.gamma_hat for e in fitted]
        if not all(b > a for a, b in zip(rates, rates[1:])):
            raise NumericalFailure("fitted decay rates are not monotone in gamma")
        slope = float(np.polyfit([e.gamma for e in fitted], rates, 1)[0])
        print(f"regression slope of gamma_hat vs gamma = {slope:.6f}")
    if failed:
        raise NumericalFailure(f"{len(failed)} of {len(entries)} fits failed")


@_experiment
def cmd_traj2d(args, write) -> None:
    landscape = landscape_from_name(args.landscape)
    inits = _parse_inits(args.inits, landscape.dim)
    if args.v0 is None:
        args.v0 = ",".join(["0"] * landscape.dim)
    v0 = _coords(args.v0, "--v0", landscape.dim)
    args.method = _resolve_method(args.gamma, args.method)
    (spec, config), = _runs(args, landscape, [args.gamma])
    starts = [State(w0, v0) for w0 in inits]  # all checked before the first run

    for index, (w0, start) in enumerate(zip(inits, starts)):
        trajectory = _trajectory(write, f"traj2d_init{index}", spec, start, config)
        energy = trajectory.inertia
        if args.gamma == 0:
            drift = _drift(energy)[1]
            print(f"init {w0}: inertia = {energy[0]:g}, max relative drift = {drift:.3e}")
            if drift > 1e-4:
                raise NumericalFailure(
                    f"frictionless trajectory {index} drifted by {drift:.3e} > 1e-4"
                )
        else:
            print(f"init {w0}: inertia {energy[0]:g} -> {energy[-1]:.6g}")
            judged = "energy"
            if config.method == "damped_splitting":
                # the shadow energy falls at every step; I need not
                energy = shadow_inertia_rows(trajectory.ws, trajectory.vs, landscape, config.h)
                judged = "modified energy"
            increase = float(np.diff(energy).max())
            if increase > 1e-12 * max(1.0, float(np.abs(energy).max())):  # round-off
                raise NumericalFailure(
                    f"damped trajectory {index} has an {judged} increase of {increase:.3e}"
                )


@_experiment
def cmd_discrete(args, write) -> None:
    landscape = landscape_from_name(args.landscape)
    if not 0 < args.eta < np.inf:
        raise InvalidArgument(f"--eta must be positive and finite, got {args.eta}")
    if args.steps is None:
        check_step_count(10.0 / args.eta)  # 10 / eta may overflow to inf, which int() refuses
        args.steps = int(round(10.0 / args.eta))
        if args.steps < 1:
            raise InvalidArgument(f"--eta {args.eta:g} leaves no step of the default horizon: "
                                  "--steps defaults to round(10 / eta) = 0; pass --steps")
    n_steps = args.steps
    if n_steps < 1:
        raise InvalidArgument(f"--steps must be >= 1, got {n_steps}")
    if args.eta_halving:
        # the eta/2 run's refusals, before the run at eta writes discrete.csv
        check_step_count(2 * n_steps)
        if not args.eta / 2 > 0:
            raise InvalidArgument(f"--eta {args.eta:g} has no positive half for --eta-halving")
    initial = _initial(args, landscape)

    ws, vs, energy = discrete_trajectory(initial.w, initial.v, args.eta, n_steps, landscape)
    write({"discrete":
           _trajectory_columns(ws, vs, energy, step=np.arange(n_steps + 1, dtype=float))})
    max_drift, relative = _drift(energy)
    print(
        f"eta={args.eta:g}, {n_steps} steps: max |I_t - I_0| = {max_drift:.3e} "
        f"({relative:.3%} of I_0)"
    )

    if args.eta_halving:
        # drift_profile(eta, n_steps) is this run's own energy series, so
        # max_drift is its drift; only eta/2 needs a new run.
        _, drift_half = drift_profile(initial.w, initial.v, args.eta / 2, 2 * n_steps, landscape)
        write({
            "discrete_halving": {
                "eta": np.array([args.eta, args.eta / 2]),
                "n_steps": np.array([float(n_steps), float(2 * n_steps)]),
                "max_drift": np.array([max_drift, drift_half]),
            },
        })
        if drift_half > 0:
            print(f"drift ratio eta vs eta/2 (same horizon): {max_drift / drift_half:.3f}")


@_experiment
def cmd_stochastic(args, write) -> None:
    landscape = landscape_from_name(args.landscape)
    initial = _initial(args, landscape)
    noise_kind, tau = _parse_noise(args.noise)

    spec = SystemSpec(
        landscape=landscape, gamma=args.gamma, sigma=args.sigma,
        noise_kind=noise_kind, tau=tau,
    )
    config = IntegratorConfig(method="stochastic_splitting", h=args.h, t_end=args.T,
                              seed=args.seed)
    result = ensemble_expected_decay(spec, initial, config, args.members)
    columns = {
        "t": result.times,
        "mean_I": result.inertia.mean_series,
        "stderr_I": result.inertia.stderr_series,
        "mean_speed_sq": result.speed_squared.mean_series,
        "mean_dIdt": result.inertia_rate.mean_series,
    }
    if result.mean_noise_dot_v is not None:
        columns["mean_noise_dot_v"] = result.mean_noise_dot_v
    write({"stochastic": columns})
    print(
        f"balance residual = {format_float(result.balance_residual)} "
        f"+/- {format_float(result.balance_stderr)} ({args.members} members)"
    )


def cmd_render(args) -> int:
    out_dir = os.path.dirname(args.out) or "."
    os.makedirs(out_dir, exist_ok=True)
    started = time.monotonic()
    render_csv(args.input, args.out, xy=args.xy)
    print(f"wrote {args.out}")
    record_render(out_dir, os.path.basename(args.out), _parameters(args),
                  time.monotonic() - started)
    return 0


# ---------------------------------------------------------------------------
# parser and entry point


def _common_flags(names: str, **defaults) -> argparse.ArgumentParser:
    """Parent parser with the shared flags in ``names`` plus --out-dir and --format.

    A subcommand lists only the flags it reads, so argparse refuses the rest;
    ``defaults`` overrides shared defaults for this subcommand.
    """
    # Built fresh per subcommand: argparse parents share action objects, so a
    # single parent would leak per-subcommand default overrides to the others.
    shared = {
        "gamma": dict(type=float, default=0.4, help="damping coefficient"),
        "sigma": dict(type=float, default=0.0, help="noise amplitude"),
        "noise": dict(default="white", help="noise kind: white or ou:<tau>"),
        # the subcommands that take --method integrate noise-free systems only
        "method": dict(choices=[m for m in METHODS if m != "stochastic_splitting"], default=None,
                       help="integrator (default: verlet at gamma = 0, else damped_splitting)"),
        "h": dict(type=float, default=0.01, help="integration step size"),
        "T": dict(type=float, default=10.0, help="time horizon"),
        "seed": dict(type=int, default=0, help="RNG seed (stochastic runs)"),
        "landscape": dict(default="iso1d", help="loss surface: iso<N>d or diag:<d1,d2,...>"),
        "w0": dict(default="1", help="initial parameters, comma-separated"),
        "v0": dict(default="0", help="initial velocity, comma-separated"),
    }
    common = argparse.ArgumentParser(add_help=False)
    for name in names.split():
        common.add_argument(f"--{name}", **shared[name])
    common.set_defaults(**defaults)
    common.add_argument("--out-dir", default="out", help="output directory")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inertia",
        description="Energy-conservation experiments for continuous-time momentum dynamics.",
    )
    # No prefix matching: phase --gamma would otherwise be read as --gammas.
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("conserve",
                   parents=[_common_flags("gamma method h T landscape w0 v0")],
                   help="frictionless vs damped energy traces")
    p.set_defaults(func=cmd_conserve)

    p = add_parser("phase", parents=[_common_flags("method h T landscape w0 v0", T=20.0)],
                   help="phase-space orbits and spirals")
    p.add_argument("--gammas", default="0,0.4", help="damping values, comma-separated")
    p.set_defaults(func=cmd_phase)

    p = add_parser("sweep", parents=[_common_flags("h w0 v0")],
                   help="fitted decay rate vs damping")
    p.add_argument("--gammas", default="0.1,0.2,0.4,0.8", help="damping values, comma-separated")
    p.add_argument("--periods", type=int, default=5, help="fit window length in damped periods")
    p.set_defaults(func=cmd_sweep)

    p = add_parser("traj2d",
                   parents=[_common_flags("gamma method h T landscape v0",
                                          landscape="iso2d", v0=None)],
                   help="2D trajectories with energy coloring data")
    p.add_argument("--inits", default="1,0;0,1;1,1",
                   help="semicolon-separated initial points, e.g. '1,0;0,1'")
    p.set_defaults(func=cmd_traj2d)

    p = add_parser("discrete", parents=[_common_flags("landscape w0 v0")],
                   help="discrete momentum map energy drift")
    p.add_argument("--eta", type=float, default=0.01, help="discrete step size")
    p.add_argument("--steps", type=int, default=None,
                   help="number of steps (default: horizon 10 / eta)")
    p.add_argument("--eta-halving", action="store_true",
                   help="also run eta/2 over the same horizon and report the drift ratio")
    p.set_defaults(func=cmd_discrete)

    p = add_parser("stochastic",
                   parents=[_common_flags("gamma sigma noise h T seed landscape w0 v0",
                                          sigma=0.3)],
                   help="noisy ensemble decay balance")
    p.add_argument("--members", type=int, default=100, help="ensemble size")
    p.set_defaults(func=cmd_stochastic)

    p = add_parser("render", help="plot a CSV produced by another subcommand as SVG")
    p.add_argument("--input", required=True, help="input CSV file")
    p.add_argument("--out", required=True, help="output SVG file")
    p.add_argument("--xy", default=None, help="plot <ycol> against <xcol> as 'xcol:ycol'")
    p.set_defaults(func=cmd_render)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process: parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidArgument as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
