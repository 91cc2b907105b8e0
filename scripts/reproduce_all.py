#!/usr/bin/env python3
"""Rerun every experiment at desk scale and render the figures.

Each experiment lands in <root>/<name>/ with its CSVs, a manifest, and
SVG plots. Everything is seeded, so two invocations produce identical
bytes (timestamps live only in the manifests).

Where ``inertia.forking.may_fork`` holds, this process and one worker
beside it (``inertia.forking.beside``) claim the experiments in list order
from a pipe holding one byte per index; a one-byte read from a pipe is
atomic, so each runs in exactly one process. Both capture their stdout and
stderr, and this process prints it all in list order, as one process would.
An experiment that the worker did not deliver runs here in its turn.
"""

import argparse
import contextlib
import io
import json
import os
import sys

from inertia.cli import main as run_cli
from inertia.forking import beside, may_fork

EXPERIMENTS = [
    # (name, argv, [(csv, svg, xy), ...])
    ("conserve", ["conserve"],
     [("conserve.csv", "conserve.svg", None)]),
    ("phase", ["phase"],
     [("phase_g0.csv", "orbit.svg", "w0:v0"),
      ("phase_g0.4.csv", "spiral.svg", "w0:v0")]),
    ("sweep", ["sweep"],
     [("sweep.csv", "sweep.svg", "gamma:gamma_hat")]),
    ("traj2d", ["traj2d", "--gamma", "0"],
     [(f"traj2d_init{i}.csv", f"orbit2d_{i}.svg", "w0:w1") for i in range(3)]),
    ("traj2d-damped", ["traj2d", "--gamma", "0.4"],
     [(f"traj2d_init{i}.csv", f"spiral2d_{i}.svg", "w0:w1") for i in range(3)]),
    ("discrete", ["discrete", "--eta-halving"],
     [("discrete.csv", "discrete.svg", "step:inertia")]),
    ("stochastic-white", ["stochastic", "--members", "200"],
     [("stochastic.csv", "decay.svg", "t:mean_I")]),
    ("stochastic-corr", ["stochastic", "--members", "200", "--noise", "ou:0.5"],
     [("stochastic.csv", "decay.svg", "t:mean_I")]),
]


def _run(index: int, root: str) -> int:
    """Run EXPERIMENTS[index] and render its plots; return the first nonzero exit code, or 0."""
    name, argv, plots = EXPERIMENTS[index]
    out_dir = os.path.join(root, name)
    print(f"== {name}: inertia {' '.join(argv)}")
    code = run_cli(argv + ["--out-dir", out_dir])
    if code != 0:
        print(f"{name} failed with exit code {code}", file=sys.stderr)
        return code
    for csv, svg, xy in plots:
        render = ["render", "--input", os.path.join(out_dir, csv),
                  "--out", os.path.join(out_dir, svg)]
        if xy:
            render += ["--xy", xy]
        code = run_cli(render)
        if code != 0:
            print(f"rendering {csv} failed with exit code {code}", file=sys.stderr)
            return code
    return 0


def _claim(queue: int) -> int | None:
    """The next index in ``queue``, or None once it is empty."""
    byte = os.read(queue, 1)
    return byte[0] if byte else None


def _run_claimed(queue: int, root: str, index: int | None) -> dict:
    """Run experiment ``index`` and each one claimed after it, with stdout and stderr captured.

    Returns {index: [code, stdout, stderr]}. Claiming stops when the queue
    is empty or an experiment fails; a failure empties the queue, so no
    later experiment starts. One that raises is left out, to be rerun in
    process, where it raises again with the output it printed.
    """
    results = {}
    while index is not None:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = _run(index, root)
            results[index] = [code, out.getvalue(), err.getvalue()]
        except (Exception, SystemExit):
            code = None
        if code != 0:
            os.read(queue, len(EXPERIMENTS))
            break
        index = _claim(queue)
    return results


def _run_in_two_processes(root: str) -> dict:
    """{index: [code, stdout, stderr]} of the experiments run here and in a worker beside.

    This process claims index 0 before the worker starts. If the queue's
    pipe fails, nothing runs here and the result is empty.
    """
    fds = []
    try:
        fds += os.pipe()
        os.write(fds[1], bytes(range(len(EXPERIMENTS))))
        first = _claim(fds[0])
    except OSError:  # no file to spare: run everything in process
        for fd in fds:
            os.close(fd)
        return {}
    queue, fill = fds
    os.close(fill)  # with every write end closed, an empty queue reads as its end
    try:
        results, sent = beside(
            lambda: json.dumps(_run_claimed(queue, root, _claim(queue))).encode(),
            lambda: _run_claimed(queue, root, first))
    finally:
        os.close(queue)
    if sent is not None:
        results.update((int(index), result) for index, result in json.loads(sent).items())
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default="runs", help="output root directory")
    args = parser.parse_args()

    results = _run_in_two_processes(args.root) if may_fork() else {}
    for index in range(len(EXPERIMENTS)):
        if index in results:
            code, out, err = results[index]
            sys.stdout.write(out)
            sys.stderr.write(err)
        else:
            code = _run(index, args.root)
        if code != 0:
            return code
    print(f"all experiments written under {args.root}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
