"""One iteration of one workload, in a fresh interpreter.

Usage: python3 child.py <spec.json> <result.json>

run.py writes the spec, starts this process with the working
directory set to the iteration's output directory, and reads the result
(and, for a traced iteration, the spans file the spec names).
Set-up ends at the first call that integrates (marked by a one-shot hook
that removes itself), so interpreter start, ``import inertia``, argument
parsing and building the landscape, spec and config all count as set-up.
Each operation's failure is recorded, never raised, so one broken
operation does not hide the others.
"""

import contextlib
import io
import json
import os
import runpy
import sys
import time
import traceback

import numpy as np

import inertia
import inertia.cli

# Names whose first call marks the first integration step of a CLI run.
_FIRST_STEP = ("integrate", "ensemble_expected_decay", "sweep_gamma", "drift_profile",
               "momentum_step")


class FirstStep:
    """Records when the first integrating call starts, then restores the originals."""

    def __init__(self):
        self.at = None
        self._saved = {name: getattr(inertia.cli, name)
                       for name in _FIRST_STEP if hasattr(inertia.cli, name)}
        for name, fn in self._saved.items():
            setattr(inertia.cli, name, self._hook(fn))

    def _hook(self, fn):
        def hooked(*args, **kwargs):
            self.mark()
            return fn(*args, **kwargs)
        return hooked

    def mark(self):
        if self.at is None:
            self.at = time.monotonic()
            for name, fn in self._saved.items():
                setattr(inertia.cli, name, fn)


def peak_rss_kb() -> int:
    """High-water resident set of this process image.

    getrusage's ru_maxrss would also count the resident set of run.py at the
    moment it spawned this process, so read the kernel's per-image figure.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _run(name, call):
    """Run one operation, capturing its stdout, exit code and any exception."""
    out = io.StringIO()
    code, error = None, None
    try:
        with contextlib.redirect_stdout(out):
            code = call()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        error = traceback.format_exc()
    return {"name": name, "code": code, "error": error, "stdout": out.getvalue()}


def _api_op(spec, first_step):
    """The coupled workload: one damped trajectory through the Python API."""
    landscape = inertia.quadratic_general(np.load(spec["matrix"]))
    system = inertia.SystemSpec(landscape=landscape, gamma=spec["gamma"])
    config = inertia.IntegratorConfig(method=spec["method"], h=spec["h"], t_end=spec["t_end"],
                                      record_every=spec["record_every"])
    initial = inertia.State(spec["w0"], spec["v0"])
    first_step.mark()
    return inertia.integrate(system, initial, config)


def main() -> int:
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    first_step = FirstStep()

    ops, trajectory = [], []
    if spec["kind"] == "cli":
        for op in spec["ops"]:
            ops.append(_run(op["name"], lambda: inertia.cli.main(op["argv"])))
    elif spec["kind"] == "script":
        def script():
            sys.argv = [spec["script"], *spec["argv"]]
            runpy.run_path(spec["script"], run_name="__main__")
            return 0
        ops.append(_run("script", script))
    else:
        def api():
            trajectory.append(_api_op(spec, first_step))
            return 0
        ops.append(_run("api", api))
    end = time.monotonic()
    peak_kb = peak_rss_kb()

    for traj in trajectory:
        os.makedirs(spec["out"], exist_ok=True)
        for field in ("times", "ws", "vs", "inertia"):
            np.save(os.path.join(spec["out"], f"{field}.npy"), getattr(traj, field))
    if tracer is not None:
        tracer.dump(spec["spans"])
    result = {"first_step": first_step.at, "end": end, "peak_kb": peak_kb, "ops": ops,
              "package": os.path.dirname(os.path.abspath(inertia.__file__))}
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
