#!/usr/bin/env python3
"""Benchmark of the inertia package: end to end, and layer by layer when traced.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The script is the single process that generates load:
it generates the workload's inputs from the seed, then repeats iterations of
the workload for the given number of seconds, each in a fresh child
interpreter (child.py) whose outputs go to a temporary directory inside the
checkout. Every operation is checked against an exact oracle (oracles.py)
on its first pass and for byte-identical outputs on every later pass.

--trace 0 reports the end-to-end metrics setup_s and peak_rss_mb (medians
over iterations), wall_s (mean per iteration) and steps_per_s (total steps
over total wall time). Before each iteration and after the last, the script
times a fixed reference load (reference.py); setup_s, wall_s and
steps_per_s are rescaled to the machine speed at which that load takes
reference.NOMINAL_S, and the raw samples are printed above the result.
--trace 1 alternates
untraced and traced iterations and reports the per-layer metrics of the
traced ones (tracing.py) plus tracing.overhead_frac. The last line of
stdout is one JSON object: correct, attempted, failed, metrics. A checkout
without the package's sources exits with status 2 and prints no result.
"""

import os
import sys
import time

STARTED = time.monotonic()
NPROC = len(os.sched_getaffinity(0))
# BLAS threads, here and in every child: one, below the nproc cap. On a 2-core
# machine a second OpenBLAS thread adds about 65 ms to every `import numpy`,
# makes that cost swing by tens of percent with load on the other core,
# stalls a child's first LAPACK call for about 0.9 s now and then, and runs
# the dim-512 matrix-vector product no faster (172 vs 155 us per step).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
# A run must end within 180 s of its start; no child may outlive this budget.
DEADLINE_S = 170.0
MIN_ITERATIONS = 2  # the second pass is the byte-identity check
# Reference passes after each iteration take this share of the iteration's
# time. One 0.12 s pass varies by about 14 % with sub-second jitter, so the
# run's mean reference time needs several passes per iteration to be as
# steady as the run's mean iteration time.
REFERENCE_SHARE = 0.15

END_TO_END = {"setup_s": "s", "wall_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}
# setup_s and peak_rss_mb are medians over a run's iterations. wall_s is the
# mean and steps_per_s is total steps over total wall time: this machine
# switches between fast and slow phases lasting seconds to minutes, so the
# median of iterations jumps from one phase to the other, while the run's
# time average moves with the share of time spent slow. On recorded samples
# the mean cut the run-to-run spread to about half of the median's. Phases
# that last a whole run remain; the rescaling by the run's mean reference
# time removes most of them (reference.py).


class Unrunnable(Exception):
    """The checkout cannot run the benchmark at all; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def preflight():
    """The package and the reproduce script must exist; importing also fills __pycache__."""
    for rel in ("src/inertia/__init__.py", "scripts/reproduce_all.py"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            raise Unrunnable(f"{rel} not found under {ROOT}")
    probe = subprocess.run(
        [sys.executable, "-c", "import inertia, os; print(os.path.abspath(inertia.__file__))"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        raise Unrunnable(f"cannot import inertia: {probe.stderr.strip()}")
    if not probe.stdout.strip().startswith(SRC + os.sep):
        raise Unrunnable(f"inertia imported from {probe.stdout.strip()}, not from {SRC}")


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


class Run:
    """Iterations of one workload, their oracle verdicts and timings."""

    def __init__(self, workload, tmp: str):
        self.workload = workload
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first_pass: dict[str, tuple] = {}  # check -> (digest, stdout, steps)
        self.samples = {"setup_s": [], "wall_s": [], "steps": [], "peak_rss_mb": []}
        self.traced_walls: list[float] = []
        self.reference_s: list[float] = []
        self.layers: list[dict] = []

        spec = dict(workload.spec)
        if "script" in spec:
            spec["script"] = os.path.join(ROOT, spec["script"])
        for key, array in workload.inputs.items():
            spec[key] = os.path.join(tmp, f"{key}.npy")
            np.save(spec[key], array)
        self.spec = spec

    def measure_speed(self, budget: float):
        """Reference passes until they add up to the budget; at least one."""
        spent = 0.0
        while not spent or spent < budget:
            self.reference_s.append(reference.reference())
            spent += self.reference_s[-1]

    def iteration(self, index: int, traced: bool, timeout: float):
        work = os.path.join(self.tmp, f"it{index}")
        try:
            self._iteration(work, index, traced, timeout)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def _iteration(self, work: str, index: int, traced: bool, timeout: float):
        out = os.path.join(work, "out")
        os.makedirs(out)
        spec_path = os.path.join(work, "spec.json")
        result_path = os.path.join(work, "result.json")
        spans_path = os.path.join(work, "spans.json")
        with open(spec_path, "w") as fh:
            json.dump({**self.spec, "trace": traced, "spans": spans_path}, fh)

        result, problem = None, None
        with open(os.path.join(work, "child.log"), "w") as log:
            spawned = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "child.py"), spec_path, result_path],
                    cwd=out, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                    timeout=timeout)
                if proc.returncode == 0:
                    with open(result_path) as fh:
                        result = json.load(fh)
                else:
                    problem = f"child exited with status {proc.returncode}"
            except subprocess.TimeoutExpired:
                problem = f"child killed after {timeout:.0f} s"
        if result is not None and not result["package"].startswith(SRC + os.sep):
            result, problem = None, f"package imported from {result['package']}"
        if result is None:
            with open(os.path.join(work, "child.log")) as fh:
                tail = fh.read()[-2000:]
            self.attempted += len(self.workload.checks)
            self.fail(len(self.workload.checks), f"iteration {index}: {problem}\n{tail}")
            return

        ops = {op["name"]: op for op in result["ops"]}
        digest = oracles.tree_digest(out)
        steps = 0
        all_ok = True
        for check in self.workload.checks:
            self.attempted += 1
            op = ops.get(check.op)
            if op is None or op["error"] or op["code"] != 0:
                detail = op and (op["error"] or f"exit status {op['code']}")
                self.fail(1, f"iteration {index} {check.name}: {detail}")
                all_ok = False
                continue
            try:
                steps += self.verify(check, out, op["stdout"], digest)
            except Exception as exc:  # malformed output can break an oracle in any way
                self.fail(1, f"iteration {index} {check.name}: {exc!r}")
                all_ok = False

        if not all_ok or result["first_step"] is None:
            return
        wall = result["end"] - result["first_step"]
        if traced:
            self.traced_walls.append(wall)
            with open(spans_path) as fh:
                self.layers.append(tracing.layer_metrics(json.load(fh)))
            return
        self.samples["setup_s"].append(result["first_step"] - spawned)
        self.samples["wall_s"].append(wall)
        self.samples["steps"].append(steps)
        self.samples["peak_rss_mb"].append(result["peak_kb"] / 1024.0)

    def verify(self, check, out: str, stdout: str, digest: dict) -> int:
        """Full oracle on the first pass; byte-identical files and stdout afterwards."""
        prefix = check.dir + os.sep
        digest = {path: h for path, h in digest.items() if path.startswith(prefix)}
        if check.name in self.first_pass:
            first_digest, first_stdout, steps = self.first_pass[check.name]
            oracles.check_same_bytes(first_digest, digest)
            if stdout != first_stdout:
                raise oracles.OracleError("stdout differs between identical runs")
            return steps
        steps = check.run(os.path.join(out, check.dir), stdout)
        self.first_pass[check.name] = (digest, stdout, steps)
        return steps

    def fail(self, count: int, message: str):
        self.failed += count
        self.failures.append(message)

    def done(self, traced: bool) -> bool:
        untraced = len(self.samples["wall_s"])
        return untraced >= MIN_ITERATIONS and (not traced or len(self.layers) >= MIN_ITERATIONS)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def run(args) -> dict:
    preflight()
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT)
    try:
        bench = Run(workloads.build(args.workload, args.seed), tmp)
        reference.warm_up()
        start = time.monotonic()
        index, last = 0, 0.0
        while not bench.failed:
            bench.measure_speed(REFERENCE_SHARE * last)
            now = time.monotonic()
            if now - start >= args.seconds and bench.done(args.trace):
                break
            if now - STARTED >= DEADLINE_S - 5:
                break
            traced = bool(args.trace) and index % 2 == 1
            bench.iteration(index, traced, timeout=DEADLINE_S - (now - STARTED))
            last = time.monotonic() - now
            index += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass

    metrics = {}
    print(f"workload {args.workload}, seed {args.seed}: {index} iterations, "
          f"{bench.attempted} operations checked, {bench.failed} failed")
    for message in bench.failures:
        print(f"FAILED {message}")
    if args.trace:
        untraced = statistics.fmean(bench.samples["wall_s"]) if bench.samples["wall_s"] else 0.0
        traced = statistics.fmean(bench.traced_walls) if bench.traced_walls else 0.0
        for name, unit in tracing.LAYER_UNITS.items():
            values = [layer[name] for layer in bench.layers]
            metrics[name] = {"value": statistics.median(values) if values else 0.0, "unit": unit}
        overhead = (traced - untraced) / untraced if untraced else 0.0
        metrics["tracing.overhead_frac"] = {"value": overhead, "unit": "frac"}
        print(f"traced iterations: {len(bench.layers)}; mean untraced wall {untraced:.4f} s, "
              f"mean traced wall {traced:.4f} s")
    elif bench.samples["wall_s"]:
        samples = bench.samples
        for name in ("setup_s", "wall_s", "peak_rss_mb"):
            q1, q3 = quartiles(samples[name])
            print(f"{name:>12} median {statistics.median(samples[name]):.6g}  q1 {q1:.6g}  "
                  f"q3 {q3:.6g}  n={len(samples[name])}  "
                  f"[{' '.join(f'{v:.4g}' for v in samples[name])}]")
        scale = reference.NOMINAL_S / statistics.fmean(bench.reference_s)
        print(f"reference pass: mean {statistics.fmean(bench.reference_s):.6g} s over "
              f"{len(bench.reference_s)} passes; the result's times are rescaled by {scale:.4f}")
        values = {
            "setup_s": statistics.median(samples["setup_s"]) * scale,
            "wall_s": statistics.fmean(samples["wall_s"]) * scale,
            "steps_per_s": sum(samples["steps"]) / sum(samples["wall_s"]) / scale,
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        metrics = {name: {"value": 0.0, "unit": unit} for name, unit in END_TO_END.items()}
    record = {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas_info(),
        "nproc": NPROC, "blas_threads": BLAS_THREADS,
        "machine": platform.machine(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "iterations": index,
    }
    print("record " + json.dumps(record))
    return {"correct": bench.failed == 0 and bench.attempted > 0,
            "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="inertia benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must lie in (0, 120]")
    try:
        result = run(args)
    except Unrunnable as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
