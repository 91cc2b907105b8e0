"""scripts/reproduce_all.py: two processes give the bytes, the text and the exit code of one."""

import json
import os
import pathlib
import runpy
import select
import signal
import sys

import pytest

from ensemble_arrays import (assert_no_child_process, no_file_to_spare, no_process_to_spare,
                             open_fds, spy_on_fork)

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "reproduce_all.py"
# exits 2 before it writes anything: the step size must be positive
FAILING = ("bad", ["conserve", "--h", "-1"], [])
# argparse raises SystemExit(2) on an unknown flag
UNKNOWN_FLAG = ("typo", ["conserve", "--no-such-flag"], [])
# short runs of five experiments, for the tests of faults
SHORT = [
    ("conserve", ["conserve", "--T", "1"], [("conserve.csv", "conserve.svg", None)]),
    ("sweep", ["sweep", "--gammas", "0.4"], [("sweep.csv", "sweep.svg", "gamma:gamma_hat")]),
    ("traj2d", ["traj2d", "--T", "1"], [("traj2d_init0.csv", "orbit2d_0.svg", "w0:w1")]),
    ("discrete", ["discrete", "--steps", "100"], [("discrete.csv", "discrete.svg", None)]),
    ("stochastic", ["stochastic", "--T", "1", "--members", "100"],
     [("stochastic.csv", "decay.svg", "t:mean_I")]),
]


@pytest.fixture
def script():
    """The script's live module namespace, loaded afresh."""
    return runpy.run_path(str(SCRIPT), run_name="reproduce")["main"].__globals__


@pytest.fixture
def short(script, monkeypatch):
    """The script with SHORT as its experiments."""
    monkeypatch.setitem(script, "EXPERIMENTS", list(SHORT))
    return script


def reproduce(script, monkeypatch, capsys, cwd):
    """Run the script's main in ``cwd`` with ``--root runs``; return (code, stdout, stderr)."""
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setattr(sys, "argv", ["reproduce_all.py", "--root", "runs"])
    capsys.readouterr()
    code = script["main"]()
    return (code, *capsys.readouterr())


def in_one_process(script, monkeypatch):
    monkeypatch.setitem(script, "may_fork", lambda: False)


def tree(root) -> dict:
    """Every file under ``root`` by relative path; manifests without their durations."""
    files = {}
    for path in sorted(pathlib.Path(root).rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "manifest.json":
                doc = json.loads(data)
                for entry in [doc, *doc.get("renders", {}).values()]:
                    del entry["duration_seconds"]
                data = doc
            files[str(path.relative_to(root))] = data
    return files


def log_runs(script, monkeypatch, log, before=lambda argv: None):
    """Append 'pid argv' to ``log`` for each CLI call; ``before(argv)`` runs first."""
    run_cli = script["run_cli"]

    def logged(argv):
        before(argv)
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {' '.join(argv)}\n")
        return run_cli(argv)
    monkeypatch.setitem(script, "run_cli", logged)


def pids_running(log, text) -> set[int]:
    """The pids that logged a CLI call containing ``text``."""
    return {int(line.split(" ", 1)[0]) for line in open(log) if text in line}


def wait_for(pipe, seconds=30.0) -> bool:
    """Read one byte from ``pipe``'s read end; False if none came within ``seconds``."""
    if not select.select([pipe[0]], [], [], seconds)[0]:
        return False
    return os.read(pipe[0], 1) == b"."


def test_experiment_names_are_distinct(script):
    """Two processes write the experiments' directories at once."""
    names = [name for name, _, _ in script["EXPERIMENTS"]]
    assert len(set(names)) == len(names)


def test_two_processes_write_what_one_writes(script, monkeypatch, capsys, tmp_path):
    pids = spy_on_fork(monkeypatch)
    log = tmp_path / "calls.log"
    log_runs(script, monkeypatch, log)
    two = reproduce(script, monkeypatch, capsys, tmp_path / "two")
    assert len(pids) == 1
    assert_no_child_process()
    assert pids_running(log, "--out-dir") == {os.getpid(), pids[0]}  # both ran experiments
    in_one_process(script, monkeypatch)
    one = reproduce(script, monkeypatch, capsys, tmp_path / "one")
    assert len(pids) == 1
    assert one[0] == 0 and one[1].count("\n== ") == len(script["EXPERIMENTS"]) - 1
    assert two == one
    assert tree(tmp_path / "two" / "runs") == tree(tmp_path / "one" / "runs")


@pytest.mark.usefixtures("short")
@pytest.mark.parametrize("fault", ["raises", "is killed", "exits 1 after sending"])
def test_a_failing_worker_leaves_the_bytes_as_they_were(script, monkeypatch, capsys, tmp_path,
                                                        fault):
    """Whatever the worker does not deliver, or delivers with a nonzero exit
    status, runs in this process, in its turn."""
    parent, log = os.getpid(), tmp_path / "calls.log"

    def in_the_worker_only(argv):
        if os.getpid() != parent and fault == "raises":
            raise RuntimeError("the worker fails")
        if os.getpid() != parent and fault == "is killed":
            os.kill(os.getpid(), signal.SIGKILL)
    log_runs(script, monkeypatch, log, in_the_worker_only)
    if fault == "exits 1 after sending":
        exit = os._exit
        monkeypatch.setattr(os, "_exit", lambda code: exit(1))
    pids = spy_on_fork(monkeypatch)
    two = reproduce(script, monkeypatch, capsys, tmp_path / "two")
    assert len(pids) == 1
    assert_no_child_process()
    worker = {pids[0]} if fault == "exits 1 after sending" else set()
    assert pids_running(log, "--out-dir") == {parent} | worker
    here = [line for line in open(log) if line.startswith(f"{parent} ") and "--out-dir" in line]
    assert len(here) == len(SHORT)  # every experiment ran in this process
    in_one_process(script, monkeypatch)
    assert two[0] == 0
    assert two == reproduce(script, monkeypatch, capsys, tmp_path / "one")
    assert tree(tmp_path / "two" / "runs") == tree(tmp_path / "one" / "runs")


@pytest.mark.usefixtures("short")
@pytest.mark.parametrize("claimed_by", ["parent", "worker"])
def test_output_stops_at_a_failing_experiment(script, monkeypatch, capsys, tmp_path,
                                              claimed_by):
    """The parent claims index 0 before it forks and the worker claims index 1.
    The other process's first experiment waits until the failing process's
    claims have ended, so it sees the failure empty the queue and starts
    nothing after that experiment. A failing parent first waits until the
    worker's first experiment has started, so that the worker holds index 1."""
    experiments = list(script["EXPERIMENTS"])
    at = 0 if claimed_by == "parent" else 1
    experiments.insert(at, FAILING)
    monkeypatch.setitem(script, "EXPERIMENTS", experiments)
    parent, log = os.getpid(), tmp_path / "calls.log"
    pids = spy_on_fork(monkeypatch)
    started, drained = os.pipe(), os.pipe()  # made before the fork, so both processes hold them
    firsts, waits = [True], []  # each process acts on its own first CLI call

    def failing_here():
        return (os.getpid() == parent) == (claimed_by == "parent")

    def handshake(argv):
        if not firsts:
            return
        firsts.pop()
        if failing_here():
            if claimed_by == "parent":  # until the worker holds index 1
                waits.append(wait_for(started))
        else:
            os.write(started[1], b".")
            waits.append(wait_for(drained))  # until the failure has emptied the queue
    log_runs(script, monkeypatch, log, handshake)
    run_claimed = script["_run_claimed"]

    def drain_then_tell(*args):
        results = run_claimed(*args)
        if failing_here():
            os.write(drained[1], b".")
        return results
    monkeypatch.setitem(script, "_run_claimed", drain_then_tell)
    try:
        two = reproduce(script, monkeypatch, capsys, tmp_path / "two")
    finally:
        for fd in (*started, *drained):
            os.close(fd)
    assert waits == [True]  # this process's wait ended in its handshake, not in the bound
    assert_no_child_process()
    assert pids_running(log, " ".join(FAILING[1])) == {parent if at == 0 else pids[0]}
    assert os.listdir(tmp_path / "two" / "runs") == [experiments[1 - at][0]]
    in_one_process(script, monkeypatch)
    one = reproduce(script, monkeypatch, capsys, tmp_path / "one")
    assert one[0] == 2
    assert one[1].splitlines()[-1] == "== bad: inertia conserve --h -1"
    assert one[2].endswith("bad failed with exit code 2\n")
    assert two == one
    before = [name for name, _, _ in experiments[:at]]
    assert {k: v for k, v in tree(tmp_path / "two" / "runs").items()
            if k.split(os.sep)[0] in before} == tree(tmp_path / "one" / "runs")


@pytest.mark.usefixtures("short")
def test_a_failed_pipe_or_fork_runs_everything_in_process(script, monkeypatch, capsys,
                                                          tmp_path):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", no_process_to_spare)
    fds = open_fds()
    no_fork = reproduce(script, monkeypatch, capsys, tmp_path / "no-fork")
    assert open_fds() == fds  # every pipe end is closed
    monkeypatch.setattr(os, "pipe", no_file_to_spare)
    no_pipe = reproduce(script, monkeypatch, capsys, tmp_path / "no-pipe")
    in_one_process(script, monkeypatch)
    one = reproduce(script, monkeypatch, capsys, tmp_path / "one")
    assert one[0] == 0
    assert no_fork == no_pipe == one
    for side in ("no-fork", "no-pipe"):
        assert tree(tmp_path / side / "runs") == tree(tmp_path / "one" / "runs")


def test_an_experiment_that_raises_ends_the_run_as_in_one_process(script, monkeypatch, capsys,
                                                                  tmp_path):
    """The parent claims index 0 and leaves it to be rerun in its turn, where it raises."""
    monkeypatch.setitem(script, "EXPERIMENTS", [UNKNOWN_FLAG, *SHORT])
    ends = []
    for side in ("two", "one"):
        if side == "one":
            in_one_process(script, monkeypatch)
        with pytest.raises(SystemExit) as end:
            reproduce(script, monkeypatch, capsys, tmp_path / side)
        ends.append((end.value.code, *capsys.readouterr()))
    assert_no_child_process()
    assert ends[0] == ends[1]
    assert ends[1][0] == 2 and ends[1][1] == "== typo: inertia conserve --no-such-flag\n"
