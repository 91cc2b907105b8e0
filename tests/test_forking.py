"""forking: the one module that forks, and ``beside``'s faults, each of
which leaves no pipe end open and no child behind."""

import ast
import os
import pathlib
import signal

import pytest

from inertia import forking

from ensemble_arrays import (assert_no_child_process, no_file_to_spare, no_process_to_spare,
                             open_fds, spy_on_fork)

ROOT = pathlib.Path(__file__).resolve().parent.parent
SENT = bytes(range(256)) * 4096  # 1 MiB, many times what a pipe holds


def sends(monkeypatch):
    return SENT


def raises(monkeypatch):
    raise RuntimeError("the child fails")


def is_killed(monkeypatch):
    os.kill(os.getpid(), signal.SIGKILL)


def exits_1_after_sending(monkeypatch):
    exit = os._exit
    monkeypatch.setattr(os, "_exit", lambda code: exit(1))
    return SENT


def interrupted():
    raise KeyboardInterrupt


@pytest.mark.parametrize("child, here, refused, expected", [
    (sends, os.getpid, None, (os.getpid(), SENT)),
    (sends, os.getpid, ("pipe", no_file_to_spare), (os.getpid(), None)),
    (sends, os.getpid, ("fork", no_process_to_spare), (os.getpid(), None)),
    (raises, os.getpid, None, (os.getpid(), None)),
    (is_killed, os.getpid, None, (os.getpid(), None)),
    (exits_1_after_sending, os.getpid, None, (os.getpid(), None)),
    (sends, interrupted, None, KeyboardInterrupt),
], ids=["sends", "pipe fails", "fork fails", "child raises", "child is killed",
        "child exits 1 after sending", "here raises"])
def test_beside_hands_back_what_a_child_sent_and_exited_0_after(monkeypatch, child, here,
                                                                refused, expected):
    """``here()`` runs in this process whatever the child does; the child's
    bytes come back only when it sent them all and exited 0."""
    pids = spy_on_fork(monkeypatch)
    if refused:
        monkeypatch.setattr(os, *refused)
    fds = open_fds()
    try:
        got = forking.beside(lambda: child(monkeypatch), here)
    except KeyboardInterrupt as exc:
        got = type(exc)
    assert got == expected
    assert len(pids) == (refused is None)
    assert open_fds() == fds
    assert_no_child_process()


def test_only_forking_forks():
    """``os.fork`` and ``os._exit`` are named in forking.py alone, so that one
    module knows how a helper process starts and ends."""
    sources = sorted([*ROOT.glob("src/inertia/*.py"), *ROOT.glob("scripts/*.py")])
    assert len(sources) > 2
    named = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr in ("fork", "_exit")
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                named.add(path.name)
            if isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                    alias.name in ("fork", "_exit") for alias in node.names):
                named.add(path.name)
    assert named == {"forking.py"}
