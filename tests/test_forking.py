"""forking: the one module that forks, and the faults of ``beside`` and
``partner``, each of which leaves no file open and no child behind."""

import ast
import multiprocessing.context
import os
import pathlib
import signal

import pytest

from inertia import forking

from ensemble_arrays import (assert_no_child_process, no_file_to_spare, no_process_to_spare,
                             open_fds, refuse, spy_on_fork)

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


ASKS = 5


def adds(shared):
    """Ask n writes ``shared[n - 1] + n`` into ``shared[n]``."""
    served = iter(range(1, len(shared)))

    def job():
        n = next(served)
        shared[n] = shared[n - 1] + n
    return job


def raises_at_start(shared):
    raise RuntimeError("the child fails")


def is_killed_at_ask_3(shared):
    job, asks = adds(shared), iter(range(1, ASKS + 1))

    def killed():
        if next(asks) == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        job()
    return killed


def asks_two_ahead(hand):
    """Like the noise producer: two asks up front, one more after each answer.
    Returns (answer, shared[n]) per answer, up to the first False."""
    shared, ask, answer = hand
    shared[0] = 10.0
    ask(), ask()
    got = []
    for n in range(1, ASKS + 1):
        got.append((answer(), float(shared[n])))
        if not got[-1][0]:
            break
        if n + 2 <= ASKS:
            ask()
    return got


def asks_then_is_interrupted(hand):
    shared, ask, answer = hand
    ask()
    raise KeyboardInterrupt


SERVED = [(True, 11.0), (True, 13.0), (True, 16.0), (True, 20.0), (True, 25.0)]


@pytest.mark.parametrize("start, body, refused, expected", [
    (adds, asks_two_ahead, None, SERVED),
    (adds, asks_two_ahead, (multiprocessing.context.BaseContext, "Semaphore", refuse), None),
    (adds, asks_two_ahead, (forking.mmap, "mmap", refuse), None),
    (adds, asks_two_ahead, (os, "fork", no_process_to_spare), None),
    (adds, asks_two_ahead, (os, "sched_getaffinity", lambda pid: {0}), None),
    (raises_at_start, asks_two_ahead, None, [(False, 0.0)]),
    (is_killed_at_ask_3, asks_two_ahead, None, [*SERVED[:2], (False, 0.0)]),
    (adds, asks_then_is_interrupted, None, KeyboardInterrupt),
], ids=["serves in order", "semaphore fails", "mapping fails", "fork fails", "one CPU",
        "start raises", "child is killed", "body raises"])
def test_partner_serves_asks_in_order_until_its_child_is_gone(monkeypatch, start, body,
                                                               refused, expected):
    """A partner yields None, and forks nothing, where it cannot serve; else
    ``answer()`` is True for each ask the child served and False once it is
    gone; leaving the ``with`` reaps it."""
    pids = spy_on_fork(monkeypatch)
    if refused:
        monkeypatch.setattr(*refused)
    fds = open_fds()
    try:
        with forking.partner(ASKS + 1, start) as hand:
            got = None if hand is None else body(hand)
    except KeyboardInterrupt as exc:
        got = type(exc)
    assert got == expected
    assert len(pids) == (refused is None)
    assert open_fds() == fds
    assert_no_child_process()


def names_in(node) -> set:
    """The names a node gives: a variable, an attribute, or an import's
    modules, their dotted parts and the names it binds."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        modules = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
        return ({part for module in modules for part in module.split(".")}
                | {alias.asname for alias in node.names})
    return set()


def test_only_forking_forks():
    """``os.fork`` and ``os._exit`` are named in forking.py alone, so that one
    module knows how a helper process starts and ends. So are ``mmap``,
    ``multiprocessing`` and ``kill_and_reap``: how a helper shares memory,
    hands off and is stopped."""
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
            if names_in(node) & {"mmap", "multiprocessing", "kill_and_reap", "_kill_and_reap"}:
                named.add(path.name)
    assert named == {"forking.py"}
