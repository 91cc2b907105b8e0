"""The one module that forks: when a helper may run, how it starts and ends.

Four jobs fork a helper, each only where ``may_fork`` holds. The two
one-shot helpers go through ``beside``: the second half of a large text
(``output._halves``) and ``scripts/reproduce_all.py``'s worker
each send back bytes over a pipe. The two streaming helpers go through
``partner``: the second half of a large ensemble's members, with every
other group reduction (``integrators.ensemble_groups``, the one function
that runs an ensemble's members), and the right column block of a long
dense run's gradient (``integrators._gradient``) each serve asks, in
order, through shared memory and two semaphores. Where no helper forks,
each job does its helper's share in this process: the ensemble and the
dense gradient call the partner's own ``start`` and run its job at each
ask, so both shares take one code path; the dense gradient does so too
from the ask at which its partner is found gone.
"""

from __future__ import annotations

import mmap
import os
import signal
from contextlib import contextmanager

import numpy as np

# Non-blocking polls of a hand-off semaphore before a blocking wait, about
# 2 ms of polling. It outlasts the run's pauses between hand-offs (a block's
# energy reduction, 0.1-0.8 ms inside a dim-512 run): with 2000 polls a
# 10^4-step run blocked 25-140 times, and each wake-up cost more than it saved.
_SPINS = 20000
_PATIENCE = 0.1  # seconds a blocking wait lasts before it checks the other side lives


def may_fork() -> bool:
    """Whether a forked helper can run beside this process: ``os.fork`` exists
    and this process may run on two CPUs or more (a cgroup's quota is not seen)."""
    if not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def fork(child) -> int:
    """Fork a process that runs ``child()`` and return its pid; OSError where
    the fork fails. The child never returns into the caller: it leaves through
    ``os._exit``, flushing nothing, with 0 if ``child()`` returned, else 1."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            child()
            code = 0
        finally:
            os._exit(code)
    return pid


def _kill_and_reap(pid: int) -> int:
    """Kill a forked child and reap it; return its wait status.

    A child that has exited stays unreaped until now, so the kill is then a
    no-op and the status is the one it exited with. So is a child that has
    begun to exit: on Linux its status is fixed before its files close, so
    an end of file on a pipe that only it wrote to means the kill cannot
    change that status.
    """
    os.kill(pid, signal.SIGKILL)
    return os.waitpid(pid, 0)[1]


def beside(child, here, take=lambda pipe: pipe.read()):
    """``(here(), sent)``, with ``here()`` run while a forked child sends back
    the bytes that ``child()`` returns over a pipe; then ``sent = take(pipe)``
    reads them from the pipe's binary handle, by default whole. ``sent`` is
    None where the pipe or the fork failed, or the child did not exit 0 after
    sending: the caller then does the child's share, and undoes what ``take``
    did with a part of it. The child is reaped before this ends.
    """
    fds = []
    try:
        fds += os.pipe()
        r, w = fds

        def send():
            os.close(r)
            data = memoryview(child())
            while data:
                data = data[os.write(w, data):]  # w closes only as it exits: _kill_and_reap

        pid = fork(send)
    except OSError:  # no file or process to spare
        for fd in fds:
            os.close(fd)
        return here(), None
    os.close(w)
    try:
        with open(r, "rb") as pipe:
            done = here()
            sent = take(pipe)
    finally:
        status = _kill_and_reap(pid)
    return done, sent if status == 0 else None


def _acquire(semaphore, alive) -> bool:
    """Acquire ``semaphore``, polling it _SPINS times before blocking; False
    once ``alive()`` is false after a blocked wait of _PATIENCE seconds.

    A hand-off of the dense gradient's partner waits about as long as one
    block of a product takes, or a pause of the run between products, far
    less than waking a blocked process does, so the poll usually takes it.
    An ensemble's noise refill takes tens of milliseconds, so a wait that
    spans one blocks.
    """
    for _ in range(_SPINS):
        if semaphore.acquire(False):
            return True
    while not semaphore.acquire(timeout=_PATIENCE):
        if not alive():
            return False
    return True


@contextmanager
def partner(floats: int, start):
    """Yield ``(shared, ask, answer)`` for a forked child that serves asks, or None.

    ``shared`` holds ``floats`` float64s that both processes map. The child
    calls ``start(shared)`` once, then the callable it returned once per
    ``ask()``, in order. ``answer()`` waits until the child has served the
    oldest ask not yet answered and returns True, or returns False once the
    child is gone. Two semaphores carry the asks and the answers; each
    orders memory, so what one side wrote to ``shared`` before its release
    is what the other reads after its acquire.

    Yields None where ``may_fork`` is false, or the semaphores, the shared
    mapping or the fork fail with OSError: the caller then does the child's
    work itself. Leaving the ``with`` kills and reaps the child; a child
    whose parent is gone exits within one _PATIENCE wait.
    """
    pid = None
    if may_fork():
        try:
            # Imported here, not with the package: only a run with a partner
            # pays for it. The fork context's semaphores start no resource
            # tracker process.
            from multiprocessing import get_context

            context = get_context("fork")
            asked, answered = context.Semaphore(0), context.Semaphore(0)
            shared = np.ndarray(floats, buffer=mmap.mmap(-1, 8 * floats))
            parent = os.getpid()

            def serve():
                job = start(shared)
                while _acquire(asked, lambda: os.getppid() == parent):
                    job()
                    answered.release()

            pid = fork(serve)
        except OSError:  # no semaphore, memory or process to spare
            pass
    if pid is None:
        yield None
        return

    def child_lives():
        return os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None

    try:
        yield shared, asked.release, lambda: _acquire(answered, child_lives)
    finally:
        _kill_and_reap(pid)
