"""The one module that forks: when a helper may run, how it starts and ends.

Four jobs fork a helper, each only where ``may_fork`` holds: the ensemble
noise producer (``integrators._member_draws``), the second half of a large
text (``output._format_halves``), the right column block of a long dense
run's gradient (``split_product``) and ``scripts/reproduce_all.py``'s
worker. The two one-shot helpers go through ``beside``. Where a fork
fails, each job does its helper's share in this process.
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


def kill_and_reap(pid: int) -> int:
    """Kill a forked child and reap it; return its wait status.

    A child that has exited stays unreaped until now, so the kill is then a
    no-op and the status is the one it exited with. So is a child that has
    begun to exit: on Linux its status is fixed before its files close, so
    an end of file on a pipe that only it wrote to means the kill cannot
    change that status.
    """
    os.kill(pid, signal.SIGKILL)
    return os.waitpid(pid, 0)[1]


def beside(child, here):
    """``(here(), sent)``, with ``here()`` run while a forked child sends back
    the bytes that ``child()`` returns over a pipe. ``sent`` is None where the
    pipe or the fork failed, or the child did not exit 0 after sending: the
    caller then does the child's share. The child is reaped before this ends.
    """
    fds = []
    try:
        fds += os.pipe()
        r, w = fds

        def send():
            os.close(r)
            data = memoryview(child())
            while data:
                data = data[os.write(w, data):]  # w closes only as it exits: kill_and_reap

        pid = fork(send)
    except OSError:  # no file or process to spare
        for fd in fds:
            os.close(fd)
        return here(), None
    os.close(w)
    try:
        with open(r, "rb") as pipe:
            done = here()
            sent = pipe.read()
    finally:
        status = kill_and_reap(pid)
    return done, sent if status == 0 else None


def _acquire(semaphore, alive) -> bool:
    """Acquire ``semaphore``, polling it _SPINS times before blocking; False
    once ``alive()`` is false after a blocked wait of _PATIENCE seconds.

    A hand-off waits about as long as one block of a product takes, or a
    pause of the run between products, far less than waking a blocked
    process does, so the poll usually takes it.
    """
    for _ in range(_SPINS):
        if semaphore.acquire(False):
            return True
    while not semaphore.acquire(timeout=_PATIENCE):
        if not alive():
            return False
    return True


@contextmanager
def split_product(matrix: np.ndarray, cut: int):
    """Yield a callable ``w -> w @ matrix`` for a 1-D ``w`` that computes the
    columns from ``cut`` on in a forked partner.

    Each call hands ``w`` to the partner, computes ``w @ matrix[:, :cut]``
    from a contiguous copy while the partner computes ``w @ matrix[:, cut:]``
    from its own copy into shared memory, and joins the two blocks. A call
    returns a new array. The caller must know that the blocks join to the
    bits of ``w @ matrix`` (``QuadraticLandscape.column_cut``).

    Two semaphores hand ``w`` over and the block back, in lock step; each
    orders memory, so what one side wrote before its release is what the
    other reads after its acquire. Should the partner die, this process
    computes the whole product from then on, with the same bits. Where the
    semaphores, the shared mapping or the fork fail with OSError, every call
    computes the whole product. Leaving the ``with`` kills and reaps the
    partner and drops this process's copy, so a later call computes the
    whole product too; a partner whose parent is gone exits.
    """
    dim = matrix.shape[0]
    try:
        # Imported here, not with the package: only a split run pays for it.
        # The fork context's semaphores start no resource tracker process.
        from multiprocessing import get_context

        context = get_context("fork")
        handed, joined = context.Semaphore(0), context.Semaphore(0)
        shared = np.ndarray(2 * dim - cut, buffer=mmap.mmap(-1, 8 * (2 * dim - cut)))
        w_shared, block = shared[:dim], shared[dim:]
        parent = os.getpid()

        def partner():
            right = np.ascontiguousarray(matrix[:, cut:])
            while _acquire(handed, lambda: os.getppid() == parent):
                np.matmul(w_shared, right, out=block)
                joined.release()

        pid = fork(partner)
    except OSError:
        yield matrix.__rmatmul__
        return

    def partner_lives():
        return os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None

    left = None  # this process's block of columns, None once the partner is gone

    def product(w):
        nonlocal left
        if left is not None:
            w_shared[:] = w
            handed.release()
            out = np.empty(dim)
            np.matmul(w, left, out=out[:cut])
            if _acquire(joined, partner_lives):
                out[cut:] = block
                return out
            left = None
        return w @ matrix

    try:
        left = np.ascontiguousarray(matrix[:, :cut])
        yield product
    finally:
        left = None
        kill_and_reap(pid)
