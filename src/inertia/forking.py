"""When to fork a helper process, and how to end one.

Two pieces of work run in a forked helper beside this process: the ensemble
noise producer (``integrators._member_draws``) and the second half of a
large text (``output._format_halves``). Both fork only where ``may_fork``
holds, and both end their child through ``kill_and_reap``.
"""

from __future__ import annotations

import os
import signal


def may_fork() -> bool:
    """Whether a forked helper can run beside this process: ``os.fork`` exists
    and this process may run on two CPUs or more (a cgroup's quota is not seen)."""
    if not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


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
