"""Test helpers: an ensemble's whole-run arrays, a watch on forked processes,
and stand-ins for a pipe, mapping or fork that fails."""

import errno
import os

import numpy as np
import pytest

from inertia.integrators import ensemble_samples


def ensemble_arrays(spec, initial, config, n_members):
    """``ensemble_samples`` stacked into (n_members, n_samples) arrays, plus ``times``.

    Keys: ``times``, ``inertia``, ``speed_squared`` and, for correlated
    noise, ``noise_dot_v``. This holds every sample of every member, which
    the package's own reduction avoids.
    """
    times, samples = ensemble_samples(spec, initial, config, n_members)
    names = ("inertia", "speed_squared", "noise_dot_v")
    columns = zip(names, zip(*samples))
    return {"times": times, **{name: np.column_stack(col) for name, col in columns
                               if col[0] is not None}}


def spy_on_fork(monkeypatch):
    """The pids of the processes this process forks from now on, in order.

    The process is also shown two usable CPUs, so that an ensemble that
    takes several noise refills forks on any machine.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_no_child_process():
    """No child of this process is running or left unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds():
    """How many file descriptors this process holds, or None without /proc/self/fd."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def refuse(*args, **kwargs):
    raise OSError("refused")


def no_process_to_spare():
    raise BlockingIOError("fork: resource temporarily unavailable")


def no_file_to_spare():
    raise OSError(errno.EMFILE, "Too many open files")
