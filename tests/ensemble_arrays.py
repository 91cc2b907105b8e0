"""Test helpers: an ensemble's whole-run arrays, a watch on
forked processes, and stand-ins for a pipe, mapping or fork that fails."""

import errno
import os

import numpy as np
import pytest

from inertia.integrators import ensemble_groups


def ensemble_arrays(spec, initial, config, n_members):
    """Every member's recorded rows as (n_members, n_samples) arrays, plus ``times``.

    Keys: ``times``, ``inertia``, ``speed_squared`` and, for correlated
    noise, ``noise_dot_v``: rows 0, 2 and 3 of ``group_arrays``. This holds
    every sample of every member, which the package's own reduction avoids.
    """
    joined = group_arrays(spec, initial, config, n_members)
    rows = joined["rows"]
    names = ("inertia", None, "speed_squared", "noise_dot_v")
    return {"times": joined["times"], **{name: np.ascontiguousarray(row.T)
                                         for name, row in zip(names, rows) if name}}


def group_arrays(spec, initial, config, n_members):
    """``ensemble_groups`` joined over its groups, plus ``times``.

    Keys: ``times``, ``rows`` of shape (n_rows, n_samples, n_members) and
    ``out`` of shape (n_rows + 1, n_samples): every row's member mean, then
    the energy's standard error. Each group must start where the one before
    it ended.
    """
    times, groups = ensemble_groups(spec, initial, config, n_members)
    rows, outs = [], []
    for first, group_rows, out in groups:  # each is valid until the next group
        assert first == sum(r.shape[1] for r in rows)
        rows.append(group_rows.copy())
        outs.append(out.copy())
    return {"times": times, "rows": np.concatenate(rows, axis=1),
            "out": np.concatenate(outs, axis=1)}


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
