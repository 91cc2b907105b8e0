"""A long dense run's gradient split by columns with a forked partner: the
same bits as in one process, and no partner left behind."""

import multiprocessing.context
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from inertia import (
    IntegratorConfig,
    NumericalFailure,
    State,
    SystemSpec,
    discrete_trajectory,
    inertia_rows,
    integrate,
    quadratic_general,
)
from inertia import forking, integrators, landscapes

from ensemble_arrays import assert_no_child_process, refuse, spy_on_fork

STEPS = 300  # each run below; the step cutoff is lowered to 100 for it


def dense(dim, seed=3):
    m = np.random.default_rng(seed).standard_normal((dim, dim))
    b = m.T @ m / dim + 0.1 * np.eye(dim)
    return quadratic_general(0.5 * (b + b.T))


def start(dim, seed=4):
    rng = np.random.default_rng(seed)
    return State(rng.standard_normal(dim) / dim**0.5, rng.standard_normal(dim) / dim**0.5)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def splitting(landscape):
    """``landscape``, or a skip where its probe keeps runs in one process on this BLAS."""
    if landscape.column_cut is None:
        pytest.skip(f"w @ A does not split with its bits at dim {landscape.dim} on this BLAS")
    return landscape


@pytest.fixture
def short_runs_split(monkeypatch):
    """Runs of 100 steps or more are long enough to split, and the fork
    sees two usable CPUs; yields the pids forked from now on."""
    monkeypatch.setattr(integrators, "_SPLIT_STEPS", 100)
    return spy_on_fork(monkeypatch)


def in_process(monkeypatch, run):
    """``run()`` with ``may_fork`` false, so that nothing splits."""
    with monkeypatch.context() as m:
        m.setattr(integrators, "may_fork", lambda: False)
        return run()


RUNS = {
    "damped_splitting": lambda ls: integrate(
        SystemSpec(landscape=ls, gamma=0.05), start(ls.dim),
        IntegratorConfig(method="damped_splitting", h=0.01, t_end=STEPS * 0.01, record_every=7)),
    "verlet": lambda ls: integrate(
        SystemSpec(landscape=ls), start(ls.dim),
        IntegratorConfig(method="verlet", h=0.01, t_end=STEPS * 0.01)),
    "rk4": lambda ls: integrate(
        SystemSpec(landscape=ls, gamma=0.3), start(ls.dim),
        IntegratorConfig(method="rk4", h=0.01, t_end=STEPS * 0.01, record_every=10)),
    "discrete": lambda ls: discrete_trajectory(
        start(ls.dim).w, start(ls.dim).v, 0.05, STEPS, ls),
}


def arrays(result):
    if isinstance(result, tuple):  # discrete_trajectory's (ws, vs, energy)
        return result
    return result.ws, result.vs, result.inertia


@pytest.mark.parametrize("dim", [512, 640])
@pytest.mark.parametrize("run", sorted(RUNS))
def test_a_split_run_has_the_bits_of_one_process(monkeypatch, short_runs_split, dim, run):
    landscape = dense(dim)
    split = arrays(RUNS[run](landscape))
    assert len(short_runs_split) == (landscape.column_cut is not None)
    assert_no_child_process()
    whole = arrays(in_process(monkeypatch, lambda: RUNS[run](landscape)))
    assert len(short_runs_split) == (landscape.column_cut is not None)
    assert all(map(same_bits, split, whole))


@pytest.mark.parametrize("run", sorted(RUNS))
def test_recorded_energies_are_inertia_rows_split_or_not(monkeypatch, short_runs_split, run):
    """At dim 512 a block keeps the gradients of 64 rows: several blocks here."""
    landscape = dense(512)
    for result in (RUNS[run](landscape), in_process(monkeypatch, lambda: RUNS[run](landscape))):
        ws, vs, energies = arrays(result)
        assert same_bits(energies, inertia_rows(ws, vs, landscape))
    assert len(short_runs_split) == (landscape.column_cut is not None)
    assert_no_child_process()


def split_bits_equal(matrix, cut, vectors):
    """Whether both contiguous column blocks join to ``w @ matrix``'s bits for every vector."""
    left = np.ascontiguousarray(matrix[:, :cut])
    right = np.ascontiguousarray(matrix[:, cut:])
    return all(np.concatenate((w @ left, w @ right)).tobytes() == (w @ matrix).tobytes()
               for w in vectors)


@pytest.mark.parametrize("dim, columns", [(130, 64), (512, 64), (513, 64), (640, 64),
                                          (513, 1), (514, 1), (515, 3)])
def test_the_probe_verdict_is_the_measured_bit_equality(monkeypatch, dim, columns):
    monkeypatch.setattr(landscapes, "_CUT_COLUMNS", columns)
    landscape = dense(dim)
    cut = dim // (2 * columns) * columns
    rng = np.random.default_rng(dim)
    equal = split_bits_equal(landscape.matrix, cut, rng.standard_normal((8, dim)))
    assert landscape.column_cut == (cut if equal else None)


def a_cut_that_moves_bits():
    """A (dim, _CUT_COLUMNS) whose cut gives other bits than ``w @ A`` on this
    BLAS, or None where no candidate does."""
    for dim, columns in [(513, 1), (514, 1), (515, 3), (513, 64), (130, 64)]:
        cut = dim // (2 * columns) * columns
        w = np.sin(np.arange(1.0, dim + 1.0))
        if not split_bits_equal(dense(dim).matrix, cut, [w]):
            return dim, columns
    return None


def test_a_cut_that_moves_bits_is_not_split(monkeypatch, short_runs_split):
    found = a_cut_that_moves_bits()
    if found is None:
        pytest.skip("every candidate cut gives the bits of w @ A on this BLAS")
    dim, columns = found
    monkeypatch.setattr(landscapes, "_CUT_COLUMNS", columns)
    monkeypatch.setattr(integrators, "_SPLIT_DIM", 128)
    landscape = dense(dim)
    assert landscape.column_cut is None
    run = RUNS["damped_splitting"]
    got = arrays(run(landscape))
    assert short_runs_split == []
    assert all(map(same_bits, got, arrays(in_process(monkeypatch, lambda: run(landscape)))))


def test_short_or_small_runs_are_not_split(monkeypatch):
    pids = spy_on_fork(monkeypatch)
    landscape = splitting(dense(512))
    RUNS["damped_splitting"](landscape)  # below _SPLIT_STEPS
    monkeypatch.setattr(integrators, "_SPLIT_STEPS", 100)
    RUNS["damped_splitting"](dense(integrators._SPLIT_DIM - 64))
    assert pids == []
    RUNS["damped_splitting"](landscape)
    assert len(pids) == 1
    assert_no_child_process()


def test_a_partner_killed_mid_run_leaves_the_bits(monkeypatch, short_runs_split):
    """The partner is killed before the 100th hand-back; this process then
    computes the whole product, with the same bits."""
    landscape = splitting(dense(512))
    parent, acquire, calls = os.getpid(), forking._acquire, []

    def killing_acquire(semaphore, alive):
        if os.getpid() == parent:
            calls.append(1)
            if len(calls) == 100:
                os.kill(short_runs_split[0], signal.SIGKILL)
                while alive():
                    pass
        return acquire(semaphore, alive)
    monkeypatch.setattr(forking, "_acquire", killing_acquire)
    run = RUNS["damped_splitting"]
    got = arrays(run(landscape))
    assert len(calls) <= 101  # a dead partner is not waited for again
    assert_no_child_process()
    assert all(map(same_bits, got, arrays(in_process(monkeypatch, lambda: run(landscape)))))


@pytest.mark.parametrize("target, name", [
    (os, "fork"), (forking.mmap, "mmap"), (multiprocessing.context.BaseContext, "Semaphore"),
])
def test_a_failing_fork_mapping_or_semaphore_runs_in_process(monkeypatch, short_runs_split,
                                                             target, name):
    landscape = splitting(dense(512))
    run = RUNS["verlet"]
    whole = arrays(in_process(monkeypatch, lambda: run(landscape)))
    monkeypatch.setattr(target, name, refuse)
    got = arrays(run(landscape))
    assert short_runs_split == []
    assert all(map(same_bits, got, whole))
    assert_no_child_process()


def test_a_blowing_up_run_names_the_same_step_split_or_not(monkeypatch, short_runs_split):
    """The failure replay steps with a split gradient too, and reaps its partner."""
    landscape = splitting(dense(512))

    def run():
        with pytest.raises(NumericalFailure, match="non-finite state") as failure:
            integrate(SystemSpec(landscape=landscape), start(512),
                      IntegratorConfig(method="verlet", h=1.5, t_end=1.5 * 1500))
        return failure.value.step_index
    split = run()
    assert len(short_runs_split) == 1
    assert_no_child_process()
    assert 0 < split == in_process(monkeypatch, run)


def test_a_raising_run_reaps_its_partner(monkeypatch, short_runs_split):
    landscape = splitting(dense(512))
    calls = []

    def failing_run(*args, **kwargs):
        calls.append(1)
        raise KeyboardInterrupt
    monkeypatch.setattr(integrators, "_run", failing_run)
    with pytest.raises(KeyboardInterrupt):
        RUNS["verlet"](landscape)
    assert calls and len(short_runs_split) == 1
    assert_no_child_process()


KILLED_RUN = """
import os, signal
import numpy as np
from inertia import IntegratorConfig, State, SystemSpec, integrate, quadratic_general
from inertia import forking, integrators

fork, acquire, calls = os.fork, forking._acquire, []
def announcing_fork():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid
def dying_acquire(semaphore, alive):
    calls.append(1)
    if len(calls) == 50:
        os.kill(os.getpid(), signal.SIGKILL)
    return acquire(semaphore, alive)
os.fork = announcing_fork
os.sched_getaffinity = lambda pid: {0, 1}
integrators._SPLIT_STEPS = 100
m = np.random.default_rng(3).standard_normal((512, 512))
landscape = quadratic_general(m.T @ m)
if landscape.column_cut is None:
    raise SystemExit(0)  # nothing splits on this BLAS
fork_parent = os.getpid()
forking._acquire = lambda s, alive: (dying_acquire if os.getpid() == fork_parent else acquire)(s, alive)
integrate(SystemSpec(landscape=landscape), State(np.ones(512), np.zeros(512)),
          IntegratorConfig(method="verlet", h=0.01, t_end=3.0))
"""


def test_a_run_killed_outright_takes_its_partner_along():
    """No finally runs in a SIGKILLed run; its partner sees its parent change
    and exits, which closes the stdout it inherited, so the run below returns."""
    package_root = os.path.dirname(os.path.dirname(integrators.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    try:
        done = subprocess.run([sys.executable, "-c", KILLED_RUN], env=env,
                              stdout=subprocess.PIPE, timeout=60)
    except subprocess.TimeoutExpired as exc:
        if exc.output:  # the partner is still running: stop it
            os.kill(int(exc.output), signal.SIGKILL)
        raise
    if done.returncode == 0:
        pytest.skip("w @ A does not split with its bits at dim 512 on this BLAS")
    assert done.returncode == -signal.SIGKILL
    assert int(done.stdout) > 0  # the partner's pid: it was forked
