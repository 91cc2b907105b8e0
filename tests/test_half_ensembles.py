"""A large ensemble run as two half-ensembles, this process's members and a
forked partner's: the bits of one process, and the failure it names."""

import numpy as np
import pytest

from inertia import (IntegratorConfig, NumericalFailure, State, SystemSpec, forking, integrators,
                     landscape_from_name, quadratic_general)
from inertia.analysis import ensemble_expected_decay
from inertia.streams import member_rngs

from ensemble_arrays import assert_no_child_process, group_arrays, spy_on_fork


def dense(dim):
    m = np.random.default_rng(dim).standard_normal((dim, dim))
    a = m.T @ m / dim + 0.1 * np.eye(dim)
    return quadratic_general(0.5 * (a + a.T))


LANDSCAPES = {"iso1d": landscape_from_name("iso1d"), "diag": landscape_from_name("diag:1,4,9"),
              "dense17": dense(17)}


def split_and_whole(monkeypatch, run):
    """``run()`` with a forked partner, and with ``may_fork`` false: the first
    must fork exactly once and the second not at all."""
    pids = spy_on_fork(monkeypatch)
    split = run()
    assert len(pids) == 1
    assert_no_child_process()
    with monkeypatch.context() as m:
        m.setattr(forking, "may_fork", lambda: False)
        whole = run()
    assert len(pids) == 1
    return split, whole


@pytest.mark.parametrize("n_members, n_steps, burn_in", [
    # 1000 members: groups of 10 samples (white) or 8 (ou), and of 16 or 10
    # for the samples. 40 samples fill 4 or 5 groups, 45 fill 5 or 6 with a
    # last partial group, 51 fill 6 or 7 with one of 1 or 3.
    (1000, 39, 0.05), (1000, 44, 0.05), (1000, 50, 0.05),
    # the balance window, samples 25 to 43, starts inside the third or
    # fourth group and ends inside the partial last one
    (1000, 44, 0.25),
    (6000, 16, 0.05),  # a group per sample, 17 of them
], ids=["1000-39", "1000-44", "1000-50", "1000-44-late-window", "6000-16"])
@pytest.mark.parametrize("noise, tau", [("white", None), ("ou", 0.5)])
@pytest.mark.parametrize("name", LANDSCAPES)
def test_a_split_ensemble_has_the_bits_of_one_process(monkeypatch, name, noise, tau, n_members,
                                                      n_steps, burn_in):
    """Every series, the balance and its stderr, and every member's rows of every group."""
    landscape = LANDSCAPES[name]
    dim = landscape.dim
    spec = SystemSpec(landscape=landscape, gamma=0.4, sigma=0.3, noise_kind=noise, tau=tau)
    cfg = IntegratorConfig(method="stochastic_splitting", h=0.01, t_end=n_steps * 0.01, seed=6)
    assert cfg.n_steps == n_steps
    start = State(np.linspace(1.0, 0.2, dim), np.full(dim, 0.1))
    per_step = 1 if noise == "ou" else 2
    # refills of 5 steps for the whole ensemble, 10 for each half
    monkeypatch.setattr(integrators, "_NOISE_FLOATS", 2 * per_step * n_members * dim * 5)
    rows = 4 if noise == "ou" else 3
    size = integrators._GROUP_FLOATS // (rows * n_members)
    assert (size > 1) == (n_members == 1000)
    if burn_in == 0.25:
        assert size < 25 and 25 % size and 45 % size

    split, whole = split_and_whole(
        monkeypatch, lambda: ensemble_expected_decay(spec, start, cfg, n_members, burn_in=burn_in))
    for q in ("inertia", "inertia_rate", "speed_squared"):
        for series in ("mean_series", "stderr_series"):
            got, expected = getattr(getattr(split, q), series), getattr(getattr(whole, q), series)
            assert got.tobytes() == expected.tobytes(), (q, series)
    if noise == "ou":
        assert split.mean_noise_dot_v.tobytes() == whole.mean_noise_dot_v.tobytes()
    assert split.balance_residual.hex() == whole.balance_residual.hex()
    assert split.balance_stderr.hex() == whole.balance_stderr.hex()

    split, whole = split_and_whole(monkeypatch, lambda: group_arrays(spec, start, cfg, n_members))
    for key in whole:
        assert split[key].tobytes() == whole[key].tobytes(), key


def test_a_dense_batch_whose_rows_a_blas_may_move_still_splits(monkeypatch):
    """Dim 17 at 6000 members, where cutting the batched W @ A in half moved
    row bits on OpenBLAS 0.3.31: both halves are stepped as their own
    batches whether or not a partner forks, so the groups agree bit for bit.
    Refills of 5 steps, a group per sample."""
    spec = SystemSpec(landscape=LANDSCAPES["dense17"], gamma=0.4, sigma=0.3, noise_kind="white")
    cfg = IntegratorConfig(method="stochastic_splitting", h=0.01, t_end=0.2, seed=6)
    start = State(np.linspace(1.0, 0.2, 17), np.full(17, 0.1))
    assert integrators._refill_steps(spec, 6000) < cfg.n_steps
    split, whole = split_and_whole(monkeypatch, lambda: group_arrays(spec, start, cfg, 6000))
    for key in whole:
        assert split[key].tobytes() == whole[key].tobytes(), key


@pytest.mark.parametrize("noise, tau", [("white", None), ("ou", 0.5)])
def test_both_halves_in_one_process_share_one_process_noise(monkeypatch, noise, tau):
    """Without a partner the two halves' slots hold together what one batch of
    every member would: at most _NOISE_FLOATS / 2 floats, as in each process
    of a forked run."""
    spec = SystemSpec(landscape=LANDSCAPES["diag"], gamma=0.4, sigma=0.3, noise_kind=noise,
                      tau=tau)
    cfg = IntegratorConfig(method="stochastic_splitting", h=0.01, t_end=0.3, seed=6)
    n_members, per_step = 101, 1 if noise == "ou" else 2
    monkeypatch.setattr(integrators, "_NOISE_FLOATS", 2 * per_step * n_members * 3 * 7)
    slots, draws = [], integrators._member_draws

    def recording_draws(rngs, n_steps, per_step, dim, rows):
        slots.append((len(rngs), rows * per_step * len(rngs) * dim))
        return draws(rngs, n_steps, per_step, dim, rows)
    monkeypatch.setattr(integrators, "_member_draws", recording_draws)
    monkeypatch.setattr(forking, "may_fork", lambda: False)
    group_arrays(spec, State([1.0, 0.5, -0.2], [0.0, 0.1, 0.0]), cfg, n_members)
    assert [members for members, _ in slots] == [51, 50]  # the partner's half is built first
    assert sum(floats for _, floats in slots) == 7 * per_step * n_members * 3
    assert sum(floats for _, floats in slots) <= integrators._NOISE_FLOATS // 2


def first_failure(spec, cfg, first, stop):
    """(step, member) of the first non-finite state of members [first, stop) run alone."""
    samples = integrators._member_samples(spec, State([1.0], [0.0]), cfg,
                                          member_rngs(cfg.seed, first, stop), first, 100)
    with pytest.raises(NumericalFailure) as failure, np.errstate(over="ignore", invalid="ignore"):
        for _ in samples:
            pass
    return failure.value.step_index, failure.value.member


# An unstable step (h = 2.5 on the unit bowl) with noise of 1e100 overflows
# every member near step 345, at a step that depends on its draws. At 1000
# members the cut is 500; the seeds were picked from the first dozen.
@pytest.mark.parametrize("seed, parent_half, partner_half", [
    (8, (346, 2), (345, 936)),  # the partner's half fails first
    (2, (345, 139), (346, 500)),  # this process's half fails first
    (0, (346, 0), (346, 500)),  # both fail at one step: the lower member wins
], ids=["partner", "parent", "both"])
def test_a_split_ensemble_names_the_failure_of_one_process(monkeypatch, seed, parent_half,
                                                           partner_half):
    spec = SystemSpec(landscape=LANDSCAPES["iso1d"], gamma=0.0, sigma=1e100, noise_kind="white")
    cfg = IntegratorConfig(method="stochastic_splitting", h=2.5, t_end=2.5 * 700, seed=seed)
    assert first_failure(spec, cfg, 0, 500) == parent_half
    assert first_failure(spec, cfg, 500, 1000) == partner_half
    expected = min(parent_half, partner_half)

    def failure(run):
        with pytest.raises(NumericalFailure) as caught, np.errstate(over="ignore", invalid="ignore"):
            run()
        return caught.value.step_index, caught.value.member
    run = lambda: ensemble_expected_decay(spec, State([1.0], [0.0]), cfg, 1000)  # noqa: E731
    split, whole = split_and_whole(monkeypatch, lambda: failure(run))
    assert split == whole == expected
