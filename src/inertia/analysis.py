"""Closed forms, decay-rate fitting, and ensemble dissipation estimates.

The underdamped closed form for the unit 1D quadratic is

    w(t) = exp(-gamma t / 2) (A cos(omega t) + B sin(omega t)),
    omega = sqrt(1 - gamma^2 / 4),

valid for 0 <= gamma < 2. Its energy decays like exp(-gamma t) times an
order-gamma oscillation, so decay rates are estimated by a log-linear fit,
optionally after averaging the log-energy over one oscillation period to
strip the wobble (the energy oscillates at frequency 2 omega, i.e. with
period pi/omega; one *damped period* 2 pi/omega contains two full wobbles,
so averaging over either cancels it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import State, SystemSpec
from .errors import InvalidArgument, NumericalFailure
from .integrators import IntegratorConfig, Trajectory, ensemble_groups, integrate
from .landscapes import quadratic_isotropic

__all__ = [
    "ClosedFormSolution",
    "DecayFit",
    "SweepEntry",
    "EnsembleStats",
    "EnsembleResult",
    "closed_form_underdamped",
    "fit_decay_rate",
    "damped_period",
    "sweep_gamma",
    "ensemble_expected_decay",
]


@dataclass(frozen=True)
class ClosedFormSolution:
    """Underdamped oscillator solution with analytic derivatives."""

    gamma: float
    A: float
    B: float
    omega: float

    def position(self, t):
        t = np.asarray(t, dtype=float)
        envelope = np.exp(-0.5 * self.gamma * t)
        return envelope * (self.A * np.cos(self.omega * t) + self.B * np.sin(self.omega * t))

    def velocity(self, t):
        t = np.asarray(t, dtype=float)
        envelope = np.exp(-0.5 * self.gamma * t)
        cos, sin = np.cos(self.omega * t), np.sin(self.omega * t)
        oscillation = self.A * cos + self.B * sin
        d_oscillation = self.omega * (-self.A * sin + self.B * cos)
        return envelope * (d_oscillation - 0.5 * self.gamma * oscillation)

    def acceleration(self, t):
        """Second derivative, differentiated analytically (no finite differences)."""
        t = np.asarray(t, dtype=float)
        envelope = np.exp(-0.5 * self.gamma * t)
        cos, sin = np.cos(self.omega * t), np.sin(self.omega * t)
        oscillation = self.A * cos + self.B * sin
        d_oscillation = self.omega * (-self.A * sin + self.B * cos)
        dd_oscillation = -self.omega ** 2 * oscillation
        return envelope * (
            dd_oscillation - self.gamma * d_oscillation + 0.25 * self.gamma ** 2 * oscillation
        )

    def evaluate(self, t):
        """(w, dw/dt) at time(s) t."""
        return self.position(t), self.velocity(t)

    def inertia(self, t):
        w, v = self.evaluate(t)
        return 0.5 * v * v + 0.5 * w * w


def _omega(gamma: float) -> float:
    """sqrt(1 - gamma^2 / 4), the underdamped frequency; refuses gamma outside [0, 2)."""
    if not 0 <= gamma < 2:
        raise InvalidArgument(f"the underdamped regime needs 0 <= gamma < 2, got {gamma}")
    return math.sqrt(1.0 - gamma * gamma / 4.0)


def closed_form_underdamped(gamma: float, w0: float, v0: float) -> ClosedFormSolution:
    """Coefficients matching w(0) = w0, dw/dt(0) = v0 on the unit 1D quadratic."""
    omega = _omega(gamma)
    a = float(w0)
    b = (float(v0) + 0.5 * gamma * float(w0)) / omega
    return ClosedFormSolution(gamma=float(gamma), A=a, B=b, omega=omega)


def damped_period(gamma: float) -> float:
    """2 pi / omega, the oscillation period of the underdamped solution."""
    return 2.0 * math.pi / _omega(gamma)


@dataclass(frozen=True)
class DecayFit:
    gamma_hat: float
    r_squared: float
    window: tuple[float, float]
    n_points: int


def _moving_average(y: np.ndarray, half_width: int) -> np.ndarray:
    """Centered moving average; output is shorter by half_width on each side."""
    window = 2 * half_width + 1
    kernel = np.full(window, 1.0 / window)
    return np.convolve(y, kernel, mode="valid")


def fit_decay_rate(
    trajectory: Trajectory,
    window: tuple[float, float],
    smooth_period: float | None = None,
) -> DecayFit:
    """Least-squares slope of ln I(t) over ``window``; gamma_hat = -slope.

    The energy of an underdamped run oscillates around its exponential
    envelope, so for an unbiased rate the window should span an integer
    number of damped periods (caller's duty). Passing ``smooth_period``
    additionally averages ln I over that duration before fitting, which
    removes the oscillation from the residuals as well (the fitted window
    shrinks by half a period at each end); that needs evenly spaced samples
    across the window.
    """
    t_start, t_end = float(window[0]), float(window[1])
    if not t_start < t_end:
        raise InvalidArgument(f"empty fit window {window!r}")
    times = trajectory.times
    if t_start < times[0] - 1e-9 or t_end > times[-1] + 1e-9:
        raise InvalidArgument(
            f"window {window!r} outside trajectory range [{times[0]}, {times[-1]}]"
        )
    mask = (times >= t_start - 1e-9) & (times <= t_end + 1e-9)
    t = times[mask]
    energy = trajectory.inertia[mask]
    if np.any(energy <= 0):
        raise InvalidArgument("energy must be positive throughout the fit window")
    y = np.log(energy)

    if smooth_period is not None:
        if smooth_period <= 0:
            raise InvalidArgument(f"smooth_period must be positive, got {smooth_period}")
        if t.shape[0] < 2:
            raise InvalidArgument(
                f"smoothing needs at least 2 samples in the fit window, got {t.shape[0]}"
            )
        dt = t[1] - t[0]
        gaps = np.diff(t)
        if gaps.max() - gaps.min() > 1e-6 * dt:
            # record_every that does not divide the step count leaves a short
            # final interval, and the averaging width assumes a uniform grid
            raise InvalidArgument(
                "smoothing needs evenly spaced samples; the fit window includes "
                "the short final interval left by record_every"
            )
        half_width = int(round(0.5 * smooth_period / dt))
        if 2 * half_width + 1 > t.shape[0]:
            raise InvalidArgument("smoothing window longer than the fit window")
        y = _moving_average(y, half_width)
        t = t[half_width : t.shape[0] - half_width]

    if t.shape[0] < 10:
        raise InvalidArgument(f"need at least 10 samples to fit, got {t.shape[0]}")

    slope, intercept = np.polyfit(t, y, 1)
    residuals = y - (slope * t + intercept)
    ss_res = float(residuals @ residuals)
    centered = y - y.mean()
    ss_tot = float(centered @ centered)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(
        gamma_hat=float(-slope),
        r_squared=float(min(max(r_squared, 0.0), 1.0)),
        window=(float(t[0]), float(t[-1])),
        n_points=int(t.shape[0]),
    )


@dataclass(frozen=True)
class SweepEntry:
    gamma: float
    gamma_hat: float | None
    r_squared: float | None
    error: str | None = None


def sweep_gamma(
    gammas,
    h: float = 0.01,
    n_periods: int = 5,
    w0: float = 1.0,
    v0: float = 0.0,
) -> list[SweepEntry]:
    """Fit the decay rate of one damped run per gamma on the unit 1D quadratic.

    Each run covers ``n_periods`` damped periods of its own gamma, and the
    fit averages ln I over one period. A gamma that ``SystemSpec`` refuses,
    ``n_periods`` < 1 and an ``h`` that ``IntegratorConfig`` refuses for the
    shortest run (gamma = 0) raise before the first run; other failures, a
    gamma >= 2 included, are captured per entry. Output is sorted by gamma.
    """
    if not n_periods >= 1:
        raise InvalidArgument(f"n_periods must be >= 1, got {n_periods}")
    landscape = quadratic_isotropic(1)
    specs = [SystemSpec(landscape=landscape, gamma=g) for g in sorted(float(g) for g in gammas)]
    IntegratorConfig(method="damped_splitting", h=h, t_end=n_periods * damped_period(0.0))
    start = State([w0], [v0])
    entries = []
    for spec in specs:
        try:
            period = damped_period(spec.gamma)
            config = IntegratorConfig(method="damped_splitting", h=h, t_end=n_periods * period)
            trajectory = integrate(spec, start, config)
            fit = fit_decay_rate(trajectory, (0.0, trajectory.times[-1]), smooth_period=period)
            entries.append(SweepEntry(spec.gamma, fit.gamma_hat, fit.r_squared))
        except (InvalidArgument, NumericalFailure) as exc:
            entries.append(SweepEntry(spec.gamma, None, None, error=str(exc)))
    return entries


@dataclass(frozen=True)
class EnsembleStats:
    """Per-time-index sample mean and standard error of one quantity."""

    mean_series: np.ndarray
    stderr_series: np.ndarray


@dataclass(frozen=True)
class EnsembleResult:
    """Ensemble statistics plus the time-averaged dissipation balance.

    ``balance_residual`` is the member-mean of

        time-avg(dI/dt) + gamma * time-avg(||v||^2) - (noise work term)

    where the work term is sigma^2 * dim / 2 for white noise (the
    second-order correction to the naive expected rate) and the recorded
    time average of <eta, v> for correlated noise. ``balance_stderr`` is
    its standard error across members. Time averages run over
    (burn_in, t_end); interior samples only, since dI/dt is a centered
    difference.
    """

    times: np.ndarray
    n_members: int
    inertia: EnsembleStats
    inertia_rate: EnsembleStats
    speed_squared: EnsembleStats
    mean_noise_dot_v: np.ndarray | None
    balance_residual: float
    balance_stderr: float
    burn_in: float


@np.errstate(over="ignore", invalid="ignore")
def ensemble_expected_decay(
    spec: SystemSpec,
    initial: State,
    config: IntegratorConfig,
    n_members: int,
    burn_in: float = 0.0,
) -> EnsembleResult:
    """Estimate the expected energy decay of a noisy system by Monte Carlo.

    Runs ``n_members`` independent members (streams derived from
    config.seed and the member index) and reduces them to per-time-index
    means and standard errors of the energy, its centered-difference time
    derivative, and the squared speed. ``burn_in`` excludes the initial
    transient from the balance time averages; the recorded series always
    cover the full run.

    The reduction is sample-major and streams, through
    ``integrators.ensemble_groups``. Each sample's per-member rows (energy,
    its rate, squared speed and, for correlated noise, <eta, v>) go into a
    group of finished samples of about 2^15 floats (one sample at 10^4
    members, dozens at a few hundred), and each group is reduced whole, with
    member-order folds. Memory is O(n_members * dim + n_samples). The
    balance's per-member time sums are added here from each group's rows,
    group by group, so they match a full-array mean to rounding, not
    bitwise. A run that forks a partner for half of its members reduces
    every other group there; the result is that of one process, bit for
    bit.

    Finite member states can still overflow a statistic (the spread of
    members near 1e154 overflows the variance), so a NaN or Inf in any
    reduced series or in the balance raises ``NumericalFailure``. It names
    the first bad sample as ``step_index`` (None when only the balance is
    bad) and no member. An overflow ends in that failure or in a member's,
    so the run steps and reduces with numpy's warnings silenced.
    """
    if n_members < 100:
        raise InvalidArgument(f"need at least 100 members for stable statistics, got {n_members}")
    if config.record_every != 1:
        raise InvalidArgument("balance estimates need every step recorded (record_every=1)")
    if not 0 <= burn_in < config.t_end:
        raise InvalidArgument(f"burn_in must lie in [0, t_end), got {burn_in}")

    times, groups = ensemble_groups(spec, initial, config, n_members)
    n_rec = times.shape[0]
    # Per-member time-averaged balance over interior samples past the burn-in.
    start = int(np.searchsorted(times, burn_in - 1e-9))
    start = max(start, 1)
    stop = n_rec - 1
    if stop - start < 10:
        raise InvalidArgument("burn_in leaves too few samples for the balance average")

    correlated = spec.noise_kind == "ou"
    # rows: inertia, inertia_rate, speed_squared and, if correlated, noise_dot_v
    n_rows = 4 if correlated else 3
    means = np.empty((n_rows, n_rec))
    stderrs = np.empty((3, n_rec))
    window_sums = np.zeros((n_rows - 1, n_members))  # per member: dI/dt, ||v||^2, <eta, v>
    for first, rows, out in groups:
        filled = out.shape[1]
        means[:, first : first + filled] = out[:n_rows]
        stderrs[:, first : first + filled] = out[n_rows:]
        window_sums += rows[1:, max(start - first, 0) : stop - first].sum(axis=1)

    finite = np.isfinite(means).all(axis=0) & np.isfinite(stderrs).all(axis=0)
    if not finite.all():
        k = int(np.argmin(finite))
        raise NumericalFailure(f"ensemble statistics not finite at step {k}", step_index=k)

    n_window = stop - start
    residual = window_sums[0] / n_window + spec.gamma * (window_sums[1] / n_window)
    if correlated:
        residual -= window_sums[2] / n_window
    else:
        residual -= 0.5 * spec.sigma ** 2 * initial.dim
    balance_residual = float(residual.mean())
    if residual.max() != residual.min():
        balance_stderr = float(residual.std(ddof=1) / math.sqrt(n_members))
    else:
        balance_stderr = 0.0
    if not (math.isfinite(balance_residual) and math.isfinite(balance_stderr)):
        raise NumericalFailure("ensemble balance not finite")

    return EnsembleResult(
        times=times,
        n_members=n_members,
        inertia=EnsembleStats(means[0], stderrs[0]),
        inertia_rate=EnsembleStats(means[1], stderrs[1]),
        speed_squared=EnsembleStats(means[2], stderrs[2]),
        mean_noise_dot_v=means[3] if correlated else None,
        balance_residual=balance_residual,
        balance_stderr=balance_stderr,
        burn_in=float(burn_in),
    )
