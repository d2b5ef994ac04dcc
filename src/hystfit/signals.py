"""Input-signal generation, synthetic datasets, and flag-point estimation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DetectionError, InputError, check_number
from .operators import _validate_series, predict


@dataclass
class Trajectory:
    """Time-stamped input samples, optionally paired with measured angles.

    ``t`` is seconds, ``v`` the raw input (encoder counts in robot data),
    ``theta`` measured angles in degrees aligned with the samples.
    """

    t: np.ndarray
    v: np.ndarray
    theta: np.ndarray | None = None

    def __post_init__(self):
        if self.theta is None:
            self.t, self.v = _validate_series(self.t, self.v)
        else:
            self.t, self.v, self.theta = _validate_series(self.t, self.v, self.theta)

    def __len__(self):
        return self.t.size


def decaying_sinusoid(t_start: float = 0.0, t_end: float = 10.0, dt: float = 1e-3) -> Trajectory:
    """Uniformly sampled decaying sinusoid, the stock simulation input.

    v(t) = 8 * exp(-0.04*t) * sin(2*pi*t + pi/4)
    """
    for value, name in ((t_start, "t_start"), (t_end, "t_end"), (dt, "dt")):
        check_number(value, name)
    if not (t_start < t_end):
        raise ConfigError(f"need t_start < t_end, got [{t_start}, {t_end}]")
    if dt <= 0 or dt >= t_end - t_start:
        raise ConfigError(f"need 0 < dt < t_end - t_start, got dt={dt}")
    if not np.isfinite(count := (t_end - t_start) / dt):
        raise ConfigError(f"sample count ({t_end} - {t_start}) / {dt} is not finite")
    n = int(np.floor(count + 1e-9))
    try:
        t = t_start + dt * np.arange(n + 1)
        v = 8.0 * np.exp(-0.04 * t) * np.sin(2 * np.pi * t + np.pi / 4)
    except (MemoryError, ValueError):  # numpy refuses a size past its limit with ValueError
        raise ConfigError(f"sample count {n + 1} does not fit in memory") from None
    return Trajectory(t=t, v=v)


def detect_flag_point(traj: Trajectory, eps: float | None = None) -> float:
    """Input value at the first near-rest sample after the input has moved.

    Scans the finite-difference rate and returns v at the first sample
    whose |rate| drops below ``eps`` following an interval of motion;
    leading at-rest samples are skipped. ``eps`` defaults to 1% of the
    trajectory's maximum absolute rate (an absolute threshold would be
    unit-dependent). Used as the initial flag-point estimate for fitting.
    """
    if len(traj) < 3:
        raise InputError("need at least 3 samples to estimate a flag point")
    rates = np.diff(traj.v) / np.diff(traj.t)
    if eps is None:
        eps = 0.01 * float(np.max(np.abs(rates)))
        if eps == 0.0:
            raise DetectionError("input never moves; supply the flag point explicitly")
    elif check_number(eps, "eps") <= 0:
        raise ConfigError(f"eps must be > 0, got {eps}")
    moving = np.abs(rates) >= eps
    if not moving.any():
        raise DetectionError("input never moves faster than eps; supply the flag point")
    first_move = int(np.argmax(moving))
    rest = np.nonzero(~moving[first_move:])[0]
    if rest.size == 0:
        raise DetectionError(
            "no near-rest sample after motion; supply the flag point explicitly"
        )
    k = first_move + int(rest[0])
    return float(traj.v[k + 1])


def gen_synthetic(
    model, traj: Trajectory, noise_std: float = 0.0, seed: int = 0
) -> Trajectory:
    """Forward-simulate ``model`` over ``traj`` and attach noisy angles.

    Noise is zero-mean Gaussian from a stream seeded by ``seed``; identical
    arguments reproduce the output bit for bit. ``noise_std=0`` returns the
    clean model output exactly.
    """
    if check_number(noise_std, "noise_std") < 0:
        raise ConfigError(f"noise_std must be >= 0, got {noise_std}")
    if check_number(seed, "seed", integer=True) < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    theta = predict(model, traj.t, traj.v)
    if noise_std > 0:
        rng = np.random.default_rng(seed)
        theta = theta + rng.normal(0.0, noise_std, theta.size)
    return Trajectory(t=traj.t.copy(), v=traj.v.copy(), theta=theta)
