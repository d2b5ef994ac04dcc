"""Seeded input generators for the benchmark workloads.

Everything here is built from a workload seed with numpy's PCG64 stream,
so the same seed always gives the same arrays and the same file bytes.
The program under test only ever receives these arrays, or the CSV/JSON
files written from them; nothing is imported from the test suite.
"""

from __future__ import annotations

import numpy as np

# --- AC-3 recovery recipe (documented in the acceptance tests) ------------
# A rise-fall sweep with a short rest at the true flag point drives a
# descend-flag two-bank model with linear envelopes; the generating
# parameters of recovery seed k come from PCG64(1000 + k), and the 0.1 deg
# Gaussian noise from PCG64(k).
SWEEP_N = 5000
SWEEP_DT = 1e-3
SWEEP_PEAK = 10.0
SWEEP_FLAG = 6.0
RECOVERY_NOISE_STD = 0.1


def sweep_input():
    """Input of the recovery recipe: rise 0 -> peak, fall to flag, rest, fall to 0."""
    n_up = SWEEP_N // 2
    n_down1 = SWEEP_N // 5
    n_hold = SWEEP_N // 50
    n_down2 = SWEEP_N - n_up - n_down1 - n_hold
    return np.concatenate(
        [
            np.linspace(0.0, SWEEP_PEAK, n_up, endpoint=False),
            np.linspace(SWEEP_PEAK, SWEEP_FLAG, n_down1, endpoint=False),
            np.full(n_hold, SWEEP_FLAG),
            np.linspace(SWEEP_FLAG, 0.0, n_down2),
        ]
    )


def recovery_params(recovery_seed):
    """Generating egpi parameter vector of one recovery seed."""
    rng = np.random.default_rng(1000 + recovery_seed)
    a1 = 3.0 + rng.uniform(-0.4, 0.4)
    a2 = rng.uniform(0.0, 1.5)
    a3 = a1 * rng.uniform(0.95, 1.1)
    a4 = a2 + rng.uniform(3.5, 5.5)
    a5 = a1 * rng.uniform(0.55, 0.8)
    a6 = rng.uniform(-1.0, 1.0)
    lam = rng.uniform(0.04, 0.09)
    sigma = rng.uniform(0.05, 0.3)
    r1 = rng.uniform(0.1, 0.4)
    rn = rng.uniform(1.5, 3.0)
    kappa = rng.uniform(2.0, 4.0)
    return np.array([a1, a2, a3, a4, a5, a6, lam, sigma, r1, rn, kappa])


def recovery_dataset(hf, recovery_seed, t0):
    """(t, v, noisy theta, clean theta) of one recovery seed.

    ``t0`` only shifts the time stamps: the model output, and therefore
    every optimizer step of a fit, depends on ``v`` and ``theta`` alone.
    """
    v = sweep_input()
    t = t0 + SWEEP_DT * np.arange(v.size)
    model = hf.build_model(recovery_params(recovery_seed), "egpi", SWEEP_FLAG)
    clean = hf.predict(model, t, v)
    noise = np.random.default_rng(recovery_seed).normal(0.0, RECOVERY_NOISE_STD, v.size)
    return t, v, clean + noise, clean


# --- dither sweep: quantized, noisy slow sweep, like encoder data ---------

DITHER_DT = 1e-3
DITHER_QUANTUM = 0.01


def dither_sweep(seed, n):
    """Slow sinusoidal sweep plus noise of about one quantum, quantized.

    The slow part moves less than a quantum per sample, so after
    quantization most monotone runs are a few samples long and exact
    repeats (holds) are frequent.
    """
    rng = np.random.default_rng(seed)
    t = DITHER_DT * np.arange(n)
    amp = rng.uniform(6.0, 8.0)
    freq = rng.uniform(0.04, 0.06)
    phase = rng.uniform(0.0, 2 * np.pi)
    v = amp * np.sin(2 * np.pi * freq * t + phase) + rng.normal(0.0, DITHER_QUANTUM, n)
    return t, DITHER_QUANTUM * np.round(v / DITHER_QUANTUM)


# --- 200k-sample noisy dataset for bulk evaluation ------------------------

BULK_N = 200_001
BULK_DT = 5e-5  # the simulate step too: 10 s at 5e-5 gives BULK_N samples


def bulk_dataset(hf, seed, model):
    """Decaying sinusoid with seeded shape, the model's output plus noise."""
    rng = np.random.default_rng(seed)
    t = BULK_DT * np.arange(BULK_N)
    amp = rng.uniform(7.0, 9.0)
    decay = rng.uniform(0.03, 0.05)
    phase = rng.uniform(0.0, 2 * np.pi)
    v = amp * np.exp(-decay * t) * np.sin(2 * np.pi * t + phase)
    theta = hf.predict(model, t, v) + rng.normal(0.0, 0.1, BULK_N)
    return t, v, theta


def write_csv(path, header, columns):
    """CSV with shortest round-trip float repr, as the dataset format uses."""
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in zip(*(map(repr, c.tolist()) for c in columns)))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
