"""Shared test fixtures.

The recovery benchmark: a rise-fall input sweep (with a short rest at the
true flag point, mimicking how staged lab profiles pause at direction
changes) driving a two-bank descend-flag model with linear envelopes.
Generating parameters are drawn per seed from documented uniform ranges
chosen to give robot-scale angle ranges (roughly 25..60 deg) and a clearly
two-staged descending branch.
"""

import numpy as np

from hystfit import (
    DensitySpec,
    EgpiModel,
    LinearEnvelope,
    TanhEnvelope,
    Trajectory,
    build_model,
    gen_synthetic,
)
from hystfit.operators import _BLOCK, GpiModel, _stack

SWEEP_N = 5000
SWEEP_DT = 1e-3
SWEEP_PEAK = 10.0
SWEEP_FLAG = 6.0  # true descending flag point of every generating model


def sweep_input(n=SWEEP_N, dt=SWEEP_DT, peak=SWEEP_PEAK, flag=SWEEP_FLAG):
    """Rise 0 -> peak, fall to the flag level, rest briefly, fall to 0."""
    n_up = n // 2
    n_down1 = n // 5
    n_hold = n // 50
    n_down2 = n - n_up - n_down1 - n_hold
    v = np.concatenate(
        [
            np.linspace(0.0, peak, n_up, endpoint=False),
            np.linspace(peak, flag, n_down1, endpoint=False),
            np.full(n_hold, flag),
            np.linspace(flag, 0.0, n_down2),
        ]
    )
    return Trajectory(t=dt * np.arange(n), v=v)


def short_tail_input(dt=SWEEP_DT, peak=SWEEP_PEAK):
    """Rise 0 -> peak over ``3 * _BLOCK + 30`` samples, then fall to 0 over
    1,500. The rise, longer than three blocks, is one walk entry:
    descend-flag bank 2, which reports none of it, crosses it in one
    step."""
    v = np.concatenate([
        np.linspace(0.0, peak, 3 * _BLOCK + 30),
        np.linspace(peak, 0.0, 1501)[1:],
    ])
    return Trajectory(t=dt * np.arange(v.size), v=v)


def recovery_params(seed):
    """Generating parameter vector for one benchmark seed (egpi layout)."""
    rng = np.random.default_rng(1000 + seed)
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


def recovery_dataset(seed, noise_std=0.1, n=SWEEP_N):
    """(noisy trajectory, clean output, true params) for one seed."""
    base = sweep_input(n=n)
    params = recovery_params(seed)
    clean_model = build_model(params, "egpi", SWEEP_FLAG)
    clean = gen_synthetic(clean_model, base, noise_std=0.0).theta
    noisy_model = build_model(params, "egpi", SWEEP_FLAG)
    noisy = gen_synthetic(noisy_model, base, noise_std=noise_std, seed=seed)
    return noisy, clean, params


def bank_stack(bank: GpiModel):
    """``bank`` alone as the rows of one walk (``operators._stack``), as a
    model's evaluation lays it out (``operators._evaluate``)."""
    return _stack([(*bank.density._grid, bank.kappa_asc, bank.kappa_desc,
                    bank.asc_env, bank.desc_env)])


def unequal_banks_model(kind: str) -> EgpiModel:
    """A switched model whose banks differ in operator count, density,
    regulators and envelope family, so that each sits on rows of its own
    length in a pass over both (``operators._Stack``).

    ``"wide-narrow"``: 31 linear operators, then 2 tanh ones, two flags.
    ``"narrow-mid"``: the 2 tanh operators, then 8 linear ones with their
    own ``lam`` and ``sigma``, descend flag. ``"one-bank"``: the 31 linear
    operators in both slots, one object, two flags.
    """
    wide = GpiModel(density=DensitySpec(lam=0.3, sigma=0.2, r1=0.1, rn=2.5, n=30),
                    asc_env=LinearEnvelope(a=1.0, b=0.2), desc_env=LinearEnvelope(a=1.1, b=0.9),
                    kappa_asc=0.7, kappa_desc=1.3)
    narrow = GpiModel(density=DensitySpec(lam=0.9, sigma=0.05, r1=0.4, rn=0.4, n=1),
                      asc_env=TanhEnvelope(c=3.0, d=0.8, e=0.1, f=-0.5),
                      desc_env=TanhEnvelope(c=3.2, d=0.7, e=-0.2, f=0.6),
                      kappa_asc=2.0, kappa_desc=3.5)
    mid = GpiModel(density=DensitySpec(lam=0.5, sigma=0.4, r1=0.3, rn=1.9, n=7),
                   asc_env=LinearEnvelope(a=0.8, b=-0.1), desc_env=LinearEnvelope(a=1.3, b=1.4),
                   kappa_asc=1.5, kappa_desc=0.6)
    if kind == "narrow-mid":
        return EgpiModel(submodels=[narrow, mid], flag_desc=0.5)
    banks = {"wide-narrow": [wide, narrow], "one-bank": [wide, wide]}[kind]
    return EgpiModel(submodels=banks, flag_asc=1.0, flag_desc=0.5)


def refuse_huge_arange(monkeypatch):
    """Make ``np.arange`` raise MemoryError for more than 10**9 samples, as
    numpy does where they do not fit, without asking for the memory."""
    arange = np.arange

    def refuse(n, *args, **kwargs):
        if n > 10**9:
            raise MemoryError(f"unable to allocate {n} samples")
        return arange(n, *args, **kwargs)

    monkeypatch.setattr(np, "arange", refuse)


def oracle_kwargs(model: GpiModel) -> dict:
    """run_gpi keyword values for one bank (plain values only)."""
    d = model.density
    return {
        "asc_doc": model.asc_env.to_dict(),
        "desc_doc": model.desc_env.to_dict(),
        "ka": model.kappa_asc,
        "kd": model.kappa_desc,
        "lam": d.lam,
        "sigma": d.sigma,
        "r1": d.r1,
        "rn": d.rn,
        "n": d.n,
    }


def random_envelope(rng, kind=None, shift=0.0):
    """Random in-bounds envelope; shift raises the whole curve."""
    from hystfit import LinearEnvelope, TanhEnvelope

    if kind is None:
        kind = "linear" if rng.random() < 0.5 else "tanh"
    if kind == "linear":
        return LinearEnvelope(a=rng.uniform(0.3, 3.0), b=rng.uniform(-2.0, 2.0) + shift)
    return TanhEnvelope(
        c=rng.uniform(2.0, 12.0),
        d=rng.uniform(0.05, 0.5),
        e=rng.uniform(-1.0, 1.0),
        f=rng.uniform(-1.0, 1.0) + shift,
    )


def random_density(rng):
    from hystfit import DensitySpec

    r1 = rng.uniform(0.05, 2.0)
    return DensitySpec(
        lam=rng.uniform(0.01, 1.0),
        sigma=rng.uniform(0.0, 1.0),
        r1=r1,
        rn=r1 + rng.uniform(0.0, 8.0),
        n=int(rng.integers(1, 35)),
    )


def random_gpi(rng):
    from hystfit import GpiModel

    return GpiModel(
        density=random_density(rng),
        asc_env=random_envelope(rng),
        desc_env=random_envelope(rng, shift=2.0),
        kappa_asc=rng.uniform(0.5, 8.0),
        kappa_desc=rng.uniform(0.5, 8.0),
    )


def random_input(rng, max_segments=6, max_len=40):
    """Piecewise-monotone input: random ramps with occasional holds."""
    segs = []
    cur = rng.uniform(-3.0, 3.0)
    for _ in range(int(rng.integers(2, max_segments + 1))):
        if rng.random() < 0.15:
            segs.append(np.full(int(rng.integers(2, 8)), cur))
            continue
        nxt = rng.uniform(-6.0, 6.0)
        npts = int(rng.integers(3, max_len))
        segs.append(np.linspace(cur, nxt, npts, endpoint=False))
        cur = nxt
    v = np.concatenate(segs + [np.array([cur])])
    t = 0.01 * np.arange(v.size)
    return t, v
