"""Generalized play operators, weighted operator banks, and the switched
two-submodel composition.

A play operator tracks its input between two monotone envelopes: moving
up it is pushed along ``asc_env(v) - kappa_asc*r``, moving down along
``desc_env(v) + kappa_desc*r``, and it holds while the input rests.
A bank of such operators with a weight density forms the single-stage
model; two banks plus flag-point output switching form the two-stage
model that captures multiple dead zones per monotonic sweep.

Direction is the sign of each sample-to-sample input difference. The
first sample of a fresh evaluation has no predecessor and is treated as
at rest. Exact input repeats take the hold branch; there is no epsilon
band around zero rate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .envelopes import Envelope, LinearEnvelope, TanhEnvelope
from .errors import ConfigError, DomainError, InputError, StateError


@dataclass(frozen=True)
class DensitySpec:
    """Threshold grid and exponential weight density for an operator bank.

    Thresholds are 0 followed by ``n`` values uniformly spaced from ``r1``
    to ``rn`` (``rn`` is ignored when n == 1). Weights decay as
    ``lam * exp(-sigma * r)`` and are strictly positive.
    """

    lam: float
    sigma: float
    r1: float
    rn: float
    n: int

    def __post_init__(self):
        if self.lam <= 0:
            raise ConfigError(f"density scale lam must be > 0, got {self.lam}")
        if self.sigma < 0:
            raise ConfigError(f"density decay sigma must be >= 0, got {self.sigma}")
        if self.r1 <= 0:
            raise ConfigError(f"first threshold r1 must be > 0, got {self.r1}")
        if self.n < 1:
            raise ConfigError(f"threshold count n must be >= 1, got {self.n}")
        if self.n > 1 and self.r1 > self.rn:
            raise ConfigError(f"need r1 <= rn, got r1={self.r1}, rn={self.rn}")

    def thresholds(self) -> np.ndarray:
        """Backlash values [0, r1, ..., rn], length n+1."""
        if self.n == 1:
            return np.array([0.0, self.r1])
        grid = np.linspace(self.r1, self.rn, self.n)
        return np.concatenate(([0.0], grid))

    def weights(self) -> np.ndarray:
        """Weight of each threshold, all strictly positive."""
        return self.lam * np.exp(-self.sigma * self.thresholds())


@dataclass(frozen=True)
class PlayOperatorSpec:
    """One generalized play operator: backlash r, envelope pair, regulators."""

    r: float
    asc_env: Envelope
    desc_env: Envelope
    kappa_asc: float = 1.0
    kappa_desc: float = 1.0

    def __post_init__(self):
        if self.r < 0:
            raise ConfigError(f"backlash r must be >= 0, got {self.r}")
        if self.kappa_asc <= 0 or self.kappa_desc <= 0:
            raise ConfigError(
                f"regulators must be > 0, got kappa_asc={self.kappa_asc}, "
                f"kappa_desc={self.kappa_desc}"
            )

    def band(self, v):
        """Admissible state interval (lo, hi) at input v; may be empty (lo > hi)."""
        lo = self.asc_env(v) - self.kappa_asc * self.r
        hi = self.desc_env(v) + self.kappa_desc * self.r
        return lo, hi

    def zero_points(self):
        """Inputs where each branch crosses zero output: (asc at +r, desc at -r)."""
        return self.asc_env.inverse(self.r), self.desc_env.inverse(-self.r)


@dataclass
class PlayState:
    """Scalar memory of one play operator."""

    w: float = 0.0
    initialized: bool = False


def init_state(spec: PlayOperatorSpec, v0: float, w_init: float = 0.0) -> PlayState:
    """State at the first input sample.

    ``w_init`` is clamped into the admissible band at v0. If the band is
    empty there (crossed envelopes), the state is left unclamped and a
    warning is recorded.
    """
    lo, hi = spec.band(v0)
    if lo <= hi:
        w = min(max(w_init, lo), hi)
    else:
        warnings.warn(
            f"empty play band at v0={v0} (lo={lo} > hi={hi}); state left at w_init",
            RuntimeWarning,
            stacklevel=2,
        )
        w = w_init
    return PlayState(w=float(w), initialized=True)


def play_step(
    spec: PlayOperatorSpec, state: PlayState, v_prev: float, v_curr: float
) -> PlayState:
    """Advance one operator across a single input transition."""
    if not state.initialized:
        raise StateError("play state must come from init_state before stepping")
    if not (np.isfinite(v_prev) and np.isfinite(v_curr)):
        raise DomainError("input values must be finite")
    if v_curr > v_prev:
        w = max(spec.asc_env(v_curr) - spec.kappa_asc * spec.r, state.w)
    elif v_curr < v_prev:
        w = min(spec.desc_env(v_curr) + spec.kappa_desc * spec.r, state.w)
    else:
        w = state.w
    return PlayState(w=float(w), initialized=True)


@dataclass
class GpiModel:
    """Weighted bank of play operators sharing one envelope pair.

    ``states`` holds the bank memory after the latest evaluation (one
    value per threshold); a model instance must not be stepped from two
    workers at once.
    """

    density: DensitySpec
    asc_env: Envelope
    desc_env: Envelope
    kappa_asc: float = 1.0
    kappa_desc: float = 1.0
    states: np.ndarray | None = field(default=None, repr=False, compare=False)
    last_input: float | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kappa_asc <= 0 or self.kappa_desc <= 0:
            raise ConfigError(
                f"regulators must be > 0, got kappa_asc={self.kappa_asc}, "
                f"kappa_desc={self.kappa_desc}"
            )

    def operator(self, r: float) -> PlayOperatorSpec:
        """The bank member with backlash r."""
        return PlayOperatorSpec(
            r=r,
            asc_env=self.asc_env,
            desc_env=self.desc_env,
            kappa_asc=self.kappa_asc,
            kappa_desc=self.kappa_desc,
        )


class SwitchMode(Enum):
    """Output-selection rule of the two-submodel composition."""

    TWO_FLAG = "two_flag"          # flag on both branches
    DESCEND_FLAG = "descend_flag"  # flag on the descending branch only


@dataclass
class EgpiModel:
    """Two independent banks with flag-point output switching.

    Both submodels evolve in parallel over the same input; the flags only
    select which output is reported, they never transfer state.
    """

    submodels: list[GpiModel]
    mode: SwitchMode = SwitchMode.TWO_FLAG
    flag_asc: float | None = None
    flag_desc: float | None = None

    def __post_init__(self):
        if len(self.submodels) != 2:
            raise ConfigError(f"exactly two submodels required, got {len(self.submodels)}")
        if self.submodels[0] is self.submodels[1]:
            raise ConfigError("submodels must be distinct instances (state is per-bank)")
        if self.mode is SwitchMode.TWO_FLAG:
            if self.flag_asc is None or self.flag_desc is None:
                raise ConfigError("two-flag mode requires both flag_asc and flag_desc")
        elif self.flag_desc is None or self.flag_asc is not None:
            raise ConfigError("descend-flag mode requires flag_desc and no flag_asc")


def _validate_series(t, v):
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    if t.ndim != 1 or v.ndim != 1 or t.size != v.size:
        raise InputError("t and v must be 1-d arrays of equal length")
    if t.size == 0:
        raise InputError("input sequence is empty")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
        raise InputError("input sequence contains non-finite values")
    if np.any(np.diff(t) <= 0):
        bad = int(np.argmax(np.diff(t) <= 0)) + 1
        raise InputError(f"timestamps must be strictly increasing (sample {bad})")
    return t, v


def _init_bank(model: GpiModel, v0: float, w_init: float = 0.0) -> np.ndarray:
    r = model.density.thresholds()
    lo = model.asc_env(v0) - model.kappa_asc * r
    hi = model.desc_env(v0) + model.kappa_desc * r
    w = np.full(r.size, float(w_init))
    ok = lo <= hi
    np.clip(w, lo, hi, where=ok, out=w)
    if not ok.all():
        warnings.warn(
            f"empty play band at v0={v0} for {int((~ok).sum())} operator(s); "
            "left at w_init",
            RuntimeWarning,
            stacklevel=2,
        )
    return w


# monotone runs are processed in chunks so temporaries stay cache-sized
_CHUNK = 2048


def _runs(v: np.ndarray):
    """Maximal runs of constant input direction, as (start, end, direction).

    A run covers the samples ``v[start + 1 : end + 1]``; its direction is
    the common sign of their differences (0 for a hold).
    """
    sgn = np.sign(np.diff(v))
    if sgn.size:
        cuts = np.flatnonzero(sgn[1:] != sgn[:-1]) + 1
        starts = np.concatenate(([0], cuts))
        ends = np.concatenate((cuts, [sgn.size]))
        for start, end in zip(starts, ends):
            yield start, end, sgn[start]


def _run_bank(model: GpiModel, v: np.ndarray, w0: np.ndarray, weights: np.ndarray):
    """Weighted bank output per sample plus the final bank state.

    Updates are applied per maximal run of constant input direction: on a
    monotone run the recursion collapses to a running extreme of the
    branch targets, seeded with the entering state.
    """
    r = model.density.thresholds()
    asc_off = (model.kappa_asc * r)[:, None]
    desc_off = (model.kappa_desc * r)[:, None]
    y = np.empty(v.size)
    w = w0
    y[0] = weights @ w
    for start, end, direction in _runs(v):
        if direction == 0:
            y[start + 1 : end + 1] = weights @ w
            continue
        for cs in range(start + 1, end + 1, _CHUNK):
            ce = min(cs + _CHUNK, end + 1)
            seg = v[cs:ce]
            if direction > 0:
                targets = model.asc_env(seg)[None, :] - asc_off
                np.maximum.accumulate(targets, axis=1, out=targets)
                np.maximum(targets, w[:, None], out=targets)
            else:
                targets = model.desc_env(seg)[None, :] + desc_off
                np.minimum.accumulate(targets, axis=1, out=targets)
                np.minimum(targets, w[:, None], out=targets)
            y[cs:ce] = weights @ targets
            w = targets[:, -1].copy()
    return y, w


# samples per block of the tangent pass; temporaries stay O(operators x block)
_TANGENT_BLOCK = 512


def _bank_tangent(model: GpiModel, v: np.ndarray, slots: dict, z, J, rows):
    """Forward-mode pass of one fresh bank with linear envelopes.

    Writes the bank output and its exact derivatives into the rows of
    ``z`` and ``J`` selected by ``rows``. ``slots`` maps bank parameter
    names (``asc_slope``, ``asc_intercept``, ``desc_slope``,
    ``desc_intercept``, ``lam``, ``sigma``, ``r1``, ``rn``, ``kappa_desc``)
    to columns of ``J``; unnamed parameters are held fixed.

    On a monotone run the branch targets are monotone too (affine
    envelope, increasing input), so each state is ``T`` where it passes the
    entering state and the entering state otherwise; its tangent follows
    the same selection.
    """
    P = J.shape[1]

    def unit(name):
        u = np.zeros(P)
        if name in slots:
            u[slots[name]] = 1.0
        return u

    d = model.density
    r = d.thresholds()
    p = d.weights()
    frac = np.arange(d.n) / (d.n - 1) if d.n > 1 else np.zeros(1)
    dr = np.zeros((r.size, P))
    dr[1:] = np.outer(1.0 - frac, unit("r1")) + np.outer(frac, unit("rn"))
    dp = p[:, None] * (unit("lam") / d.lam - np.outer(r, unit("sigma")) - d.sigma * dr)
    asc_off = model.kappa_asc * r
    desc_off = model.kappa_desc * r
    # tangents of the branch targets, less the envelope slope term v*a
    dasc = unit("asc_intercept") - model.kappa_asc * dr
    ddesc = unit("desc_intercept") + model.kappa_desc * dr + np.outer(r, unit("kappa_desc"))
    a_asc, a_desc = unit("asc_slope"), unit("desc_slope")

    def put(i, yb, Jb):
        sel = rows[i : i + yb.size]
        np.copyto(z[i : i + yb.size], yb, where=sel)
        np.copyto(J[i : i + yb.size], Jb, where=sel[:, None])

    # clamped initial state: the tangent of whichever bound is active
    v0 = float(v[0])
    w = _init_bank(model, v0)
    lo = model.asc_env(v0) - asc_off
    hi = model.desc_env(v0) + desc_off
    ok = lo <= hi
    dw = np.zeros((r.size, P))
    low, high = ok & (lo > 0.0), ok & (hi < 0.0)
    dw[low] = (v0 * a_asc + dasc)[low]
    dw[high] = (v0 * a_desc + ddesc)[high]
    put(0, np.array([p @ w]), (w @ dp + p @ dw)[None, :])

    for start, end, direction in _runs(v):
        if direction == 0:
            k = end - start
            put(start + 1, np.full(k, p @ w), np.broadcast_to(w @ dp + p @ dw, (k, P)))
            continue
        if direction > 0:
            env, off, dT, a = model.asc_env, -asc_off, dasc, a_asc
            passes, extreme = np.greater, np.maximum
        else:
            env, off, dT, a = model.desc_env, desc_off, ddesc, a_desc
            passes, extreme = np.less, np.minimum
        for cs in range(start + 1, end + 1, _TANGENT_BLOCK):
            seg = v[cs : min(cs + _TANGENT_BLOCK, end + 1)]
            T = env(seg)[None, :] + off[:, None]
            moved = passes(T, w[:, None]).astype(float)
            S = extreme(T, w[:, None])
            pm = p @ moved
            Jb = moved.T @ (p[:, None] * (dT - dw)) + S.T @ dp + p @ dw
            Jb += np.outer(seg * pm, a)
            put(cs, p @ S, Jb)
            dw = np.where(moved[:, -1:] > 0, seg[-1] * a + dT, dw)
            w = S[:, -1].copy()


def gpi_eval(model: GpiModel, t, v, reset: bool = True) -> np.ndarray:
    """Evaluate the bank over a sampled input, returning the output series.

    With ``reset`` (the default) all operator states are initialized at
    the first sample. ``reset=False`` continues from the model's stored
    states for streaming use; the first new sample is then compared
    against the last input seen. Model states reflect the final sample
    either way.
    """
    t, v = _validate_series(t, v)
    if reset or model.states is None:
        w0 = _init_bank(model, v[0])
        vv = v
        drop = 0
    else:
        w0 = model.states
        vv = np.concatenate(([model.last_input], v))
        drop = 1
    y, w_final = _run_bank(model, vv, w0, model.density.weights())
    model.states = np.array(w_final, dtype=float)
    model.last_input = float(v[-1])
    return y[drop:]


def _reports_second(model: EgpiModel, v: np.ndarray, prev: float | None) -> np.ndarray:
    """Per-sample flag switching: True where submodel 2 is reported.

    ``prev`` is the input before ``v[0]``, or None on a fresh evaluation.
    """
    s = np.zeros(v.size)
    s[1:] = np.sign(np.diff(v))
    if prev is not None:
        s[0] = np.sign(v[0] - prev)
    asc = s > 0
    if model.mode is SwitchMode.TWO_FLAG:
        return np.where(asc, v >= model.flag_asc, v <= model.flag_desc)
    return ~asc & (v <= model.flag_desc)


def egpi_eval(model: EgpiModel, t, v, reset: bool = True):
    """Evaluate both submodels and select the reported output per sample.

    Returns ``(z, active)`` where ``active`` is 1 or 2 for the submodel
    whose output is reported. Ascending samples with input at or past the
    ascending flag select submodel 2, as do non-ascending samples at or
    below the descending flag; in descend-flag mode ascending samples
    always report submodel 1. Holds follow the non-ascending rule.
    """
    t, v = _validate_series(t, v)
    sub1, sub2 = model.submodels
    prev = sub1.last_input if (not reset and sub1.states is not None) else None
    z1 = gpi_eval(sub1, t, v, reset=reset)
    z2 = gpi_eval(sub2, t, v, reset=reset)

    use2 = _reports_second(model, v, prev)
    z = np.where(use2, z2, z1)
    active = np.where(use2, 2, 1)
    return z, active


def predict(model, t, v, reset: bool = True) -> np.ndarray:
    """Forward-evaluate either model kind, returning the output series."""
    if isinstance(model, EgpiModel):
        return egpi_eval(model, t, v, reset=reset)[0]
    return gpi_eval(model, t, v, reset=reset)


def predict_jacobian(model, v, slots):
    """Output of a fresh evaluation and its exact parameter Jacobian.

    One forward-mode tangent pass over either model kind with linear
    envelopes. ``slots`` holds one dict per bank mapping that bank's
    parameter names to Jacobian columns (see ``_bank_tangent``); banks may
    share columns. Returns ``(z, J)`` with ``z`` equal to ``predict(model,
    t, v)``. Each sample's row is the derivative of the bank it reports.
    """
    v = np.asarray(v, dtype=float)
    banks = model.submodels if isinstance(model, EgpiModel) else [model]
    if not all(isinstance(env, LinearEnvelope) for b in banks for env in (b.asc_env, b.desc_env)):
        raise ConfigError("the exact Jacobian needs linear envelopes")
    z = np.empty(v.size)
    J = np.empty((v.size, 1 + max(max(s.values()) for s in slots)))
    if isinstance(model, EgpiModel):
        use2 = _reports_second(model, v, None)
        _bank_tangent(banks[0], v, slots[0], z, J, ~use2)
        _bank_tangent(banks[1], v, slots[1], z, J, use2)
    else:
        _bank_tangent(model, v, slots[0], z, J, np.ones(v.size, dtype=bool))
    return z, J


def reference_model() -> EgpiModel:
    """Canned two-flag demonstration configuration.

    Tanh envelope pairs with regulators 5 and 10 on the second bank and
    flags at 1.5 (ascending) and -0.3 (descending); paired with the
    default decaying sinusoid it exhibits the staged dead zones the
    switched composition exists to capture.
    """
    density = DensitySpec(lam=0.07, sigma=0.1, r1=0.25, rn=7.25, n=30)
    sub1 = GpiModel(
        density=density,
        asc_env=TanhEnvelope(c=8.0, d=0.2, e=-0.5, f=0.0),
        desc_env=TanhEnvelope(c=9.0, d=0.2, e=-0.1, f=0.0),
    )
    sub2 = GpiModel(
        density=density,
        asc_env=TanhEnvelope(c=8.0, d=0.2, e=-1.0, f=0.0),
        desc_env=TanhEnvelope(c=10.0, d=0.2, e=0.5, f=0.1),
        kappa_asc=5.0,
        kappa_desc=10.0,
    )
    return EgpiModel(
        submodels=[sub1, sub2],
        mode=SwitchMode.TWO_FLAG,
        flag_asc=1.5,
        flag_desc=-0.3,
    )
