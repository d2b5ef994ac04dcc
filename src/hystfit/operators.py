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
from .errors import ConfigError, InputError


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


def _validate_series(t, *series):
    """Float arrays of timestamps ``t`` and of the series sampled at them.

    Every series must be 1-d, non-empty, finite and as long as ``t``, and
    ``t`` strictly increasing. An error about one sample carries its index
    as ``InputError.sample``.
    """
    arrays = [np.asarray(x, dtype=float) for x in (t, *series)]
    if any(x.ndim != 1 or x.size != arrays[0].size for x in arrays):
        raise InputError("t and the sampled series must be 1-d arrays of equal length")
    if arrays[0].size == 0:
        raise InputError("input sequence is empty")
    finite = np.logical_and.reduce([np.isfinite(x) for x in arrays])
    if not finite.all():
        k = int(np.argmin(finite))
        raise InputError(f"non-finite value at sample {k}", sample=k)
    rising = np.diff(arrays[0]) > 0
    if not rising.all():
        k = int(np.argmin(rising)) + 1
        raise InputError(
            f"timestamp at sample {k} does not increase over sample {k - 1}", sample=k
        )
    return arrays


def _init_bank(model: GpiModel, v0: float) -> np.ndarray:
    """States at the first sample: 0 clamped into each operator's band.

    Where the band is empty (crossed envelopes) the state stays at 0 and
    a warning is recorded.
    """
    r = model.density.thresholds()
    lo = model.asc_env(v0) - model.kappa_asc * r
    hi = model.desc_env(v0) + model.kappa_desc * r
    w = np.zeros(r.size)
    ok = lo <= hi
    np.clip(w, lo, hi, where=ok, out=w)
    if not ok.all():
        warnings.warn(
            f"empty play band at v0={v0} for {int((~ok).sum())} operator(s); "
            "left at 0",
            RuntimeWarning,
            stacklevel=2,
        )
    return w


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


# samples per block of a monotone run; temporaries stay O(operators x block)
_BLOCK = 512


def _walk(model: GpiModel, v: np.ndarray, w: np.ndarray):
    """Bank states along ``v``, starting from the state ``w`` at ``v[0]``.

    Yields ``(i, seg, direction, S)`` per block, where ``seg = v[i : i + k]``
    lies in one run of constant direction and ``S`` holds the states
    (operators x samples). The first sample and every hold yield the one
    column ``w[:, None]``, which stands for all ``k`` samples. On a rising
    run each state is ``max(w_entry, asc_env(v) - kappa_asc*r)``, on a
    falling run ``min(w_entry, desc_env(v) + kappa_desc*r)``: both envelope
    families increase, so the targets are monotone along the run and the
    entering state is the only extreme to take.
    """
    r = model.density.thresholds()
    asc_off = (model.kappa_asc * r)[:, None]
    desc_off = (model.kappa_desc * r)[:, None]
    yield 0, v[:1], 0, w[:, None]
    for start, end, direction in _runs(v):
        if direction == 0:
            yield start + 1, v[start + 1 : end + 1], 0, w[:, None]
            continue
        for i in range(start + 1, end + 1, _BLOCK):
            seg = v[i : min(i + _BLOCK, end + 1)]
            if direction > 0:
                S = np.maximum(model.asc_env(seg) - asc_off, w[:, None])
            else:
                S = np.minimum(model.desc_env(seg) + desc_off, w[:, None])
            yield i, seg, direction, S
            # a contiguous copy: a strided view changes the next hold's sum
            w = S[:, -1].copy()


def _run_bank(model: GpiModel, v: np.ndarray, w0: np.ndarray):
    """Weighted bank output per sample plus the final bank state."""
    weights = model.density.weights()
    y = np.empty(v.size)
    for i, seg, _, S in _walk(model, v, w0):
        y[i : i + seg.size] = weights @ S
    return y, S[:, -1]


def _bank_tangent(model: GpiModel, v: np.ndarray, slots: dict, z, J, rows):
    """Forward-mode pass of one fresh bank with linear envelopes.

    Writes the bank output and its exact derivatives into the rows of
    ``z`` and ``J`` selected by ``rows``. ``slots`` maps bank parameter
    names (``asc_slope``, ``asc_intercept``, ``desc_slope``,
    ``desc_intercept``, ``lam``, ``sigma``, ``r1``, ``rn``, ``kappa_desc``)
    to columns of ``J``; unnamed parameters are held fixed.

    Along ``_walk`` a state that moved off its entering value sits on the
    branch target ``T`` and takes its tangent; the others keep the
    entering tangent.
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
    # tangents of the branch targets, less the envelope slope term v*a
    dasc = unit("asc_intercept") - model.kappa_asc * dr
    ddesc = unit("desc_intercept") + model.kappa_desc * dr + np.outer(r, unit("kappa_desc"))
    a_asc, a_desc = unit("asc_slope"), unit("desc_slope")

    def put(i, k, yb, Jb):
        # a hold's single row is broadcast to its k samples
        sel = rows[i : i + k]
        np.copyto(z[i : i + k], yb, where=sel)
        np.copyto(J[i : i + k], Jb, where=sel[:, None])

    # clamped initial state: the tangent of whichever bound is active
    v0 = float(v[0])
    w = _init_bank(model, v0)
    lo = model.asc_env(v0) - model.kappa_asc * r
    hi = model.desc_env(v0) + model.kappa_desc * r
    ok = lo <= hi
    dw = np.zeros((r.size, P))
    low, high = ok & (lo > 0.0), ok & (hi < 0.0)
    dw[low] = (v0 * a_asc + dasc)[low]
    dw[high] = (v0 * a_desc + ddesc)[high]

    for i, seg, direction, S in _walk(model, v, w):
        dT, a = (dasc, a_asc) if direction > 0 else (ddesc, a_desc)
        u = seg[: S.shape[1]]  # one sample per column of S
        moved = (S != w[:, None]).astype(float)
        pm = p @ moved
        Jb = moved.T @ (p[:, None] * (dT - dw)) + S.T @ dp + p @ dw
        Jb += np.outer(u * pm, a)
        put(i, seg.size, p @ S, Jb)
        dw = np.where(moved[:, -1:] > 0, seg[-1] * a + dT, dw)
        w = S[:, -1]


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
    y, w_final = _run_bank(model, vv, w0)
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


def egpi_outputs(model: EgpiModel, t, v, reset: bool = True):
    """One pass of each submodel: ``(z, active, z1, z2)``.

    ``z1`` and ``z2`` are the submodel outputs; ``z`` and ``active`` are
    what ``egpi_eval`` returns.
    """
    sub1, sub2 = model.submodels
    prev = sub1.last_input if (not reset and sub1.states is not None) else None
    z1 = gpi_eval(sub1, t, v, reset=reset)
    z2 = gpi_eval(sub2, t, v, reset=reset)
    use2 = _reports_second(model, np.asarray(v, dtype=float), prev)
    return np.where(use2, z2, z1), np.where(use2, 2, 1), z1, z2


def egpi_eval(model: EgpiModel, t, v, reset: bool = True):
    """Evaluate both submodels and select the reported output per sample.

    Returns ``(z, active)`` where ``active`` is 1 or 2 for the submodel
    whose output is reported. Ascending samples with input at or past the
    ascending flag select submodel 2, as do non-ascending samples at or
    below the descending flag; in descend-flag mode ascending samples
    always report submodel 1. Holds follow the non-ascending rule.
    """
    return egpi_outputs(model, t, v, reset)[:2]


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
