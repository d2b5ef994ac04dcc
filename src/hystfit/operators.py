"""Generalized play operators, weighted operator banks, and the switched
two-submodel composition.

A play operator tracks its input between two monotone envelopes: moving
up it is pushed along ``asc_env(v) - kappa_asc*r``, moving down along
``desc_env(v) + kappa_desc*r``, and it holds while the input rests.
A bank of such operators with a weight density forms the single-stage
model; two banks plus flag-point output switching form the two-stage
model that captures multiple dead zones per monotonic sweep.

Direction is the sign of each sample-to-sample input difference. The
first sample steps from the last input seen, or is at rest in a fresh
evaluation. Exact input repeats take the hold branch; there is no
epsilon band around zero rate.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .envelopes import Envelope, TanhEnvelope
from .errors import ConfigError, InputError, check_number


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
        for name in ("lam", "sigma", "r1", "rn"):
            check_number(getattr(self, name), f"density field {name!r}")
        if self.lam <= 0:
            raise ConfigError(f"density scale lam must be > 0, got {self.lam}")
        if self.sigma < 0:
            raise ConfigError(f"density decay sigma must be >= 0, got {self.sigma}")
        if self.r1 <= 0:
            raise ConfigError(f"first threshold r1 must be > 0, got {self.r1}")
        if check_number(self.n, "threshold count n", integer=True) < 1:
            raise ConfigError(f"threshold count n must be >= 1, got {self.n}")
        if self.n > 1 and self.r1 > self.rn:
            raise ConfigError(f"need r1 <= rn, got r1={self.r1}, rn={self.rn}")

    @cached_property
    def _grid(self):
        # computed once per instance; read-only, as every caller shares them
        if self.n == 1:
            r = np.array([0.0, self.r1])
        else:
            r = np.concatenate(([0.0], np.linspace(self.r1, self.rn, self.n)))
        p = self.lam * np.exp(-self.sigma * r)
        r.flags.writeable = p.flags.writeable = False
        return r, p

    def thresholds(self) -> np.ndarray:
        """Backlash values [0, r1, ..., rn], length n+1 (read-only)."""
        return self._grid[0]

    def weights(self) -> np.ndarray:
        """Weight of each threshold, all strictly positive (read-only)."""
        return self._grid[1]


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
    states: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)
    last_input: float | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        for name in ("kappa_asc", "kappa_desc"):
            kappa = check_number(getattr(self, name), f"regulator {name!r}")
            if kappa <= 0:
                raise ConfigError(f"regulator {name!r} must be > 0, got {kappa}")


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
                raise ConfigError("two-flag mode requires both 'flag_asc' and 'flag_desc'")
        elif self.flag_desc is None or self.flag_asc is not None:
            raise ConfigError("descend-flag mode requires 'flag_desc' and no 'flag_asc'")
        for name in ("flag_asc", "flag_desc"):
            if (flag := getattr(self, name)) is not None:
                check_number(flag, f"flag {name!r}")


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
            stacklevel=_caller_level(),
        )
    return w


def _caller_level() -> int:
    """The ``stacklevel`` at which a warning issued by this function's caller
    names the innermost frame outside the package (``skip_file_prefixes``
    does this from Python 3.12 on)."""
    package = os.path.dirname(__file__) + os.sep
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    return level


# samples per block; temporaries stay O(operators x block)
_BLOCK = 512
# runs at least this long get blocks of their own
_LONG = 64


def _directions(v: np.ndarray, prev: float | None = None) -> np.ndarray:
    """Sign of each sample's step from its predecessor; ``v[0]`` steps from
    ``prev``, and without one (a fresh evaluation) is at rest."""
    d = np.zeros(v.size)
    np.sign(np.subtract(v[1:], v[:-1], out=d[1:]), out=d[1:])
    if prev is not None:
        d[0] = np.sign(v[0] - prev)
    return d


def _blocks(d: np.ndarray) -> list:
    """The blocks ``(i, j, starts)`` that tile the samples of directions ``d``.

    A run of constant direction with ``_LONG`` or more samples gets blocks
    of its own; the shorter runs between two such runs share theirs. Each
    such stretch is cut into blocks of ``_BLOCK`` samples from its start.
    ``starts`` holds the offsets from ``i`` of the run edges inside the
    block ``v[i:j]``, none in a block inside one run.
    """
    edges = np.flatnonzero(d[1:] != d[:-1]) + 1
    bounds = np.concatenate(([0], edges, [d.size]))
    long = bounds[1:] - bounds[:-1] >= _LONG
    cut = np.ones(bounds.size, dtype=bool)  # the ends, and each long run's edges
    cut[1:-1] = long[:-1] | long[1:]
    stretches = bounds[cut].tolist()
    first = [i for a, b in zip(stretches, stretches[1:]) for i in range(a, b, _BLOCK)]
    stop = [*first[1:], d.size]
    lo = np.searchsorted(edges, first, "right").tolist()
    hi = np.searchsorted(edges, stop).tolist()
    return [(i, j, edges[a:b] - i) for i, j, a, b in zip(first, stop, lo, hi)]


def _clip(x, lo, hi):
    y = np.maximum(x, lo)
    return np.minimum(y, hi, out=y)


def _states(model: GpiModel, v, d, walk, w):
    """Bank states along ``v`` (directions ``d = _directions(v, prev)``),
    starting from the state ``w`` before the step to ``v[0]``.

    ``walk`` is the bank's walk from ``_plan``. Yields ``(i, j, S, E)`` per
    entry ``v[i:j]``: ``S`` holds the states (operators x samples) and
    ``E`` the state each one entered its run with, within the entry. An
    entry inside one run yields ``E`` as one column. A one-column ``S``
    stands for every sample of the entry: a run of holds, or a crossed
    stretch, whose column is the state at its last sample.

    Each step clamps the state: ``max(w, asc_env(v) - kappa_asc*r)``
    rising, ``min(w, desc_env(v) + kappa_desc*r)`` falling, the identity
    on a hold. Both envelope families increase, so along a run the targets
    are monotone and a sample's state is the run's entering state clamped
    by the sample's own target; a crossed stretch clamps by its last target
    alone. A block inside one run evaluates only its own branch. In any
    other block a prefix scan over its runs gives their entering states, as
    two clamps compose to one:
    ``clip(clip(w, l1, h1), l2, h2) = clip(w, clip(l1, l2, h2), clip(h1, l2, h2))``.
    Max and min only select values, so the states are exactly those of the
    sample-by-sample recursion.
    """
    r = model.density.thresholds()
    asc_off = (model.kappa_asc * r)[:, None]
    desc_off = (model.kappa_desc * r)[:, None]
    for i, j, starts in walk:
        E = w[:, None]
        if starts is None or (not starts.size and d[i] != 0):
            seg = v[j - 1 : j] if starts is None else v[i:j]
            target = model.asc_env(seg) if d[i] > 0 else model.desc_env(seg)
            S = np.empty((r.size, target.size))
            S[:] = target
            if d[i] > 0:
                S -= asc_off
                np.maximum(S, E, out=S)
            else:
                S += desc_off
                np.minimum(S, E, out=S)
        elif not starts.size:
            S = E
        else:
            seg, ds = v[i:j], d[i:j]
            lo = np.where(ds > 0, model.asc_env(seg), -np.inf) - asc_off
            hi = np.where(ds < 0, model.desc_env(seg), np.inf) + desc_off
            # each run's clamp is that of its last sample; a Hillis-Steele
            # scan composes them in log2(runs) steps
            ends = np.append(starts, ds.size) - 1
            L, H = lo[:, ends], hi[:, ends]
            step = 1
            while step < ends.size:
                l2, h2 = L[:, step:], H[:, step:]
                L[:, step:], H[:, step:] = (_clip(L[:, :-step], l2, h2),
                                            _clip(H[:, :-step], l2, h2))
                step *= 2
            entering = np.concatenate((E, _clip(E, L[:, :-1], H[:, :-1])), axis=1)
            run = np.zeros(ds.size, dtype=np.intp)
            run[starts] = 1
            E = np.take(entering, np.cumsum(run), axis=1)
            S = _clip(E, lo, hi)
        yield i, j, S, E
        # a copy, so that E (a view of w) does not keep this block's S alive
        w = S[:, -1].copy()


def _contract(p: np.ndarray, S: np.ndarray) -> np.ndarray:
    """``p @ S``, summed over the operators in their order for every column.

    einsum adds row after row of a C-contiguous ``S`` with two or more
    columns, so the bits of a column do not depend on the others. A single
    column would be summed as a dot product, so it is doubled first.
    """
    k = S.shape[1]
    S = np.ascontiguousarray(np.repeat(S, 2, axis=1) if k == 1 else S)
    return np.einsum("m,mn->n", p, S)[:k]


def _bank_pass(model: GpiModel, v, d, walk, w) -> np.ndarray:
    """One bank's output along ``v`` from the state ``w`` (see ``_states``).

    A crossed stretch of ``walk`` gets its last sample's output, which no
    caller reads. The bank's ``states`` and ``last_input`` reflect the
    final sample.
    """
    p = model.density.weights()
    y = np.empty(v.size)
    for i, j, S, _ in _states(model, v, d, walk, w):
        y[i:j] = _contract(p, S)
    model.states = S[:, -1].copy()
    model.last_input = float(v[-1])
    return y


def _banks(model) -> list[GpiModel]:
    """The banks of either model kind; a ``GpiModel`` is its own one bank."""
    return model.submodels if isinstance(model, EgpiModel) else [model]


def _reports_second(model, v: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Per-sample flag switching: True where submodel 2 is reported.

    ``d`` holds the directions of ``v`` (``_directions``). A ``GpiModel``
    never switches.
    """
    if isinstance(model, GpiModel):
        return np.zeros(v.size, dtype=bool)
    asc = d > 0
    if model.mode is SwitchMode.TWO_FLAG:
        return np.where(asc, v >= model.flag_asc, v <= model.flag_desc)
    return ~asc & (v <= model.flag_desc)


def _plan(model, v, prev=None, every=False):
    """Directions, flag mask and each bank's walk over ``v``:
    ``(d, use2, walks)``, one walk per bank of ``_banks(model)``.

    A walk is the block list of ``_blocks(d)``, cut once per evaluation,
    in which each stretch of one run where the bank reports no sample is
    one crossed entry ``(i, j, None)``. A bank of a switched model reports
    the samples ``use2`` gives it. Under ``every``, and for a lone bank,
    which reports every sample, each walk is the plain block list. Every
    pass of the evaluation, forward or tangent, walks these lists.
    """
    d = _directions(v, prev)
    use2 = _reports_second(model, v, d)
    blocks = _blocks(d)
    if every or isinstance(model, GpiModel):
        return d, use2, [blocks] * len(_banks(model))
    walks = []
    for reported in (~use2, use2):
        walk = []
        for i, j, starts in blocks:
            if starts.size or d[i] == 0 or reported[i:j].any():
                walk.append((i, j, starts))
            elif walk and walk[-1][2] is None and d[walk[-1][0]] == d[i]:
                walk[-1] = (walk[-1][0], j, None)  # the same run, crossed on
            else:
                walk.append((i, j, None))
        walks.append(walk)
    return d, use2, walks


def _evaluate(model, t, v, reset: bool, every: bool):
    """One pass of each bank over one validated input: ``(use2, outputs)``.

    The input is validated, and its walks planned (``_plan``), once for all
    banks.
    """
    t, v = _validate_series(t, v)
    banks = _banks(model)
    fresh = reset or any(bank.states is None for bank in banks)
    prev = None if fresh else banks[0].last_input
    d, use2, walks = _plan(model, v, prev, every)
    outs = []
    for bank, walk in zip(banks, walks):
        w = _init_bank(bank, v[0]) if fresh else bank.states
        outs.append(_bank_pass(bank, v, d, walk, w))
    return use2, outs


def gpi_eval(model: GpiModel, t, v, reset: bool = True) -> np.ndarray:
    """Evaluate the bank over a sampled input, returning the output series.

    With ``reset`` (the default) all operator states are initialized at
    the first sample. ``reset=False`` continues from the model's stored
    states for streaming use; the first new sample is then compared
    against the last input seen. Model states reflect the final sample
    either way. Any other model kind raises ConfigError before a bank runs.
    """
    if not isinstance(model, GpiModel):
        raise ConfigError(f"gpi_eval takes a GpiModel, got {type(model).__name__}")
    _, (y,) = _evaluate(model, t, v, reset, every=True)
    return y


def egpi_outputs(model, t, v):
    """One fresh pass of each bank over every sample: ``(z, active, z1, z2)``.

    ``z1`` and ``z2`` are the submodel outputs; ``z`` and ``active`` are
    what ``egpi_eval`` returns. A ``GpiModel`` gives ``z1 = z2 = z`` and
    ``active = 1``.
    """
    use2, outs = _evaluate(model, t, v, reset=True, every=True)
    z1, z2 = outs[0], outs[-1]
    return np.where(use2, z2, z1), np.where(use2, 2, 1), z1, z2


def egpi_eval(model, t, v, reset: bool = True):
    """Evaluate every bank and select the reported output per sample.

    Returns ``(z, active)`` where ``active`` is 1 or 2 for the submodel
    whose output is reported. Ascending samples with input at or past the
    ascending flag select submodel 2, as do non-ascending samples at or
    below the descending flag; in descend-flag mode ascending samples
    always report submodel 1. Holds follow the non-ascending rule. A
    ``GpiModel`` is the one-bank case: it always reports its bank.

    Each bank walks the blocks it reports and crosses the rest of their
    runs (``_plan``), as the tangent pass does. ``z``, and the banks'
    ``states`` and ``last_input``, keep the bits of a pass over every
    sample (``egpi_outputs``).
    """
    use2, outs = _evaluate(model, t, v, reset, every=False)
    return np.where(use2, outs[-1], outs[0]), np.where(use2, 2, 1)


def predict(model, t, v) -> np.ndarray:
    """Output series of a fresh ``egpi_eval`` of either model kind."""
    return egpi_eval(model, t, v)[0]


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
