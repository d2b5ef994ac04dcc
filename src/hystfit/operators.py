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


@dataclass(frozen=True)
class Memory:
    """What an evaluation leaves for ``reset=False``: the last input, the
    samples of the run in progress there (capped at ``_LONG``, signed by its
    direction, 0 at rest), and per bank its last and run-entering states."""

    last_input: float
    run_length: int
    states: tuple[np.ndarray, ...]
    run_states: tuple[np.ndarray, ...]


@dataclass
class GpiModel:
    """Weighted bank of play operators sharing one envelope pair.

    ``memory`` is what the last evaluation of this model left (``Memory``),
    None before the first; one that raises leaves it as it was. A model
    instance must not be stepped from two workers at once.
    """

    density: DensitySpec
    asc_env: Envelope
    desc_env: Envelope
    kappa_asc: float = 1.0
    kappa_desc: float = 1.0
    memory: Memory | None = field(init=False, default=None, repr=False, compare=False)

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
    select which output is reported, they never transfer state. ``memory``
    (``Memory``) is the model's, apart from each submodel's own, so one
    bank may fill both slots.
    """

    submodels: list[GpiModel]
    mode: SwitchMode = SwitchMode.TWO_FLAG
    flag_asc: float | None = None
    flag_desc: float | None = None
    memory: Memory | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.submodels) != 2:
            raise ConfigError(f"exactly two submodels required, got {len(self.submodels)}")
        for k, bank in enumerate(self.submodels, 1):
            if not isinstance(bank, GpiModel):
                raise ConfigError(f"submodel {k} must be a GpiModel, got {type(bank).__name__}")
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
    finite = np.isfinite(arrays[0])
    for x in arrays[1:]:
        finite &= np.isfinite(x)
    if not finite.all():
        k = int(np.argmin(finite))
        raise InputError(f"non-finite value at sample {k}", sample=k)
    rising = arrays[0][1:] > arrays[0][:-1]
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
    ok = lo <= hi
    w = np.minimum(np.maximum(0.0, lo), hi)
    if not ok.all():
        w[~ok] = 0.0
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


# samples per block of short runs; temporaries stay O(operators x block)
_BLOCK = 512
# a run at least this long is one walk entry, and its samples from this
# position on take its closed form (``_sweep``)
_LONG = 64


def _directions(v: np.ndarray, prev: float | None = None) -> np.ndarray:
    """Sign of each sample's step from its predecessor; ``v[0]`` steps from
    ``prev``, and without one (a fresh evaluation) is at rest."""
    d = np.zeros(v.size)
    np.sign(np.subtract(v[1:], v[:-1], out=d[1:]), out=d[1:])
    if prev is not None:
        d[0] = np.sign(v[0] - prev)
    return d


def _blocks(d: np.ndarray, run: int = 0):
    """The walk entries that tile the samples of directions ``d``, the
    lead and the last run's length: ``(entries, lead, run)``.

    Each entry ``(i, j, starts)`` begins a run; ``starts`` holds the
    offsets from ``i`` of the run edges inside ``v[i:j]``. Entries begin
    at each run of ``_LONG`` or more samples, which is one entry, at the
    run after it, and at the first run that begins in each ``_BLOCK``
    samples. ``d[0]`` goes on with the signed length ``run`` of the run
    before it (``Memory.run_length``) if it keeps its direction; ``lead``
    is then ``abs(run)``, else 0, and the first run counts it. The length
    returned is signed, capped at ``_LONG`` and 0 at rest, as ``run``.
    """
    lead = abs(run) if d[0] * run > 0 else 0
    bounds = np.concatenate(([0], np.flatnonzero(d[1:] != d[:-1]) + 1, [d.size]))
    size = bounds[1:] - bounds[:-1]
    size[0] += lead
    long = size >= _LONG
    window = bounds[:-1] // _BLOCK
    cut = np.ones(bounds.size, dtype=bool)  # the runs that begin an entry, and the end
    cut[1:-1] = long[1:] | long[:-1] | (window[1:] != window[:-1])
    at, b = np.flatnonzero(cut).tolist(), bounds.tolist()
    entries = [(b[k], b[m], bounds[k + 1 : m] - b[k]) for k, m in zip(at, at[1:])]
    return entries, lead, int(d[-1]) * min(int(size[-1]), _LONG)


def _clip(x, lo, hi):
    y = np.maximum(x, lo)
    return np.minimum(y, hi, out=y)


def _run_states(model: GpiModel, E, T, rising: bool) -> np.ndarray:
    """States (operators x samples) along one run entered with the states
    ``E`` (a column), at the envelope values ``T`` of its samples:
    ``max(E, T - kappa_asc*r)`` rising, ``min(E, T + kappa_desc*r)`` falling.
    """
    r = model.density.thresholds()
    if rising:
        S = T - (model.kappa_asc * r)[:, None]
        return np.maximum(S, E, out=S)
    S = T + (model.kappa_desc * r)[:, None]
    return np.minimum(S, E, out=S)


def _sweep(model: GpiModel, E, T, rising: bool):
    """Which operators have moved along one run: ``(c, order, m)``.

    The run is entered with the states ``E`` (one per operator) and
    reaches the envelope values ``T``. Operator k has left ``E[k]`` at a
    sample exactly when the target has passed ``c[k]``: ``T > c[k] =
    E[k] + kappa_asc*r[k]`` rising, ``T < c[k] = E[k] - kappa_desc*r[k]``
    falling; from then on it sits on the target, ``T - c[k] + E[k]``.
    ``order`` sorts the operators stably by ``c``, descending on a fall,
    so the operators that have moved at sample s are ``order[:m[s]]``. A
    target equal to ``c[k]`` leaves operator k where it is.
    """
    r = model.density.thresholds()
    if rising:
        c = E + model.kappa_asc * r
        order = c.argsort(kind="stable")
        return c, order, c[order].searchsorted(T)
    c = E - model.kappa_desc * r
    order = (-c).argsort(kind="stable")
    return c, order, (-c[order]).searchsorted(-T)


def _states(model: GpiModel, v, d, walk, w):
    """Bank states along ``v`` (directions ``d = _directions(v, prev)``),
    starting from the state ``w`` before the step to ``v[0]``.

    ``walk`` is the bank's walk from ``_plan``. Yields ``(i, j, S, E, T)``
    per entry ``v[i:j]``, with ``E`` the state each operator entered its
    run with, within the entry:
    - a block of several runs: ``S`` and ``E`` hold a column per sample,
      ``S`` the states, and ``T`` is None;
    - a hold: ``S`` is ``E``, one column, and ``T`` is None;
    - any other entry lies in one moving run: ``S`` and ``E`` are one
      column each, ``S`` the state at its last sample, and ``T`` holds the
      envelope value of each sample, from which ``_run_states`` and
      ``_sweep`` give the states. On a crossed stretch ``T`` is empty: its
      last target alone sets its end, and no sample of it is read.

    Each step clamps the state: ``max(w, asc_env(v) - kappa_asc*r)``
    rising, ``min(w, desc_env(v) + kappa_desc*r)`` falling, the identity
    on a hold. Both envelope families increase, so along a run the targets
    are monotone and a sample's state is the run's entering state clamped
    by the sample's own target. An entry inside one run evaluates only its
    own branch. In a block of several runs a prefix scan over its runs
    gives their entering states, as two clamps compose to one:
    ``clip(clip(w, l1, h1), l2, h2) = clip(w, clip(l1, l2, h2), clip(h1, l2, h2))``.
    Max and min only select values, so the states are exactly those of the
    sample-by-sample recursion.
    """
    r = model.density.thresholds()
    asc_off = (model.kappa_asc * r)[:, None]
    desc_off = (model.kappa_desc * r)[:, None]
    for i, j, starts in walk:
        E, T = w[:, None], None
        if starts is None or (not starts.size and d[i] != 0):
            seg = v[j - 1 : j] if starts is None else v[i:j]
            target = model.asc_env(seg) if d[i] > 0 else model.desc_env(seg)
            S = _run_states(model, E, target[-1:], d[i] > 0)
            T = target[:0] if starts is None else target
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
        yield i, j, S, E, T
        # a copy, so that E (a view of w) does not keep this block's S alive
        w = S[:, -1].copy()


def _contract(p: np.ndarray, S: np.ndarray) -> np.ndarray:
    """``p @ S``, summed over the operators in their order for every column.

    einsum adds row after row of a C-contiguous ``S`` with two or more
    columns, so the bits of a column do not depend on the others. A single
    column would be summed as a dot product, so it is doubled first.
    """
    k = S.shape[1]
    S = S.repeat(2, axis=1) if k == 1 else np.ascontiguousarray(S)
    return np.einsum("m,mn->n", p, S)[:k]


def _bank_pass(model: GpiModel, v, d, walk, w, lead: int = 0):
    """One bank's output along ``v`` from the state ``w`` (see ``_states``)
    and its memory at the last sample: ``(y, states, run_states)``.

    A sample sums its operator states (``_contract``) when it lies among
    the first ``_LONG`` samples of its run. Later samples of a run take
    its closed form from one ``_sweep``: ``y = T*P[m] + (PE - PC)[m]``,
    where ``P`` and ``PC`` are the prefix sums of ``p`` and ``p*c`` in
    ``order``, from 0, and ``PE`` is ``p @ E`` over the run's entering
    states, summed in operator order. So a sample's bits depend only on
    its run's entering state and direction, its own target, and whether
    it lies below ``_LONG``, never on where the input is cut. When
    ``v[0]`` continues a run, ``lead`` (``_blocks``) counts its samples
    before ``v[0]``, and ``w`` is the state it was entered with.

    The samples of a crossed stretch of ``walk`` are left unset: no caller
    reads them.
    """
    p = model.density.weights()
    y = np.empty(v.size)
    for i, j, S, E, T in _states(model, v, d, walk, w):
        if T is None:
            y[i:j] = _contract(p, S)
        elif T.size:
            k = min(_LONG - (lead if i == 0 else 0), j - i)
            if k:
                y[i : i + k] = _contract(p, _run_states(model, E, T[:k], d[i] > 0))
            if k < j - i:
                c, order, m = _sweep(model, E[:, 0], T[k:], d[i] > 0)
                po = p[order]
                P, Q = np.zeros((2, p.size + 1))
                np.add.accumulate(po, out=P[1:])
                np.add.accumulate(po * c[order], out=Q[1:])
                np.subtract(np.add.accumulate(p * E[:, 0])[-1], Q, out=Q)
                np.multiply(T[k:], P.take(m), out=y[i + k : j])
                y[i + k : j] += Q.take(m)
    return y, S[:, -1].copy(), E[:, -1].copy()  # each entry begins a run


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


def _planned_for(model, memory: Memory | None) -> tuple:
    """What a plan depends on: the model's bank count, switch mode and
    flags, and the last input, run length and bank count of the memory it
    continues (None for a fresh evaluation)."""
    if isinstance(model, GpiModel):
        switch = 1, None, None, None
    else:
        switch = len(model.submodels), model.mode, model.flag_asc, model.flag_desc
    if memory is None:
        return switch, None
    return switch, (memory.last_input, memory.run_length, len(memory.states))


@dataclass(frozen=True)
class Plan:
    """One validated input and the walks of every pass over it (``_plan``).

    ``t`` and ``v`` are the validated series, ``d`` the directions of
    ``v``, ``use2`` the samples submodel 2 reports, ``walks`` one walk per
    bank, and ``lead`` and ``run`` those of ``_blocks``. ``planned_for``
    (``_planned_for``) records the model structure and the memory it was
    made for. It holds no operator state, so it serves every model of that
    structure: a fit plans its input once for all its parameter vectors.
    """

    t: np.ndarray
    v: np.ndarray
    d: np.ndarray
    use2: np.ndarray
    walks: tuple
    lead: int
    run: int
    planned_for: tuple


def _plan(model, t, v, memory: Memory | None = None, every: bool = False) -> Plan:
    """Validate ``t`` and ``v`` (``_validate_series``) and plan the passes
    of a model of ``model``'s structure over them, continuing from
    ``memory`` (fresh where it is None).

    The directions step from ``memory``'s last input, and ``_blocks``
    cuts one walk per evaluation, continuing ``memory``'s run. A bank of
    a switched model reports the samples ``use2`` gives it, and each run it
    moves along without reporting a sample of is one crossed entry ``(i,
    j, None)``. Under ``every``, and for a lone bank, which reports every
    sample, no entry is crossed. Every pass over the plan, forward or
    tangent, walks these lists. ConfigError if ``memory`` holds another
    number of banks than ``model``.
    """
    t, v = _validate_series(t, v)
    banks = len(_banks(model))
    if memory is not None and len(memory.states) != banks:
        raise ConfigError(f"memory holds {len(memory.states)} bank(s), the model has {banks}")
    prev, run = (None, 0) if memory is None else (memory.last_input, memory.run_length)
    d = _directions(v, prev)
    use2 = _reports_second(model, v, d)
    walk, lead, run = _blocks(d, run)
    if every or isinstance(model, GpiModel):
        walks = (walk,) * banks
    else:
        walks = ([], [])
        for i, j, starts in walk:
            # the samples of a moving run that bank 2 reports
            second = np.count_nonzero(use2[i:j]) if d[i] and not starts.size else -1
            walks[0].append((i, j, None if second == j - i else starts))
            walks[1].append((i, j, None if second == 0 else starts))
    return Plan(t, v, d, use2, walks, lead, run, _planned_for(model, memory))


def _check(model, plan: Plan, memory: Memory | None = None) -> None:
    """ConfigError unless ``plan`` was made for ``model``'s structure and
    for ``memory`` (``_planned_for``)."""
    if (planned_for := _planned_for(model, memory)) != plan.planned_for:
        raise ConfigError(
            f"plan made for another model or memory: {plan.planned_for} != {planned_for}"
        )


def _evaluate(model, plan: Plan, memory: Memory | None):
    """One pass of each bank over the input of ``plan``, continuing from
    ``memory`` (fresh where it is None): ``(use2, outputs, memory)``.

    ``plan`` comes from ``_plan``, once per public call, or once per fit;
    ConfigError, before any bank runs, unless it was made for ``model``'s
    structure and for ``memory`` (``_check``). The model is only read; the
    caller stores the memory returned.
    """
    _check(model, plan, memory)
    v, lead = plan.v, plan.lead
    start = None if memory is None else memory.run_states if lead else memory.states
    outs, states, entries = zip(*(
        _bank_pass(bank, v, plan.d, walk, _init_bank(bank, v[0]) if start is None else start[k], lead)
        for k, (bank, walk) in enumerate(zip(_banks(model), plan.walks))))
    return plan.use2, outs, Memory(float(v[-1]), plan.run, states, entries)


def gpi_eval(model: GpiModel, t, v, reset: bool = True) -> np.ndarray:
    """Evaluate the bank over a sampled input, returning the output series.

    With ``reset`` (the default) all operator states are initialized at
    the first sample. ``reset=False`` continues from ``model.memory``, a
    submodel's own, not its switched model's; the first new sample steps
    from the last input seen. The new memory is stored once the bank has
    run, so a call that raises leaves it unchanged. Any other model kind
    raises ConfigError before a bank runs.
    """
    if not isinstance(model, GpiModel):
        raise ConfigError(f"gpi_eval takes a GpiModel, got {type(model).__name__}")
    memory = None if reset else model.memory
    _, (y,), model.memory = _evaluate(model, _plan(model, t, v, memory, every=True), memory)
    return y


def egpi_outputs(model, t, v):
    """One fresh pass of each bank over every sample: ``(z, active, z1, z2)``.

    ``z1`` and ``z2`` are the submodel outputs; ``z`` and ``active`` are
    what ``egpi_eval`` returns, and ``model.memory`` is replaced as there.
    A ``GpiModel`` gives ``z1 = z2 = z`` and ``active = 1``.
    """
    use2, outs, model.memory = _evaluate(model, _plan(model, t, v, every=True), None)
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

    ``model.memory`` is read and replaced as in ``gpi_eval``, once both
    banks have run; the submodels' own are left alone. A memory that
    holds another number of banks than the model raises ConfigError. Each
    bank crosses each run it moves along without reporting a sample
    (``_plan``), as the tangent pass does. ``z``, and the memory, keep the
    bits of a pass over every sample (``egpi_outputs``).
    """
    memory = None if reset else model.memory
    use2, outs, model.memory = _evaluate(model, _plan(model, t, v, memory), memory)
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
