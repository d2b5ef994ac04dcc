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

import collections
import itertools
import os
import sys
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache

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
    select which output is reported, they never transfer state; the pair
    is kept as a tuple. ``memory`` (``Memory``) is the model's, apart from
    each submodel's own, so one bank may fill both slots.
    """

    submodels: tuple[GpiModel, ...]
    mode: SwitchMode = SwitchMode.TWO_FLAG
    flag_asc: float | None = None
    flag_desc: float | None = None
    memory: Memory | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        self.submodels = tuple(self.submodels)
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


def _banks(model) -> tuple[GpiModel, ...]:
    """The banks of either model kind; a ``GpiModel`` is its own one bank."""
    return model.submodels if isinstance(model, EgpiModel) else (model,)


# a model's banks as the rows of one walk (``_stack``)
_Stack = collections.namedtuple("_Stack", "banks slices bank p asc_off desc_off asc desc")


def _stack(model, plan) -> _Stack:
    """``model``'s banks as the rows of one walk: bank ``b`` owns rows
    ``slices[b]``, in operator order; ``bank`` is each row's bank, and
    ``p``, ``asc_off``, ``desc_off`` its weight, ``kappa_asc*r`` and
    ``kappa_desc*r``, and ``asc`` and ``desc`` each bank's envelope.
    ConfigError if ``plan`` continues a memory of other operator counts."""
    banks = _banks(model)
    r = [bank.density.thresholds() for bank in banks]
    sizes = tuple(x.size for x in r)
    if plan.start is not None and (held := tuple(x.size for x in plan.start)) != sizes:
        raise ConfigError(f"memory holds banks of {held} operators, the model has {sizes}")
    rows = np.concatenate([*(b.density.weights() for b in banks),
                           *(b.kappa_asc * x for b, x in zip(banks, r)),
                           *(b.kappa_desc * x for b, x in zip(banks, r))]).reshape(3, -1)
    return _Stack(banks, *_layout(sizes), *rows,
                  [b.asc_env for b in banks], [b.desc_env for b in banks])


@lru_cache(maxsize=16)
def _layout(sizes: tuple) -> tuple:
    """``_Stack.slices`` and a read-only ``_Stack.bank`` for banks of ``sizes`` rows."""
    edges, bank = [0, *itertools.accumulate(sizes)], np.repeat(np.arange(len(sizes)), sizes)
    bank.flags.writeable = False
    return tuple(zip(edges, edges[1:])), bank


def _targets(envs, v) -> np.ndarray:
    """``T``, the values at ``v`` of ``envs`` (``_Stack.asc`` or ``desc``), a
    row per bank."""
    return np.array([env(v) for env in envs])


def _rows(stack: _Stack, T) -> np.ndarray:
    """``T`` (``_targets``) at each row of ``stack``; a lone bank's row broadcasts."""
    return T if len(T) == 1 else T.take(stack.bank, axis=0)


def _init_bank(stack: _Stack, v0: float) -> np.ndarray:
    """States of every row of ``stack`` at the first sample: 0 clamped into
    each operator's band. Where the band is empty (crossed envelopes) the
    state stays at 0, and a warning per bank with such operators is recorded.
    """
    lo = _rows(stack, _targets(stack.asc, v0)) - stack.asc_off
    hi = _rows(stack, _targets(stack.desc, v0)) + stack.desc_off
    ok = lo <= hi
    w = np.minimum(np.maximum(0.0, lo), hi)
    if not ok.all():
        w[~ok] = 0.0
        for a, e in stack.slices:
            if empty := np.count_nonzero(~ok[a:e]):
                warnings.warn(f"empty play band at v0={v0} for {empty} operator(s); left at 0",
                              RuntimeWarning, stacklevel=_caller_level())
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


def _run_states(stack: _Stack, E, T, rising: bool) -> np.ndarray:
    """States (rows x samples) along one run entered with the states ``E``
    (a column), at the targets ``T`` (``_targets``) of its samples:
    ``max(E, T - kappa_asc*r)`` rising, ``min(E, T + kappa_desc*r)`` falling.
    """
    if rising:
        S = np.subtract(_rows(stack, T), stack.asc_off[:, None])
        return np.maximum(S, E, out=S)
    S = np.add(_rows(stack, T), stack.desc_off[:, None])
    return np.minimum(S, E, out=S)


def _sweep(stack: _Stack, E, rising: bool):
    """Which operators move along one run entered with the states ``E``:
    ``(c, order, key)``.

    Operator k has left ``E[k]`` at a sample exactly when the target has
    passed ``c[k]``: ``T > c[k] = E[k] + kappa_asc*r[k]`` rising, ``T <
    c[k] = E[k] - kappa_desc*r[k]`` falling; from then on it sits on the
    target, ``T - c[k] + E[k]``. ``order`` sorts the rows by bank, then
    stably by ``c``, descending on a fall; ``key`` is ``c`` (``-c``
    falling) in that order. So the operators of the bank of rows ``a:e``
    that have moved at its target ``T`` are ``order[a:a + m]``, ``m =
    key[a:e].searchsorted(T)`` (``-T`` falling): a target equal to ``c[k]``
    leaves operator k where it is.
    """
    c = E + stack.asc_off if rising else E - stack.desc_off
    key = c if rising else -c
    order = np.lexsort((key, stack.bank))  # stable: per bank, a stable sort by key
    return c, order, key[order]


def _states(stack: _Stack, v, d, walk, w):
    """States of every row of ``stack`` along ``v`` (directions ``d =
    _directions(v, prev)``), from the states ``w`` before the step to
    ``v[0]``, along the plan's ``walk``.

    Yields ``(i, j, S, E, T)`` per entry ``v[i:j]``, with ``E`` the state
    each operator entered its run with:
    - a block of several runs: ``S`` and ``E`` hold a column per sample,
      ``S`` the states, and ``T`` is None;
    - a hold: ``S`` is ``E``, one column, and ``T`` is None;
    - any other entry lies in one moving run: ``S`` (the state at its last
      sample) and ``E`` are one column each, and ``T`` holds the targets
      of its samples (``_targets``), from which ``_run_states`` and
      ``_sweep`` give the states.

    Each step clamps the state: ``max(w, asc_env(v) - kappa_asc*r)``
    rising, ``min(w, desc_env(v) + kappa_desc*r)`` falling, the identity
    on a hold, each row at its own bank's envelopes. Both envelope
    families increase, so along a run the targets are monotone and a
    sample's state is the run's entering state clamped by its own target.
    In a block a prefix scan over its moving runs gives their entering
    states, as two clamps compose to one:
    ``clip(clip(w, l1, h1), l2, h2) = clip(w, clip(l1, l2, h2), clip(h1, l2, h2))``.
    Max and min only select values, so the states are exactly those of the
    sample-by-sample recursion of each bank.
    """
    asc_off, desc_off = stack.asc_off[:, None], stack.desc_off[:, None]
    for i, j, starts in walk:
        E, T = w[:, None], None
        if not starts.size and d[i] != 0:
            T = _targets(stack.asc if d[i] > 0 else stack.desc, v[i:j])
            S = _run_states(stack, E, T[:, -1:], d[i] > 0)
        elif not starts.size:
            S = E
        else:
            seg, ds = v[i:j], d[i:j]
            lo = _rows(stack, np.where(ds > 0, _targets(stack.asc, seg), -np.inf)) - asc_off
            hi = _rows(stack, np.where(ds < 0, _targets(stack.desc, seg), np.inf)) + desc_off
            # a run's clamp is that of its last sample, the identity on a
            # hold; a Hillis-Steele scan composes them in log2(runs) steps
            ends = np.append(starts, ds.size) - 1
            ends = ends[ds[ends] != 0]
            L, H = lo.T[ends], hi.T[ends]
            step = 1
            while step < ends.size:
                l2, h2 = L[step:], H[step:]
                L[step:], H[step:] = _clip(L[:-step], l2, h2), _clip(H[:-step], l2, h2)
                step *= 2
            # a sample's run is entered after the moving runs that end before it
            after = np.zeros(ds.size + 1, dtype=np.intp)
            after[ends + 1] = 1
            E = np.concatenate((E, _clip(E, L.T, H.T)), axis=1).take(np.cumsum(after[:-1]), axis=1)
            S = _clip(E, lo, hi)
        yield i, j, S, E, T
        # a copy, so that E (a view of w) does not keep this block's S alive
        w = S[:, -1].copy()


def _contract(p: np.ndarray, S: np.ndarray) -> np.ndarray:
    """``p @ S``, summed over the operators in their order for every column.

    einsum adds row after row of a C-contiguous ``S`` with two or more
    columns, so the bits of a column do not depend on the others; a bank's
    rows of a stacked ``S`` are C-contiguous too. A single column would be
    summed as a dot product, so it is doubled first.
    """
    k = S.shape[1]
    S = S.repeat(2, axis=1) if k == 1 else np.ascontiguousarray(S)
    return np.einsum("m,mn->n", p, S)[:k]


def _bank_pass(stack: _Stack, plan, use2, w):
    """The output along the input of ``plan`` from the states ``w``
    (``_states``), each sample's from the bank ``use2`` reports there,
    and each bank's memory: ``(z, states, run_states)``.

    Each bank computes the samples it reports. A sample sums its bank's
    operator states (``_contract``) when it lies in a block or among the
    first ``_LONG`` samples of its run. Later samples take the run's
    closed form from one ``_sweep``: ``y = T*P[m] + (PE - PC)[m]``, where
    ``P`` and ``PC`` are the bank's prefix sums of ``p`` and ``p*c`` in
    ``order``, from 0, and ``PE`` is ``p @ E`` summed in operator order.
    So a sample's bits depend only on its run's entering state and
    direction, its own target, and whether it lies below ``_LONG``, never
    on where the input is cut or on the other banks. ``plan.lead``
    (``_blocks``) counts the samples of a continued run before ``v[0]``,
    which ``w`` entered.
    """
    v, d, p = plan.v, plan.d, stack.p
    y = np.empty((len(stack.banks), v.size))  # a bank's unreported samples stay unset
    for i, j, S, E, T in _states(stack, v, d, plan.walk, w):
        if T is None:
            for b, (a, e) in enumerate(stack.slices):
                y[b, i:j] = _contract(p[a:e], S[a:e])
            continue
        k = min(_LONG - (plan.lead if i == 0 else 0), j - i)
        R = _run_states(stack, E, T[:, :k], d[i] > 0)
        if k < j - i:
            c, order, key = _sweep(stack, E[:, 0], d[i] > 0)
            po, pe = p[order], p * E[:, 0]
            pc = po * c[order]
        # along a run the input is monotone, so bank 2 reports its last samples
        q = j - np.count_nonzero(use2[i:j]) if len(y) > 1 else j
        for b, ((a, e), (s, t)) in enumerate(zip(stack.slices, ((i, q), (q, j)))):
            if s < min(t, i + k):
                y[b, i : i + k] = _contract(p[a:e], R[a:e])
            if (s := max(s, i + k)) < t:
                Tb = T[b, s - i : t - i]
                m = key[a:e].searchsorted(Tb if d[i] > 0 else -Tb)
                P, Q = np.zeros((2, e - a + 1))
                np.add.accumulate(po[a:e], out=P[1:])
                np.add.accumulate(pc[a:e], out=Q[1:])
                np.subtract(np.add.accumulate(pe[a:e])[-1], Q, out=Q)
                np.multiply(Tb, P.take(m), out=y[b, s:t])
                y[b, s:t] += Q.take(m)
    z = np.where(use2, y[-1], y[0]) if len(y) > 1 else y[0]  # a lone bank reports every sample
    S, E = S[:, -1], E[:, -1]  # each entry begins a run
    return (z, tuple(S[a:e].copy() for a, e in stack.slices),
            tuple(E[a:e].copy() for a, e in stack.slices))


def _reports_second(model, v: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Per-sample flag switching: True where submodel 2 is reported.

    ``d`` holds the directions of ``v`` (``_directions``). A ``GpiModel``
    never switches.
    """
    if isinstance(model, GpiModel):
        return np.zeros(v.size, dtype=bool)
    if model.mode is SwitchMode.TWO_FLAG:
        return np.where(d > 0, v >= model.flag_asc, v <= model.flag_desc)
    return (d <= 0) & (v <= model.flag_desc)


@dataclass(frozen=True)
class Plan:
    """One validated input and the walk of every pass over it (``_plan``).

    ``v`` is the validated input, ``d`` its directions, ``walk`` the walk
    entries, ``lead`` and ``run`` those of ``_blocks``, and ``start`` the
    state each bank begins from, None when fresh (``_init_bank``). The
    input and the memory it continues decide all of it; a model brings its
    banks and its switching where it meets the plan, so one fresh plan
    serves every model over that input, and a fit plans its input once.
    """

    v: np.ndarray
    d: np.ndarray
    walk: list
    lead: int
    run: int
    start: tuple | None


def _plan(t, v, memory: Memory | None = None) -> Plan:
    """Validate ``t`` and ``v`` (``_validate_series``) and plan every pass
    over ``v``, continuing from ``memory`` (fresh where it is None).

    The directions step from ``memory``'s last input, and ``_blocks`` cuts
    one walk for all banks, continuing ``memory``'s run; each bank starts
    from its run-entering state if ``v[0]`` goes on with that run
    (``lead``), else from its last state. Every pass, forward or tangent,
    walks the rows of all of a model's banks at once (``_Stack``) along it.
    """
    _, v = _validate_series(t, v)
    prev, run = (None, 0) if memory is None else (memory.last_input, memory.run_length)
    d = _directions(v, prev)
    walk, lead, run = _blocks(d, run)
    start = None if memory is None else memory.run_states if lead else memory.states
    return Plan(v, d, walk, lead, run, start)


def _evaluate(model, plan: Plan):
    """One pass of ``model``'s banks over ``plan`` from its start states:
    ``(z, use2, memory)`` (``_bank_pass``), ``use2`` the samples submodel 2
    reports (``_reports_second``). The model is only read.
    """
    stack, v = _stack(model, plan), plan.v
    use2 = _reports_second(model, v, plan.d)
    w = _init_bank(stack, v[0]) if plan.start is None else np.concatenate(plan.start)
    z, states, entries = _bank_pass(stack, plan, use2, w)
    return z, use2, Memory(float(v[-1]), plan.run, states, entries)


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
    y, _, model.memory = _evaluate(model, _plan(t, v, None if reset else model.memory))
    return y


def egpi_outputs(model, t, v):
    """Fresh evaluations of each bank alone: ``(z, active, z1, z2)``.

    ``z1`` and ``z2`` are the submodel outputs, each bank reporting every
    sample; ``z`` and ``active`` pick from them by the model's switching,
    with the bits of ``egpi_eval``, each bank over one plan. ``model.memory``
    is left as it was. A ``GpiModel`` gives ``z1 = z2 = z`` and ``active = 1``.
    """
    plan = _plan(t, v)
    zs = [_evaluate(bank, plan)[0] for bank in _banks(model)]
    use2 = _reports_second(model, plan.v, plan.d)
    return np.where(use2, zs[-1], zs[0]), np.where(use2, 2, 1), zs[0], zs[-1]


def egpi_eval(model, t, v, reset: bool = True):
    """Evaluate every bank and select the reported output per sample.

    Returns ``(z, active)`` where ``active`` is 1 or 2 for the submodel
    whose output is reported. Ascending samples with input at or past the
    ascending flag select submodel 2, as do non-ascending samples at or
    below the descending flag; in descend-flag mode ascending samples
    always report submodel 1. Holds follow the non-ascending rule. A
    ``GpiModel`` is the one-bank case: it always reports its bank.

    ``model.memory`` is read as in ``gpi_eval``, and the new one stored
    once the banks have run; the submodels' own are left alone. The call's
    plan (``_plan``) starts the banks from it (ConfigError if it holds other
    banks), and the model's switching gives ``active``. Each sample keeps
    the bits of its bank evaluated alone (``gpi_eval``).
    """
    z, use2, model.memory = _evaluate(model, _plan(t, v, None if reset else model.memory))
    return z, np.where(use2, 2, 1)


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
