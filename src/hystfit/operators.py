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

Every pass walks the rows of all banks at once, as ``_stack`` lays them
out for a model (``_evaluate``) or a fit's vector (``fitting._fit_pair``).
The fit's exact Jacobian (``_bank_tangent``) takes the forward pass's
walk (``_states``) and, along a long run, its closed form
(``_closed_form``), so it is taken at exactly the states ``predict``
reports. It serves the banks a fit lays out: linear envelopes,
``kappa_asc`` 1 and one grid shared by every bank.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .envelopes import Envelope, TanhEnvelope
from .errors import ConfigError, InputError, check_number, warn_caller


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
        # computed once per instance, as every caller shares it
        return _grid(self.lam, self.sigma, self.r1, self.rn, self.n)

    def thresholds(self) -> np.ndarray:
        """Backlash values [0, r1, ..., rn], length n+1 (read-only)."""
        return self._grid[0]

    def weights(self) -> np.ndarray:
        """Weight of each threshold, all strictly positive (read-only)."""
        return self._grid[1]


def _grid(lam, sigma, r1, rn, n: int):
    """Thresholds ``r``, 0 and then ``n`` values from ``r1`` to ``rn`` by the
    float ops of ``np.linspace`` (without its Python wrapper), and their
    weights ``lam * exp(-sigma * r)``, both read-only: ``(r, p)``."""
    r, delta, div = np.zeros(n + 1), float(rn) - float(r1), max(n - 1, 1)
    # k*step + r1; linspace takes k/div*delta where the step underflows to 0
    r[1:] = (np.arange(n) / div * delta if delta / div == 0 else np.arange(n) * (delta / div)) + r1
    r[-1] = rn if n > 1 else r1
    p = lam * np.exp(-sigma * r)
    r.flags.writeable = p.flags.writeable = False
    return r, p


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


@dataclass
class EgpiModel:
    """Two independent banks with flag-point output switching.

    Both submodels evolve in parallel over the same input; the flags only
    select which output is reported, they never transfer state; the pair
    is kept as a tuple. ``flag_desc`` is required; without ``flag_asc``
    (descend-flag switching) ascending samples always report bank 1.
    ``memory`` (``Memory``) is the model's, apart from each submodel's own,
    so one bank may fill both slots.
    """

    submodels: tuple[GpiModel, ...]
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
        if self.flag_desc is None:
            raise ConfigError("a switched model requires 'flag_desc'")
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


# banks as the rows of one walk (``_stack``)
_Stack = collections.namedtuple("_Stack", "slices bank p asc_off desc_off asc desc")


def _stack(banks) -> _Stack:
    """``banks``, one ``(r, p, kappa_asc, kappa_desc, asc, desc)`` each, as
    the rows of one walk: bank ``b`` owns rows ``slices[b]``, in operator
    order; ``bank`` is each row's bank, and ``p``, ``asc_off``, ``desc_off``
    its weight, ``kappa_asc*r`` and ``kappa_desc*r``, and ``asc`` and
    ``desc`` each bank's envelope function. A model's banks (``_evaluate``)
    and a fit's vectors (``fitting._fit_pair``) are laid out here."""
    r, p, kappa_asc, kappa_desc, asc, desc = zip(*banks)
    rows = np.concatenate([*p, *(k * x for k, x in zip(kappa_asc, r)),
                           *(k * x for k, x in zip(kappa_desc, r))]).reshape(3, -1)
    return _Stack(*_layout(tuple(x.size for x in r)), *rows, asc, desc)


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


def _init_bank(stack: _Stack, v0: float):
    """States of every row of ``stack`` at the first sample, 0 clamped into
    each operator's band, and per bank the number of operators whose band
    is empty (crossed envelopes), whose state stays at 0: ``(w, empty)``."""
    lo = _rows(stack, _targets(stack.asc, v0)) - stack.asc_off
    hi = _rows(stack, _targets(stack.desc, v0)) + stack.desc_off
    ok = lo <= hi
    w = np.minimum(np.maximum(0.0, lo), hi)
    if ok.all():
        return w, ()
    w[~ok] = 0.0
    return w, [np.count_nonzero(~ok[a:e]) for a, e in stack.slices]


def _warn_empty(v0, empty):
    """Warn of each bank with ``empty`` operators at ``v0`` (``_init_bank``),
    naming the innermost frame outside the package (``errors.warn_caller``)."""
    for count in filter(None, empty):
        warn_caller(f"empty play band at v0={v0} for {count} operator(s); left at 0")


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


def _run_states(off, E, T, rising: bool) -> np.ndarray:
    """States (rows x samples) along a run entered with the states ``E`` (a
    column), at its targets ``T`` (one row for all rows, or one per row):
    ``max(E, T - off)`` rising, ``min(E, T + off)`` falling, ``off`` the
    rows' ``kappa_asc*r`` or ``kappa_desc*r`` (a column)."""
    return np.maximum(T - off, E) if rising else np.minimum(T + off, E)


def _sweep(E, off, rising: bool):
    """Which operators of one bank that reports samples of a run (only such
    banks sort) move along it from the states ``E`` (``off`` their
    ``kappa_asc*r`` rising, ``kappa_desc*r`` falling): ``(c, order, key)``.

    Operator k has left ``E[k]`` at a sample exactly when the target has
    passed ``c[k]``: ``T > c[k] = E[k] + kappa_asc*r[k]`` rising, ``T <
    c[k] = E[k] - kappa_desc*r[k]`` falling; from then on it sits on the
    target, ``T - c[k] + E[k]``. ``order`` sorts them stably by ``c``,
    descending on a fall; ``key`` is ``c`` (``-c`` falling) in that order.
    So the operators that have moved at the target ``T`` are ``order[:m]``,
    ``m = key.searchsorted(T)`` (``-T`` falling): a target equal to
    ``c[k]`` leaves operator k where it is."""
    c = E + off if rising else E - off
    key = c if rising else -c
    order = key.argsort(kind="stable")
    return c, order, key[order]


def _states(stack: _Stack, v, d, walk, w):
    """States of every row of ``stack`` along ``v`` (directions ``d =
    _directions(v, prev)``), from the states ``w`` before the step to
    ``v[0]``, along the plan's ``walk``.

    Yields ``(i, j, S, E)`` per entry ``v[i:j]``, with ``E`` the state
    each operator entered its run with:
    - a block of several runs: ``S`` and ``E`` hold a column per sample,
      ``S`` the states;
    - a hold: ``S`` is ``E``, one column;
    - any other entry lies in one moving run: ``S`` (the state at its last
      sample, one clamp of every row) and ``E`` are one column each; a
      bank's targets there give its states (``_run_states``, ``_sweep``).

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
        E = w[:, None]
        if not starts.size and d[i] != 0:
            T = _targets(stack.asc if d[i] > 0 else stack.desc, v[j - 1 : j])
            S = _run_states(asc_off if d[i] > 0 else desc_off, E, _rows(stack, T), d[i] > 0)
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
        yield i, j, S, E
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


def _reporting(plan, use2, slices) -> list:
    """Per entry of ``plan.walk``, None for a block of several runs, else
    ``(k, spans)``: ``k`` the length of its dense head, its first ``_LONG``
    samples (a continued run counts ``plan.lead``), and ``(b, a, e, s, t)``
    in ``spans`` for each bank ``b`` of rows ``slices[b] = (a, e)`` that
    reports samples ``v[s:t]`` by ``use2`` (bank 2 a monotone run's last
    ones). ``_evaluate`` works this out per call, ``fitting._fit_pair`` once."""
    entries = []
    for i, j, starts in plan.walk:
        if starts.size:
            entries.append(None)
            continue
        q = j - int(np.count_nonzero(use2[i:j])) if len(slices) > 1 else j
        spans = zip(range(2), slices, ((i, q), (q, j)))
        entries.append((min(_LONG - (plan.lead if i == 0 else 0), j - i),
                        tuple((b, a, e, s, t) for b, (a, e), (s, t) in spans if s < t)))
    return entries


def _closed_form(key, T, rising: bool, A, B, base, x, out):
    """Write a run's closed form at its targets ``T`` to ``out``: ``x*PA[m]
    + (base + PB)[m]``, where ``m = key.searchsorted(T)`` (``-T`` falling)
    counts one bank's moved operators (``_sweep``; a tie leaves one
    unmoved), and ``PA``, ``PB`` are the running sums from 0 of its rows
    ``A``, ``B`` in sweep order. ``_bank_pass`` and ``_bank_tangent`` take it."""
    m = key.searchsorted(T if rising else -T)
    P = np.zeros((2, len(A) + 1, *A.shape[1:]))
    np.add.accumulate(A, out=P[0, 1:])
    np.add.accumulate(B, out=P[1, 1:])
    P[1] += base
    # m never exceeds the row count; "clip" skips a buffer
    np.multiply(P[0].take(m, axis=0, out=out, mode="clip"), x, out=out)
    out += P[1].take(m, axis=0, mode="clip")


def _bank_pass(stack: _Stack, plan, use2, w, reporting):
    """The output along the input of ``plan`` from the states ``w``
    (``_states``), each sample's from the bank ``use2`` reports there
    (``reporting``, ``_reporting``), and every row's state at the last
    sample and on entering its run: ``(z, S, E)``.

    A block sums every bank's states (``_contract``) at each sample. A hold
    or a run computes only the samples each bank reports there: among the
    first ``_LONG`` of its run a sample sums its bank's states
    (``_run_states``), and later ones take the closed form
    (``_closed_form``) of one ``_sweep`` of the bank's rows: ``y = T*P[m] +
    (PE - PC)[m]``, where ``P`` and ``PC`` are its running sums of ``p`` and
    ``p*c`` in ``order``, from 0, and ``PE`` is ``p @ E`` summed in operator
    order. So a sample's bits depend only on its run's entering state and
    direction, its own target, and whether it lies below ``_LONG``, never
    on where the input is cut or on the other banks. The state carried on
    is one clamp of every row. ``plan.lead`` (``_blocks``) counts the
    samples of a continued run before ``v[0]``, which ``w`` entered."""
    v, d, p = plan.v, plan.d, stack.p
    y = np.empty((len(stack.slices), v.size))  # a bank's unreported samples stay unset
    for (i, j, S, E), entry in zip(_states(stack, v, d, plan.walk, w), reporting):
        if entry is None:
            for b, (a, e) in enumerate(stack.slices):
                y[b, i:j] = _contract(p[a:e], S[a:e])
            continue
        (k, spans), rising = entry, d[i] > 0
        off, envs = (stack.asc_off, stack.asc) if rising else (stack.desc_off, stack.desc)
        for b, a, e, s, t in spans:
            if not d[i]:
                y[b, s:t] = _contract(p[a:e], S[a:e])
                continue
            T, h, m = envs[b](v[s:t]), min(t, i + k), max(s, i + k)
            if s < h:
                R = _run_states(off[a:e, None], E[a:e], T[: h - s], rising)
                y[b, s:h] = _contract(p[a:e], R)
            if m < t:
                _, order, key = _sweep(E[a:e, 0], off[a:e], rising)
                po = p[a:e][order]  # and -c in sweep order is -key rising, key falling
                _closed_form(key, T[m - s:], rising, po, po * (-key if rising else key),
                             np.add.accumulate(p[a:e] * E[a:e, 0])[-1], T[m - s:], y[b, m:t])
    z = np.where(use2, y[-1], y[0]) if len(y) > 1 else y[0]  # a lone bank reports every sample
    return z, S[:, -1], E[:, -1]  # each entry begins a run


def _bank_tangent(stack: _Stack, tables, plan, use2, reporting):
    """Forward-mode pass of a fit's banks over a fresh ``plan``: the
    Jacobian, one row per sample and a column per parameter, each row from
    the bank ``use2`` reports there (``reporting``, as in ``_bank_pass``).
    ``tables`` are the banks' tangent tables (``fitting._tables``).

    Along ``_states`` a state that moved off its entering value sits on
    the branch target of that sample until it moves again. So a state
    takes the target's tangent at the last sample where it moved, or the
    tangent it entered the entry with (at first that of the initial state).

    Along a run a sample's row is the row at the run's entering states plus
    running sums, in ``_sweep`` order, of what each moved operator adds
    (``_closed_form``): O(samples x parameters) per run, for the samples
    each bank reports, from its own ``_sweep``; the tangents carried on
    are those of every row. A tie takes the derivative from the side
    where the state does not move.

    A block of several runs is computed whole for each bank that reports
    one of its samples (BLAS bits depend on the matrix shape); a hold's
    one row fills its span.
    """
    dp, dasc, ddesc, a_asc, a_desc, asc, desc = tables
    branch = {True: (dasc, a_asc, *asc.T), False: (ddesc, a_desc, *desc.T)}

    # clamped initial state: the tangent of whichever bound is active. As
    # w = clip(0, lo, hi), a state above 0 sits on lo and one below 0 on hi.
    v, d = plan.v, plan.d
    v0, w = float(v[0]), _init_bank(stack, v[0])[0]
    dw = np.where(w[:, None] > 0.0, v0 * a_asc + dasc,
                  np.where(w[:, None] < 0.0, v0 * a_desc + ddesc, 0.0))

    J = np.empty((v.size, dp.shape[1]))
    p = stack.p
    pcol = p[:, None]
    Y = {k: pcol * a + env_a[:, None] * dp for k, (_, a, env_a, _) in branch.items()}
    for (i, j, S, E), entry in zip(_states(stack, v, d, plan.walk, w), reporting):
        if entry is not None:
            rising = d[i] > 0
            dT, a, _, env_b = branch[rising]
            off, envs = (stack.asc_off, stack.asc) if rising else (stack.desc_off, stack.desc)
            for b, a0, a1, s, e in entry[1]:
                rows = slice(a0, a1)
                J0 = p[rows] @ dw[rows] + E[rows].T @ dp[rows]  # the row at E
                if not d[i]:
                    J[s:e] = J0
                    continue
                # a state that has moved adds p*(v*a + dT - dw) + (T - c)*dp
                # to its row, where T = env.a*v + env.b: X + v*Y, summed in
                # the order in which the states move (Y of every row is built once)
                c, order, key = _sweep(E[rows, 0], off[rows], rising)
                Xo = (pcol[rows] * (dT[rows] - dw[rows]) + (env_b[rows] - c)[:, None] * dp[rows])
                _closed_form(key, envs[b](v[s:e]), rising, Y[rising][rows][order], Xo[order], J0,
                             v[s:e, None], J[s:e])
            if d[i]:
                dw = np.where(S != E, v[j - 1] * a + dT, dw)
        else:
            # the last sample each state moved at in this block; sample 0,
            # which never moves (d[0] == 0), stands for none
            last = np.maximum.accumulate(np.where(S != E, np.arange(i, j), 0), axis=1)
            ds, vs = d[last], v[last]
            pa, pd, p0 = pcol * (ds > 0), pcol * (ds < 0), pcol * (ds == 0)
            pav, pdv = pa * vs, pd * vs
            for b, ((a0, a1), mine) in enumerate(zip(stack.slices, (~use2[i:j], use2[i:j]))):
                if not mine.any():
                    continue
                own = slice(a0, a1)
                Jb = (p0[own].T @ dw[own] + pa[own].T @ dasc[own] + pd[own].T @ ddesc[own]
                      + S[own].T @ dp[own])
                Jb += pav[own].sum(axis=0)[:, None] * a_asc[a0]
                Jb += pdv[own].sum(axis=0)[:, None] * a_desc[a0]
                np.copyto(J[i:j], Jb, where=mine[:, None])
            s, x = ds[:, -1:], vs[:, -1:]
            dw = np.where(s > 0, x * a_asc + dasc, np.where(s < 0, x * a_desc + ddesc, dw))
    return J


def _reports_second(model, v: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Per-sample flag switching: True where submodel 2 is reported.

    ``d`` holds the directions of ``v`` (``_directions``). A ``GpiModel``
    never switches; without ``flag_asc`` no ascending sample does, as the
    input is finite.
    """
    if isinstance(model, GpiModel):
        return np.zeros(v.size, dtype=bool)
    asc = np.inf if model.flag_asc is None else model.flag_asc
    return np.where(d > 0, v >= asc, v <= model.flag_desc)


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
    """One pass of ``model``'s banks (``_stack``) over ``plan`` from its start
    states: ``(z, use2, memory)`` (``_bank_pass``), ``use2`` the samples
    submodel 2 reports (``_reports_second``). The model is only read.
    ConfigError if a continued memory holds other operator counts.
    """
    stack = _stack([(*b.density._grid, b.kappa_asc, b.kappa_desc, b.asc_env, b.desc_env)
                    for b in _banks(model)])
    v, sizes = plan.v, tuple(e - a for a, e in stack.slices)
    if plan.start is not None and (held := tuple(x.size for x in plan.start)) != sizes:
        raise ConfigError(f"memory holds banks of {held} operators, the model has {sizes}")
    use2 = _reports_second(model, v, plan.d)
    w, empty = _init_bank(stack, v[0]) if plan.start is None else (np.concatenate(plan.start), ())
    _warn_empty(v[0], empty)
    z, S, E = _bank_pass(stack, plan, use2, w, _reporting(plan, use2, stack.slices))
    states, entries = (tuple(x[a:e].copy() for a, e in stack.slices) for x in (S, E))
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
    below the descending flag; a model without ``flag_asc`` (descend-flag)
    reports submodel 1 on every ascending sample. Holds follow the
    non-ascending rule. A ``GpiModel`` is the one-bank case: it always
    reports its bank.

    ``model.memory`` is read as in ``gpi_eval``, and the new one stored
    once the banks have run; the submodels' own are left alone. The call's
    plan (``_plan``) starts the banks from it (ConfigError if it holds other
    banks), and the model's switching gives ``active``. Each sample keeps
    the bits of its bank evaluated alone (``gpi_eval``). ``predict`` and
    ``egpi_outputs`` leave the memory alone.
    """
    z, use2, model.memory = _evaluate(model, _plan(t, v, None if reset else model.memory))
    return z, np.where(use2, 2, 1)


def predict(model, t, v) -> np.ndarray:
    """Output series of a fresh ``egpi_eval`` of either model kind;
    ``model.memory`` is left as it was."""
    return _evaluate(model, _plan(t, v))[0]


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
    return EgpiModel(submodels=[sub1, sub2], flag_asc=1.5, flag_desc=-0.3)
