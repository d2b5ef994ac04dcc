"""Damped least-squares identification of model parameters from data.

Two fitting modes share one parameter layout convention:

``egpi`` (11 parameters)
    asc_slope, asc_intercept      shared ascending envelope of both banks
    desc1_slope, desc1_intercept  descending envelope of bank 1
    desc2_slope, desc2_intercept  descending envelope of bank 2
    lam, sigma, r1, rn            density shared by both banks
    kappa                         descending regulator of bank 2

``gpi`` (8 parameters)
    asc_slope, asc_intercept, desc_slope, desc_intercept, lam, sigma, r1, rn

The flag point is held fixed during optimization: it enters the model
discontinuously, so it is estimated once from the data (or supplied) and
not part of the search space.
"""

from __future__ import annotations

import numbers
import reprlib
from dataclasses import dataclass

import numpy as np

from .envelopes import LinearEnvelope
from .errors import (
    ConfigError,
    InitializationError,
    InputError,
    NumericalError,
    ParameterError,
    check_number,
)
from .metrics import Metrics, compute_metrics
from .operators import (DensitySpec, EgpiModel, GpiModel, _bank_pass, _bank_tangent, _grid,
                        _init_bank, _layout, _plan, _reporting, _reports_second, _stack, _warn_empty)
from .signals import Trajectory

EGPI_PARAM_NAMES = (
    "asc_slope",
    "asc_intercept",
    "desc1_slope",
    "desc1_intercept",
    "desc2_slope",
    "desc2_intercept",
    "lam",
    "sigma",
    "r1",
    "rn",
    "kappa",
)
GPI_PARAM_NAMES = (
    "asc_slope",
    "asc_intercept",
    "desc_slope",
    "desc_intercept",
    "lam",
    "sigma",
    "r1",
    "rn",
)

FIT_MODES = ("egpi", "gpi")

# open (> 0) constraints are projected onto this floor
_FLOOR = 1e-6
# damping with delayed gratification: mu rises by _MU_UP on a rejected trial
# and falls by _MU_DOWN (not below 1e-15) on an accepted one
_MU_UP = 2.0
_MU_DOWN = 3.0
_MU_MAX = 1e12
# geodesic acceleration: finite-difference step along delta for the second
# directional derivative, and the largest accepted ratio 2|a| / |delta|
_GEO_H = 0.1
_GEO_ALPHA = 0.75


def param_names(mode: str) -> tuple[str, ...]:
    if mode == "egpi":
        return EGPI_PARAM_NAMES
    if mode == "gpi":
        return GPI_PARAM_NAMES
    raise ConfigError(f"unknown fit mode {mode!r}; expected one of {FIT_MODES}")


def param_bounds(mode: str) -> np.ndarray:
    """Elementwise lower bounds; no parameter has an upper bound, and the
    r1 <= rn coupling is separate."""
    param_names(mode)  # rejects an unknown mode
    return np.array(_LOWER[mode])


def validate_params(params, mode: str) -> np.ndarray:
    names = param_names(mode)
    raw = params if isinstance(params, np.ndarray) else np.asarray(params, dtype=object)
    # strings, bools and ints too large for a float would convert, or raise;
    # NaN and infinities are numbers, and fail the finite check below
    if raw.dtype.kind not in "fiu":
        for k, x in enumerate(raw.flat):
            try:
                float(x if isinstance(x, numbers.Real) and not isinstance(x, bool) else None)
            except (TypeError, OverflowError):
                raise ParameterError(
                    f"mode {mode!r} takes numeric parameters, got {reprlib.repr(x)} at index {k}"
                ) from None
    params = raw.astype(float, copy=False)
    if params.shape != (len(names),):
        raise ParameterError(
            f"mode {mode!r} takes {len(names)} parameters, got shape {params.shape}"
        )
    if not np.all(np.isfinite(params)):
        raise ParameterError("parameters must be finite")
    if not np.array_equal(project_params(params, mode), params):
        raise ParameterError(
            f"parameters violate bounds: {dict(zip(names, params.tolist()))}"
        )
    return params


def project_params(params, mode: str) -> np.ndarray:
    """Nearest in-bounds parameter vector (clip, then mend r1 <= rn).

    A vector is in bounds exactly when this leaves it unchanged.
    """
    names = param_names(mode)
    p = np.maximum(np.asarray(params, dtype=float), _LOWER[mode])
    i1, i2 = names.index("r1"), names.index("rn")
    if p[i1] > p[i2]:
        mid = max(0.5 * (p[i1] + p[i2]), _FLOOR)
        p[i1] = p[i2] = mid
    return p


def build_model(params, mode: str, v_f: float | None = None, n: int = 30):
    """Materialize the model a parameter vector describes.

    Bank ``b`` takes its fields from the columns ``_COLUMNS[mode][b]``, the
    table a fit lays its banks out with (``_fit_pair``). All banks share
    the density and the ascending envelope.
    """
    params = validate_params(params, mode)
    if mode == "egpi" and v_f is None:
        raise ConfigError("egpi mode requires a flag point v_f")
    fields = np.append(params, 1.0)[_COLUMNS[mode]]
    density = DensitySpec(*fields[0, 4:8], n=n)
    asc = LinearEnvelope(*fields[0, :2])
    banks = [GpiModel(density, asc, LinearEnvelope(*f[2:4]), kappa_desc=f[8]) for f in fields]
    if mode == "gpi":
        return banks[0]
    v_f = float(check_number(v_f, "flag point v_f"))
    return EgpiModel(banks, flag_desc=v_f)


def residuals(params, traj: Trajectory, v_f=None, mode: str = "egpi", n: int = 30):
    """Model output minus measured angles, per sample: ``_fit_pair``'s
    residual function at ``params``, over a plan of its own."""
    if traj.theta is None:
        raise InputError("trajectory has no measured angles to fit against")
    fit_residuals, _, warn_empty = _fit_pair(traj, params, v_f, mode, n)
    params = np.asarray(params, dtype=float)
    warn_empty(params)
    return fit_residuals(params)


# built once per mode, as every call reads them
_LOWER = {mode: tuple(_FLOOR if name.endswith("slope") or name in ("lam", "r1", "rn", "kappa")
                      else 0.0 if name == "sigma" else -np.inf for name in param_names(mode))
          for mode in FIT_MODES}
# the column of each bank field (asc_slope, asc_intercept, desc_slope,
# desc_intercept, lam, sigma, r1, rn, kappa_desc) in a mode's layout, a row
# per bank; the column past the layout stands for the fixed regulator 1
_COLUMNS = {"egpi": np.array([[0, 1, 2, 3, 6, 7, 8, 9, 11], [0, 1, 4, 5, 6, 7, 8, 9, 10]]),
            "gpi": np.array([[0, 1, 2, 3, 4, 5, 6, 7, 8]])}


def _tables(units, n: int):
    """The tangent tables of banks of ``n`` operators, as a function of
    ``fields`` and their grid ``(r, p)`` (``operators._grid``), a row per
    operator of each, bank after bank: ``dp`` of the weights, ``dasc`` and
    ``ddesc`` of the branch targets less the slope term v*a, then the slope
    columns and the envelopes' (a, b), for ``operators._bank_tangent``.

    ``fields`` holds a row per bank in the layout of ``_COLUMNS``, the
    density the same in every row; ``units`` holds each field's column as
    a one-hot row, zero for a fixed field. What ``units`` alone fixes is built once.
    """
    u_lam, u_sigma, u_r1, u_rn = units[0, 4:8]
    frac = np.arange(n) / (n - 1) if n > 1 else np.zeros(1)
    dr = np.zeros((n + 1, u_lam.size))
    dr[1:] = (1.0 - frac)[:, None] * u_r1 + frac[:, None] * u_rn  # np.outer's, unwrapped
    dasc = (units[:, None, 1] - dr).reshape(-1, u_lam.size)  # a bank's rows, then the next's
    slopes = [np.repeat(units[:, k], n + 1, axis=0) for k in (0, 2)]

    def tables(fields, r, p):
        dp = p[:, None] * (u_lam / fields[0, 4] - r[:, None] * u_sigma - fields[0, 5] * dr)
        ddesc = units[:, None, 3] + fields[:, 8, None, None] * dr + r[:, None] * units[:, None, 8]
        return (np.concatenate([dp] * len(fields)), dasc, ddesc.reshape(-1, u_lam.size),
                *slopes, *(np.repeat(f, n + 1, axis=0) for f in (fields[:, :2], fields[:, 2:4])))
    return tables


def jacobian(params, traj: Trajectory, v_f=None, mode: str = "egpi", n: int = 30):
    """Exact residual Jacobian from one forward-mode tangent pass.

    Where the output is not differentiable (an operator state exactly at
    its crossover) it takes the one-sided derivative of the branch the
    state is on. The measured angles do not enter it: ``_fit_pair``'s
    Jacobian function at ``params``, over a plan of its own."""
    _, fit_jacobian, warn_empty = _fit_pair(traj, params, v_f, mode, n)
    params = np.asarray(params, dtype=float)
    warn_empty(params)
    return fit_jacobian(params)


def _line(a, b):
    """The function of ``LinearEnvelope(a, b)``, for fields already checked."""
    return lambda v: a * v + b


def _fit_pair(traj: Trajectory, params, v_f, mode: str, n: int):
    """The residuals (which need ``traj.theta``) and the residual Jacobian of
    ``traj`` as functions of the parameters alone, over one fresh plan of its
    input (``operators._plan``), and a function that warns of the bands a
    vector leaves empty, as those two do not. Every residual and Jacobian goes
    through one. ``build_model(params, mode, v_f, n)`` runs once, first: it
    checks ``params`` (a public call's one check of them), ``v_f`` and ``n``
    and gives the switch mask, and with it each walk entry's reporting spans
    and dense head (``operators._reporting``). Each call lays the banks of its
    vector, unchecked (callers pass only vectors ``build_model`` accepts or
    ``project_params`` output), out by ``_COLUMNS[mode]`` on one grid
    (``operators._grid``) as the rows of one walk (``operators._stack``)."""
    model, theta, v0 = build_model(params, mode, v_f, n), traj.theta, traj.v[0]
    plan = _plan(traj.t, traj.v)
    use2 = _reports_second(model, plan.v, plan.d)
    columns = _COLUMNS[mode]
    tables = _tables(np.eye(columns.max() + 1)[columns, :-1], n)  # the regulator has no column
    reporting = _reporting(plan, use2, _layout((n + 1,) * len(columns))[0])

    def lay_out(p):
        fields = np.concatenate((p, (1.0,)))[columns]
        grid = _grid(*fields[0, 4:8].tolist(), n)  # kappa_asc is 1, kappa_desc field 8
        return fields, grid, _stack([(*grid, 1.0, f[8], _line(*f[:2]), _line(*f[2:4]))
                                     for f in fields.tolist()])

    def fit_residuals(p):
        stack = lay_out(p)[2]
        return _bank_pass(stack, plan, use2, _init_bank(stack, v0)[0], reporting)[0] - theta

    def fit_jacobian(p):
        fields, grid, stack = lay_out(p)
        return _bank_tangent(stack, tables(fields, *grid), plan, use2, reporting)

    def warn_empty(p):
        _warn_empty(v0, _init_bank(lay_out(p)[2], v0)[1])

    return fit_residuals, fit_jacobian, warn_empty


def jacobian_fd(
    params,
    traj: Trajectory,
    v_f=None,
    mode: str = "egpi",
    n: int = 30,
    rel_step: float = 1e-6,
    scheme: str = "central",
):
    """Finite-difference residual Jacobian, one column per parameter.

    Central differences with per-parameter step max(rel_step*|p|, rel_step);
    a step that would cross a bound falls back to the one-sided difference
    on the feasible side. ``scheme="forward"`` forces one-sided steps (used
    for step-size diagnostics). Every column's residuals come from one
    ``_fit_pair``, so the input is validated and planned once.
    """
    fit_residuals, _, warn_empty = _fit_pair(traj, params, v_f, mode, n)
    params = np.asarray(params, dtype=float)
    if traj.theta is None:
        raise InputError("trajectory has no measured angles to fit against")
    warn_empty(params)
    base = fit_residuals(params)
    J = np.empty((base.size, params.size))
    for k in range(params.size):
        h = max(rel_step * abs(params[k]), rel_step)
        plus = params.copy()
        plus[k] += h
        minus = params.copy()
        minus[k] -= h
        plus_ok = np.array_equal(project_params(plus, mode), plus)
        minus_ok = np.array_equal(project_params(minus, mode), minus)
        if scheme == "central" and plus_ok and minus_ok:
            col = (fit_residuals(plus) - fit_residuals(minus)) / (2 * h)
        elif plus_ok:
            col = (fit_residuals(plus) - base) / h
        elif minus_ok:
            col = (base - fit_residuals(minus)) / h
        else:
            # pinned by active bounds from both sides (e.g. r1 == rn at the
            # positivity floor); treat as a dead column
            col = 0.0
        J[:, k] = col
    return J


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings; every default is an artifact choice."""

    max_iterations: int = 200
    mu0: float = 1e-3
    loss_tol: float = 1e-9
    grad_tol: float = 1e-8
    n_operators: int = 30
    v_f: float | None = None
    initial: np.ndarray | None = None

    def __post_init__(self):
        def field(name, integer=False):
            return check_number(getattr(self, name), f"fit config field {name!r}", integer)

        if field("max_iterations", integer=True) < 1:
            raise ConfigError("max_iterations must be >= 1")
        for name in ("mu0", "loss_tol", "grad_tol"):
            if field(name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        if field("n_operators", integer=True) < 1:
            raise ConfigError("n_operators must be >= 1")
        if self.v_f is not None:
            field("v_f")


@dataclass
class FitResult:
    """Identified parameters plus the optimization record."""

    params: np.ndarray
    mode: str
    v_f: float | None
    loss_trace: list[float]
    iterations: int
    converged: bool
    reason: str
    metrics: Metrics
    n_operators: int = 30

    def param_dict(self) -> dict:
        return dict(zip(param_names(self.mode), (float(x) for x in self.params)))

    def model(self):
        return build_model(self.params, self.mode, self.v_f, self.n_operators)


def default_initial_guess(traj: Trajectory, v_f=None, mode: str = "egpi") -> np.ndarray:
    """Data-driven starting point for the optimizer.

    Envelope slopes and intercepts come from least squares on coarse data
    segments: the upper half of the ascending sweep for the shared
    ascending envelope, and the descending sweep (split at the flag point
    in egpi mode) for the descending envelopes. Density defaults are
    lam=0.07, sigma=0.1 with thresholds spanning 1%..25% of the input
    range, and the regulator starts at 1.
    """
    if traj.theta is None:
        raise InputError("initial guess needs measured angles")
    names = param_names(mode)
    dv = np.diff(traj.v)
    asc_idx = np.nonzero(np.concatenate(([False], dv > 0)))[0]
    desc_idx = np.nonzero(np.concatenate(([False], dv < 0)))[0]
    if asc_idx.size < 3:
        raise InitializationError("too few ascending samples for a regression")
    if desc_idx.size < 3:
        raise InitializationError("too few descending samples for a regression")

    def ols(idx, label):
        if idx.size < 3:
            raise InitializationError(f"too few samples for the {label} regression")
        slope, intercept = np.polyfit(traj.v[idx], traj.theta[idx], 1)
        return max(float(slope), _FLOOR), float(intercept)

    va = traj.v[asc_idx]
    upper = asc_idx[va >= 0.5 * (va.min() + va.max())]
    a1, a2 = ols(upper, "ascending")

    vrange = float(np.ptp(traj.v))
    tail = [0.07, 0.1, 0.01 * vrange, 0.25 * vrange]
    if mode == "gpi":
        a3, a4 = ols(desc_idx, "descending")
        guess = [a1, a2, a3, a4, *tail]
    else:
        if v_f is None:
            raise ConfigError("egpi mode requires a flag point v_f")
        check_number(v_f, "flag point v_f")
        a3, a4 = ols(desc_idx[traj.v[desc_idx] > v_f], "upper descending")
        a5, a6 = ols(desc_idx[traj.v[desc_idx] <= v_f], "lower descending")
        guess = [a1, a2, a3, a4, a5, a6, *tail, 1.0]
    assert len(guess) == len(names)
    return project_params(np.array(guess), mode)


def lm_fit(traj: Trajectory, config: FitConfig | None = None, mode: str = "egpi") -> FitResult:
    """Geodesic-accelerated Levenberg-Marquardt over the parameter vector.

    Each iteration takes J from one tangent pass (as ``jacobian``); e
    comes from the residuals (as ``residuals``), before the loop and then
    from the accepted trial, both from one ``_fit_pair``: the input is
    validated and planned once per fit. A trial solves
    (J'J + mu*D) delta = -J'e with D = diag(J'J), probes the residuals at
    p + h*delta (h = 0.1) for the second directional derivative
    r'' = (2/h)*((e_h - e)/h - J*delta), and solves the same system for
    the acceleration a with J'r'' on the right. It is rejected unevaluated
    when 2*|D^1/2 a| > 0.75*|D^1/2 delta|; otherwise the candidate
    p + delta + a/2 is evaluated and accepted only if the objective
    strictly decreases. So a trial costs one probe and at most one candidate
    evaluation. mu is divided by 3 on acceptance and multiplied by 2 on
    rejection (Transtrum & Sethna 2012); every point is projected onto the
    bounds. Stops on relative loss change, gradient norm, max_iterations,
    or as ``stalled`` once mu passes 1e12. A step is taken only if it
    lowers the loss, so the last parameters are the best seen. Only those
    are checked for empty play bands (a ``RuntimeWarning``), not the trials.
    """
    config = config or FitConfig()
    if traj.theta is None:
        raise InputError("fit needs a trajectory with measured angles")
    if float(np.ptp(traj.v)) == 0.0:
        raise InputError("input signal is constant; nothing to identify")
    names = param_names(mode)
    if len(traj) < 2 * len(names):
        raise InputError(
            f"need at least {2 * len(names)} samples to fit {len(names)} parameters"
        )
    v_f = config.v_f
    n = config.n_operators
    if config.initial is not None:
        p = validate_params(config.initial, mode)
    else:
        p = default_initial_guess(traj, v_f, mode)

    fit_residuals, fit_jacobian, warn_empty = _fit_pair(traj, p, v_f, mode, n)
    e = fit_residuals(p)
    loss = float(e @ e)
    trace = [loss]
    mu = config.mu0
    converged = False
    reason = "max_iterations"
    iterations = 0

    for iterations in range(1, config.max_iterations + 1):
        J = fit_jacobian(p)
        Jte = J.T @ e
        if float(np.max(np.abs(2.0 * Jte))) < config.grad_tol:
            converged = True
            reason = "grad_tol"
            break
        JtJ = J.T @ J
        diag = np.diag(JtJ).copy()
        diag[diag <= 0] = 1e-12  # keep damping effective for dead columns
        stop = None
        while True:
            A = JtJ + mu * np.diag(diag)
            try:
                delta = np.linalg.solve(A, -Jte)
            except np.linalg.LinAlgError:
                delta = None
            if delta is None or not np.all(np.isfinite(delta)):
                mu *= _MU_UP
                if mu > _MU_MAX:
                    err = NumericalError(
                        f"damped normal equations remained singular past mu={_MU_MAX:g}"
                    )
                    err.loss_trace = trace
                    raise err
                continue
            e_h = fit_residuals(project_params(p + _GEO_H * delta, mode))
            r2 = (2.0 / _GEO_H) * ((e_h - e) / _GEO_H - J @ delta)
            accel = np.linalg.solve(A, -(J.T @ r2))
            if np.all(np.isfinite(accel)) and (
                2.0 * np.sqrt(diag @ accel**2) <= _GEO_ALPHA * np.sqrt(diag @ delta**2)
            ):
                cand = project_params(p + delta + 0.5 * accel, mode)
                e_new = fit_residuals(cand)
                loss_new = float(e_new @ e_new)
                if loss_new < loss:
                    drop = (loss - loss_new) / loss
                    p, e, loss = cand, e_new, loss_new
                    trace.append(loss)
                    mu = max(mu / _MU_DOWN, 1e-15)
                    if drop < config.loss_tol:
                        stop = ("loss_tol", True)
                    break
            mu *= _MU_UP
            if mu > _MU_MAX:
                stop = ("stalled", False)
                break
        if stop is not None:
            reason, converged = stop
            break

    warn_empty(p)
    return FitResult(
        params=p,
        mode=mode,
        v_f=v_f,
        loss_trace=trace,
        iterations=iterations,
        converged=converged,
        reason=reason,
        metrics=compute_metrics(traj.theta, e + traj.theta),
        n_operators=n,
    )
