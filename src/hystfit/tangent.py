"""Exact forward-mode tangent pass of a fresh model evaluation.

The fit's Jacobian: the bank states come from ``operators._states``, the
same block evaluator as the forward pass, so the output written next to
the Jacobian equals ``predict`` bit for bit. Linear envelopes only.
"""

from __future__ import annotations

import numpy as np

from .envelopes import LinearEnvelope
from .errors import ConfigError
from .operators import EgpiModel, GpiModel, _contract, _directions, _init_bank, _reports_second, _states


def _bank_tangent(model: GpiModel, v: np.ndarray, slots: dict, z, J, rows):
    """Forward-mode pass of one fresh bank with linear envelopes.

    Writes the bank output and its exact derivatives into the rows of
    ``z`` and ``J`` selected by ``rows``. ``slots`` maps bank parameter
    names (``asc_slope``, ``asc_intercept``, ``desc_slope``,
    ``desc_intercept``, ``lam``, ``sigma``, ``r1``, ``rn``, ``kappa_desc``)
    to columns of ``J``; unnamed parameters are held fixed.

    Along ``_states`` a state that moved off its entering value sits on
    the branch target of that sample, and stays there until it moves
    again. So a state takes the target's tangent at the last sample where
    it moved, or, if it has not moved in this block, the tangent it
    entered the block with (at first that of the initial state).
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

    d = _directions(v)
    pcol = p[:, None]
    for i, j, S, E in _states(model, v, d, w):
        sel = rows[i:j]  # samples this bank reports; a hold's one row stands for all
        report = sel.any()
        if E.shape[1] == 1:
            # inside one run a state that moved sits on its own sample's target
            dT, a = (dasc, a_asc) if d[i] > 0 else (ddesc, a_desc)
            moved = (S != E).astype(float)
            if report:
                Jb = moved.T @ (pcol * (dT - dw)) + S.T @ dp + p @ dw
                Jb += (v[i : i + S.shape[1]] * (p @ moved))[:, None] * a
            dw = np.where(moved[:, -1:] > 0, v[j - 1] * a + dT, dw)
        else:
            # the last sample each state moved at in this block; sample 0,
            # which never moves (d[0] == 0), stands for none
            last = np.maximum.accumulate(np.where(S != E, np.arange(i, j), 0), axis=1)
            ds, vs = d[last], v[last]
            if report:
                pa, pd = pcol * (ds > 0), pcol * (ds < 0)
                Jb = (pcol * (ds == 0)).T @ dw + pa.T @ dasc + pd.T @ ddesc + S.T @ dp
                Jb += (pa * vs).sum(axis=0)[:, None] * a_asc
                Jb += (pd * vs).sum(axis=0)[:, None] * a_desc
            s, x = ds[:, -1:], vs[:, -1:]
            dw = np.where(s > 0, x * a_asc + dasc, np.where(s < 0, x * a_desc + ddesc, dw))
        if sel.all():  # a plain copy is several times faster than a masked one
            z[i:j], J[i:j] = _contract(p, S), Jb
        elif report:
            np.copyto(z[i:j], _contract(p, S), where=sel)
            np.copyto(J[i:j], Jb, where=sel[:, None])


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
