"""Exact forward-mode tangent pass of a fresh model evaluation.

The fit's Jacobian: the bank states come from ``operators._states``, the
same block walk as the forward pass, so the Jacobian is taken at exactly
the states ``predict`` reports. Linear envelopes only.
"""

from __future__ import annotations

import numpy as np

from .envelopes import LinearEnvelope
from .errors import ConfigError
from .operators import GpiModel, _banks, _init_bank, _plan, _states


def _bank_tangent(model: GpiModel, v, d, edges, slots: dict, J, rows=None):
    """Forward-mode pass of one fresh bank with linear envelopes.

    ``d`` and ``edges`` are the directions and run edges of ``v`` (see
    ``operators._states``). Writes the exact derivatives of the bank output
    into the rows of ``J`` selected by the mask ``rows``, or into every row
    without one. ``slots`` maps bank parameter
    names (``asc_slope``, ``asc_intercept``, ``desc_slope``,
    ``desc_intercept``, ``lam``, ``sigma``, ``r1``, ``rn``, ``kappa_desc``)
    to columns of ``J``; unnamed parameters are held fixed.

    Along ``_states`` a state that moved off its entering value sits on
    the branch target of that sample, and stays there until it moves
    again. So a state takes the target's tangent at the last sample where
    it moved, or, if it has not moved in this block, the tangent it
    entered the block with (at first that of the initial state).

    ``rows`` is the ``need`` of ``_states``, so this pass reads the blocks
    the forward pass reads. A block is computed whole (BLAS bits depend on
    the matrix shape) or, within one run and with no selected row, crossed:
    a state that moved over the crossing takes the last target's tangent.
    That is the block-by-block result whenever the target changes between
    block ends.
    """
    P = J.shape[1]

    def unit(name):
        u = np.zeros(P)
        if name in slots:
            u[slots[name]] = 1.0
        return u

    density = model.density
    r = density.thresholds()
    p = density.weights()
    frac = np.arange(density.n) / (density.n - 1) if density.n > 1 else np.zeros(1)
    dr = np.zeros((r.size, P))
    dr[1:] = np.outer(1.0 - frac, unit("r1")) + np.outer(frac, unit("rn"))
    dp = p[:, None] * (unit("lam") / density.lam - np.outer(r, unit("sigma")) - density.sigma * dr)
    # tangents of the branch targets, less the envelope slope term v*a
    dasc = unit("asc_intercept") - model.kappa_asc * dr
    ddesc = unit("desc_intercept") + model.kappa_desc * dr + np.outer(r, unit("kappa_desc"))
    a_asc, a_desc = unit("asc_slope"), unit("desc_slope")

    # clamped initial state: the tangent of whichever bound is active. As
    # w = clip(0, lo, hi), a state above 0 sits on lo and one below 0 on hi.
    v0 = float(v[0])
    w = _init_bank(model, v0)
    dw = np.zeros((r.size, P))
    low, high = w > 0.0, w < 0.0
    dw[low] = (v0 * a_asc + dasc)[low]
    dw[high] = (v0 * a_desc + ddesc)[high]

    pcol = p[:, None]
    for i, j, S, E in _states(model, v, d, edges, w, rows):
        sel = None if rows is None else rows[i:j]  # a hold's one row stands for all
        report = sel is None or sel.any()
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
        if sel is None or sel.all():  # a plain copy is several times faster than a masked one
            J[i:j] = Jb
        elif report:
            np.copyto(J[i:j], Jb, where=sel[:, None])


def model_jacobian(model, v, slots):
    """Exact parameter Jacobian of the output of a fresh evaluation.

    One forward-mode tangent pass over either model kind with linear
    envelopes. ``slots`` holds one dict per bank mapping that bank's
    parameter names to Jacobian columns (see ``_bank_tangent``); banks may
    share columns. Each sample's row is the derivative of the bank that
    ``predict(model, t, v)`` reports there.
    """
    v = np.asarray(v, dtype=float)
    banks = _banks(model)
    if not all(isinstance(env, LinearEnvelope) for b in banks for env in (b.asc_env, b.desc_env)):
        raise ConfigError("the exact Jacobian needs linear envelopes")
    J = np.empty((v.size, 1 + max(max(s.values()) for s in slots)))
    d, edges, _, rows = _plan(model, v)
    for bank, bank_slots, bank_rows in zip(banks, slots, rows):
        _bank_tangent(bank, v, d, edges, bank_slots, J, bank_rows)
    return J
