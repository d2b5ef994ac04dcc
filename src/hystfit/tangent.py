"""Exact forward-mode tangent pass of a fresh model evaluation.

The fit's Jacobian, along the forward pass's walk (``operators._states``),
whose entries each begin a run (``operators._blocks``): along a long run,
one entry, the operators move in the order of its closed form
(``operators._sweep``). So the Jacobian is taken at exactly the states
``predict`` reports. Linear envelopes only.
"""

from __future__ import annotations

import numpy as np

from .envelopes import LinearEnvelope
from .errors import ConfigError
from .operators import GpiModel, _banks, _check, _init_bank, _states, _sweep


def _bank_tangent(model: GpiModel, v, d, walk, slots: dict, P: int):
    """Forward-mode pass of one fresh bank with linear envelopes: the bank's
    Jacobian ``J``, one row per sample and ``P`` columns.

    ``d`` and ``walk`` are the directions of ``v`` and the bank's walk (see
    ``operators._plan``). ``slots`` maps bank parameter names
    (``asc_slope``, ``asc_intercept``, ``desc_slope``, ``desc_intercept``,
    ``lam``, ``sigma``, ``r1``, ``rn``, ``kappa_desc``) to columns of
    ``J``; unnamed parameters are held fixed.

    Along ``_states`` a state that moved off its entering value sits on
    the branch target of that sample, and stays there until it moves
    again. So a state takes the target's tangent at the last sample where
    it moved, or, if it has not moved in this entry, the tangent it
    entered the entry with (at first that of the initial state).

    Along a run the operators move in the order of ``operators._sweep``,
    the one the forward pass reads. So a sample's row is the row at the
    run's entering states plus prefix sums over that order, gathered at
    the count ``m`` of operators that have moved: O(samples x P) per run.
    A target equal to a state's ``c`` leaves it unmoved, so a tie takes
    the derivative from the side where it does not move.

    A block of several runs is computed whole (BLAS bits depend on the
    matrix shape), and a hold's one row fills its span. Over a crossed
    stretch a state that moved takes the last target's tangent, and its
    rows, which no caller reads, are left unset.
    """

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

    J = np.empty((v.size, P))
    pcol = p[:, None]
    for i, j, S, E, T in _states(model, v, d, walk, w):
        if E.shape[1] == 1:
            rising = d[i] > 0
            env, dT, a = (model.asc_env, dasc, a_asc) if rising else (model.desc_env, ddesc, a_desc)
            if T is None:
                J[i:j] = p @ dw + E.T @ dp
            elif T.size:
                # a state that has moved adds p*(v*a + dT - dw) + (T - c)*dp
                # to its row, where T = env.a*v + env.b: X + v*Y, summed in
                # the order in which the states move
                c, order, m = _sweep(model, E[:, 0], T, rising)
                X, Y = np.zeros((2, r.size + 1, P))
                np.add.accumulate((pcol * (dT - dw) + (env.b - c)[:, None] * dp)[order], out=X[1:])
                np.add.accumulate((pcol * a + env.a * dp)[order], out=Y[1:])
                X += p @ dw + E.T @ dp
                # m never exceeds the operator count; "clip" skips a buffer
                np.take(X, m, axis=0, out=J[i:j], mode="clip")
                Ym = np.take(Y, m, axis=0, mode="clip")
                Ym *= v[i:j, None]
                J[i:j] += Ym
            if d[i]:
                dw = np.where(S != E, v[j - 1] * a + dT, dw)
        else:
            # the last sample each state moved at in this block; sample 0,
            # which never moves (d[0] == 0), stands for none
            last = np.maximum.accumulate(np.where(S != E, np.arange(i, j), 0), axis=1)
            ds, vs = d[last], v[last]
            pa, pd = pcol * (ds > 0), pcol * (ds < 0)
            Jb = (pcol * (ds == 0)).T @ dw + pa.T @ dasc + pd.T @ ddesc + S.T @ dp
            Jb += (pa * vs).sum(axis=0)[:, None] * a_asc
            Jb += (pd * vs).sum(axis=0)[:, None] * a_desc
            s, x = ds[:, -1:], vs[:, -1:]
            dw = np.where(s > 0, x * a_asc + dasc, np.where(s < 0, x * a_desc + ddesc, dw))
            J[i:j] = Jb
    return J


def model_jacobian(model, plan, slots):
    """Exact parameter Jacobian of the output of a fresh evaluation.

    One forward-mode tangent pass over either model kind with linear
    envelopes, over the input of ``plan``: a fresh plan
    (``operators._plan``) made for the model's structure, else
    ConfigError. ``slots`` holds one dict per bank mapping that bank's
    parameter names to Jacobian columns (see ``_bank_tangent``); banks may
    share columns. Each bank's pass walks its walk of the plan, as the
    forward pass does; each sample's row is then picked from the bank that
    ``predict(model, t, v)`` reports there, as outputs are.
    """
    banks = _banks(model)
    if not all(isinstance(env, LinearEnvelope) for b in banks for env in (b.asc_env, b.desc_env)):
        raise ConfigError("the exact Jacobian needs linear envelopes")
    _check(model, plan)
    P = 1 + max(max(s.values()) for s in slots)
    Js = [_bank_tangent(bank, plan.v, plan.d, walk, bank_slots, P)
          for bank, walk, bank_slots in zip(banks, plan.walks, slots)]
    # a fresh array, also for a lone bank: returning a bank's own J, which is
    # allocated before the pass's temporaries, gave fits 3 to 6 times the
    # page faults and about 6% more CPU time (Linux, glibc malloc)
    return np.where(plan.use2[:, None], Js[-1], Js[0])
