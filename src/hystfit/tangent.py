"""Exact forward-mode tangent pass of a fit's fresh evaluation.

The fit's Jacobian along the forward pass's one walk over the rows of all
banks (``operators._states``), whose entries each begin a run: along a
long run, one entry, each bank's operators move in the order of its
closed form (``operators._sweep``). So the Jacobian is taken at exactly
the states ``predict`` reports, each sample's row from the bank reported
there. It serves the banks a fit lays out (``fitting._fit_pair``): linear
envelopes, ``kappa_asc`` 1 and one grid shared by every bank.
"""

from __future__ import annotations

import numpy as np

from .operators import _init_bank, _states, _sweep


def _tables(fields, units, r, p):
    """The tangent tables of banks that share the grid ``(r, p)``
    (``operators._grid``), a row per operator of each, bank after bank:
    ``dp`` of the weights, ``dasc`` and ``ddesc`` of the branch targets
    less the slope term v*a, then the slope columns and the envelopes'
    (a, b).

    ``fields`` holds a row per bank: asc_slope, asc_intercept, desc_slope,
    desc_intercept, lam, sigma, r1, rn and kappa_desc, the density the same
    in every row; ``units`` holds each field's column as a one-hot row,
    zero for a fixed field.
    """
    lam, sigma, n = fields[0, 4], fields[0, 5], r.size - 1
    u_lam, u_sigma, u_r1, u_rn = units[0, 4:8]
    frac = np.arange(n) / (n - 1) if n > 1 else np.zeros(1)
    dr = np.zeros((r.size, u_lam.size))
    dr[1:] = np.outer(1.0 - frac, u_r1) + np.outer(frac, u_rn)
    dp = p[:, None] * (u_lam / lam - np.outer(r, u_sigma) - sigma * dr)
    ones, tables = np.ones((r.size, 1)), []
    for f, (u_aa, u_ab, u_da, u_db, *_, u_kappa) in zip(fields, units):
        tables.append((dp, u_ab - dr, u_db + f[8] * dr + np.outer(r, u_kappa),
                       ones * u_aa, ones * u_da, ones * f[:2], ones * f[2:4]))
    return tuple(map(np.concatenate, zip(*tables)))


def _bank_tangent(stack, tables, plan, use2):
    """Forward-mode pass of a fit's banks (``operators._Stack``) over a
    fresh ``plan``: the Jacobian, one row per sample and a column per
    parameter, each row from the bank ``use2`` reports there (submodel 2
    where True). ``tables`` are the banks' tangent tables (``_tables``).

    Along ``_states`` a state that moved off its entering value sits on
    the branch target of that sample until it moves again. So a state
    takes the target's tangent at the last sample where it moved, or the
    tangent it entered the entry with (at first that of the initial state).

    Along a run the operators move in ``operators._sweep`` order, the one
    the forward pass reads, so a sample's row is the row at the run's
    entering states plus prefix sums over its bank's part of that order,
    gathered at the count ``m`` of operators that have moved: O(samples x
    parameters) per run. A target equal to a state's ``c`` leaves it
    unmoved, so a tie takes the derivative from the side where it does not
    move.

    A block of several runs is computed whole for each bank that reports
    one of its samples (BLAS bits depend on the matrix shape); a hold's
    one row fills its span.
    """
    dp, dasc, ddesc, a_asc, a_desc, asc, desc = tables
    branch = {True: (dasc, a_asc, *asc.T), False: (ddesc, a_desc, *desc.T)}

    # clamped initial state: the tangent of whichever bound is active. As
    # w = clip(0, lo, hi), a state above 0 sits on lo and one below 0 on hi.
    v, d = plan.v, plan.d
    v0, w = float(v[0]), _init_bank(stack, v[0])
    dw = np.where(w[:, None] > 0.0, v0 * a_asc + dasc,
                  np.where(w[:, None] < 0.0, v0 * a_desc + ddesc, 0.0))

    J = np.empty((v.size, dp.shape[1]))
    p = stack.p
    pcol = p[:, None]
    for i, j, S, E, T in _states(stack, v, d, plan.walk, w):
        if E.shape[1] == 1:
            rising = d[i] > 0
            dT, a, env_a, env_b = branch[rising]
            if T is not None:
                # a state that has moved adds p*(v*a + dT - dw) + (T - c)*dp
                # to its row, where T = env.a*v + env.b: X + v*Y, summed in
                # the order in which the states move
                c, order, key = _sweep(stack, E[:, 0], rising)
                Xo = (pcol * (dT - dw) + (env_b - c)[:, None] * dp)[order]
                Yo = (pcol * a + env_a[:, None] * dp)[order]
            # along a run the input is monotone, so bank 2 reports its last samples
            q = j - np.count_nonzero(use2[i:j])
            for b, ((a0, a1), (s, e)) in enumerate(zip(stack.slices, ((i, q), (q, j)))):
                if s == e:
                    continue
                J0 = p[a0:a1] @ dw[a0:a1] + E[a0:a1].T @ dp[a0:a1]  # the row at E
                if T is None:
                    J[s:e] = J0
                    continue
                Tb = T[b, s - i : e - i]
                m = key[a0:a1].searchsorted(Tb if rising else -Tb)
                X, Y = np.zeros((2, a1 - a0 + 1, J.shape[1]))
                np.add.accumulate(Xo[a0:a1], out=X[1:])
                np.add.accumulate(Yo[a0:a1], out=Y[1:])
                X += J0
                # m never exceeds the operator count; "clip" skips a buffer
                np.take(X, m, axis=0, out=J[s:e], mode="clip")
                Ym = np.take(Y, m, axis=0, mode="clip")
                Ym *= v[s:e, None]
                J[s:e] += Ym
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

