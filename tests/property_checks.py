"""Randomized invariant checks shared by the unit and acceptance suites.

Each check runs ``cases`` seeded scenarios and raises AssertionError on
the first violation.
"""

import warnings

import numpy as np

from hystfit import (
    EgpiModel,
    FitConfig,
    GpiModel,
    Trajectory,
    compute_metrics,
    egpi_eval,
    gpi_eval,
    lm_fit,
)

from fixtures import random_envelope, random_gpi, random_input

_QUIET = warnings.catch_warnings


def _ordered_pair(rng, v_lo, v_hi):
    """Envelope pair with asc below desc over [v_lo, v_hi].

    Containment is guaranteed only for ordered pairs: a crossed pair can
    leave a state initialized in an empty band outside later bands.
    """
    from hystfit import LinearEnvelope, TanhEnvelope

    asc = random_envelope(rng)
    desc = random_envelope(rng)
    grid = np.linspace(v_lo, v_hi, 200)
    gap = float(np.max(asc(grid) - desc(grid)))
    if gap > -0.05:
        lift = gap + 0.1
        if isinstance(desc, LinearEnvelope):
            desc = LinearEnvelope(a=desc.a, b=desc.b + lift)
        else:
            desc = TanhEnvelope(c=desc.c, d=desc.d, e=desc.e, f=desc.f + lift)
    return asc, desc


def check_band_containment(cases=100):
    """States stay inside [asc-ka*r, desc+kd*r] wherever that band is nonempty.

    Each case streams its input one sample per call, so the bank states
    are checked after every sample.
    """
    from hystfit import DensitySpec

    for case in range(cases):
        rng = np.random.default_rng(10_000 + case)
        t, v = random_input(rng)
        asc_env, desc_env = _ordered_pair(rng, float(np.min(v)), float(np.max(v)))
        r = float(rng.uniform(0.0, 3.0))
        model = GpiModel(
            density=DensitySpec(lam=1.0, sigma=0.0, r1=r, rn=r, n=1),
            asc_env=asc_env,
            desc_env=desc_env,
            kappa_asc=float(rng.uniform(0.5, 8.0)),
            kappa_desc=float(rng.uniform(0.5, 8.0)),
        )
        rr = model.density.thresholds()
        with _QUIET():
            warnings.simplefilter("ignore")
            for i in range(v.size):
                gpi_eval(model, t[i : i + 1], v[i : i + 1], reset=(i == 0))
                lo = asc_env(v[i]) - model.kappa_asc * rr
                hi = desc_env(v[i]) + model.kappa_desc * rr
                ok = lo <= hi
                states = model.memory.states[0]
                inside = (lo - 1e-9 <= states) & (states <= hi + 1e-9)
                assert np.all(inside[ok]), (
                    f"case {case}: states {states} outside [{lo}, {hi}] at v={v[i]}"
                )


def check_rate_independence(cases=100):
    """Retimestamping the same input values leaves outputs unchanged."""
    for case in range(cases):
        rng = np.random.default_rng(20_000 + case)
        model_a, model_b = random_gpi(rng), None
        model_b = GpiModel(
            density=model_a.density,
            asc_env=model_a.asc_env,
            desc_env=model_a.desc_env,
            kappa_asc=model_a.kappa_asc,
            kappa_desc=model_a.kappa_desc,
        )
        t, v = random_input(rng)
        t2 = np.cumsum(rng.uniform(0.01, 2.0, v.size))
        with _QUIET():
            warnings.simplefilter("ignore")
            ya = gpi_eval(model_a, t, v)
            yb = gpi_eval(model_b, t2, v)
        assert np.array_equal(ya, yb), f"case {case}: retimestamping changed output"


def check_monotone_segments(cases=100):
    """On a strictly increasing input segment the bank output is nondecreasing."""
    for case in range(cases):
        rng = np.random.default_rng(30_000 + case)
        model = random_gpi(rng)
        _, prefix = random_input(rng, max_segments=3)
        ramp = np.linspace(prefix[-1], prefix[-1] + rng.uniform(1.0, 8.0), 50)
        v = np.concatenate([prefix, ramp[1:]])
        t = 0.01 * np.arange(v.size)
        with _QUIET():
            warnings.simplefilter("ignore")
            y = gpi_eval(model, t, v)
        tail = y[prefix.size - 1 :]
        scale = max(1.0, float(np.max(np.abs(tail))))
        assert np.all(np.diff(tail) >= -1e-12 * scale), (
            f"case {case}: output decreased on an increasing segment"
        )


def check_weight_linearity(cases=100):
    """Scaling the density scale lam scales the output by the same factor."""
    from hystfit import DensitySpec

    for case in range(cases):
        rng = np.random.default_rng(40_000 + case)
        model = random_gpi(rng)
        alpha = float(rng.uniform(0.1, 10.0))
        d = model.density
        scaled = GpiModel(
            density=DensitySpec(lam=alpha * d.lam, sigma=d.sigma, r1=d.r1, rn=d.rn, n=d.n),
            asc_env=model.asc_env,
            desc_env=model.desc_env,
            kappa_asc=model.kappa_asc,
            kappa_desc=model.kappa_desc,
        )
        t, v = random_input(rng)
        with _QUIET():
            warnings.simplefilter("ignore")
            y = gpi_eval(model, t, v)
            y_scaled = gpi_eval(scaled, t, v)
        tol = 1e-12 * max(1.0, float(np.max(np.abs(y_scaled))))
        assert np.max(np.abs(y_scaled - alpha * y)) <= tol, (
            f"case {case}: output is not linear in lam"
        )


def check_egpi_degeneracy(cases=100):
    """Identical submodels make the switched output equal the single bank."""
    for case in range(cases):
        rng = np.random.default_rng(50_000 + case)
        proto = random_gpi(rng)

        def clone():
            return GpiModel(
                density=proto.density,
                asc_env=proto.asc_env,
                desc_env=proto.desc_env,
                kappa_asc=proto.kappa_asc,
                kappa_desc=proto.kappa_desc,
            )

        t, v = random_input(rng)
        lo, hi = float(np.min(v)), float(np.max(v))
        if rng.random() < 0.5:
            model = EgpiModel(
                submodels=[clone(), clone()],
                flag_asc=float(rng.uniform(lo, hi)),
                flag_desc=float(rng.uniform(lo, hi)),
            )
        else:
            model = EgpiModel(
                submodels=[clone(), clone()],
                flag_desc=float(rng.uniform(lo, hi)),
            )
        with _QUIET():
            warnings.simplefilter("ignore")
            z, _ = egpi_eval(model, t, v)
            y = gpi_eval(clone(), t, v)
        assert np.array_equal(z, y), f"case {case}: switching between equal banks visible"


def check_metric_inequality(cases=100):
    """Maximum absolute error dominates the quadratic mean."""
    for case in range(cases):
        rng = np.random.default_rng(60_000 + case)
        n = int(rng.integers(1, 300))
        measured = rng.normal(0.0, 10.0, n)
        predicted = measured + rng.normal(0.0, rng.uniform(0.01, 5.0), n)
        with _QUIET():
            warnings.simplefilter("ignore")
            m = compute_metrics(measured, predicted)
        assert m.mae >= m.rmse - 1e-15, f"case {case}: mae {m.mae} < rmse {m.rmse}"


def check_loss_monotonicity(cases=100):
    """Accepted-step objective values never increase during a fit."""
    up = np.linspace(0.0, 6.0, 40, endpoint=False)
    down = np.linspace(6.0, 0.0, 41)
    v = np.concatenate([up, down])
    t = 0.05 * np.arange(v.size)
    for case in range(cases):
        rng = np.random.default_rng(70_000 + case)
        truth = np.array(
            [
                rng.uniform(1.0, 4.0),
                rng.uniform(-1.0, 1.0),
                rng.uniform(1.0, 4.0),
                rng.uniform(2.0, 6.0),
                rng.uniform(0.05, 0.5),
                rng.uniform(0.0, 0.5),
                rng.uniform(0.05, 0.3),
                rng.uniform(0.5, 2.0),
            ]
        )
        from hystfit import build_model, gen_synthetic, project_params

        with _QUIET():
            warnings.simplefilter("ignore")
            data = gen_synthetic(
                build_model(truth, "gpi"), Trajectory(t=t, v=v),
                noise_std=0.05, seed=case,
            )
            start = project_params(truth * rng.uniform(0.6, 1.4, truth.size), "gpi")
            result = lm_fit(
                data,
                FitConfig(max_iterations=8, n_operators=12, initial=start),
                mode="gpi",
            )
        trace = np.asarray(result.loss_trace)
        assert np.all(np.diff(trace) <= 0.0), f"case {case}: loss trace increased"


ALL_CHECKS = (
    check_band_containment,
    check_rate_independence,
    check_monotone_segments,
    check_weight_linearity,
    check_egpi_degeneracy,
    check_metric_inequality,
    check_loss_monotonicity,
)
