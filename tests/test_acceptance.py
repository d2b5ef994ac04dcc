"""Acceptance suite: one criterion per test, one PASS/FAIL line printed each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The
identification runs (AC-3/AC-4) fit through the CLI and are shared via
session fixtures; expect a few minutes of wall time.
"""

import json
import time
import warnings

import numpy as np
import pytest

import bruteforce
import property_checks
from fixtures import (
    SWEEP_FLAG,
    oracle_kwargs,
    random_density,
    random_envelope,
    random_input,
    recovery_dataset,
    sweep_input,
)

from hystfit import (
    EgpiModel,
    GpiModel,
    egpi_eval,
    gpi_eval,
    jacobian_fd,
    param_names,
    predict,
    residuals,
)
from hystfit.cli import main
from hystfit.fileio import load_model, save_dataset

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _verdict(name, ok, detail):
    print(f"\n{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _read_sim(path):
    rows = np.genfromtxt(path, delimiter=",", names=True)
    return {name: rows[name] for name in rows.dtype.names}


# --------------------------------------------------------------------- AC-1

@pytest.fixture(scope="session")
def reference_sim(tmp_path_factory):
    out = tmp_path_factory.mktemp("ac1") / "reference.csv"
    t0 = time.perf_counter()
    code = main(["simulate", "--reference", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    return _read_sim(out), elapsed, out


def _flat_episodes(t, v, z, t_lo, t_hi, z_tol=1e-6, v_tol=1e-4):
    """Maximal runs with |dz| < z_tol while |dv| > v_tol inside [t_lo, t_hi)."""
    flat = (np.abs(np.diff(z)) < z_tol) & (np.abs(np.diff(v)) > v_tol)
    episodes, i = [], 0
    while i < flat.size:
        if flat[i] and t_lo <= t[i] and t[i + 1] < t_hi:
            j = i
            while j < flat.size and flat[j] and t[j + 1] < t_hi:
                j += 1
            episodes.append((v[i], v[j], "asc" if v[j] > v[i] else "desc", j - i))
            i = j
        else:
            i += 1
    return episodes


def test_ac1a_dead_zone_structure(reference_sim):
    """Four dead zones in the first full cycle, two per branch.

    The thresholds are deliberately strict (|dz| < 1e-6 per sample while
    |dv| > 1e-4, over the first full input period). The configuration's
    strictly flat episodes all lie on the descending branch: at the input
    troughs the first bank's envelope pair is crossed and its small-
    threshold operators resume immediately, and the second bank's zero-
    threshold operator resumes before the ascending flag is reached, so
    the ascending stages crawl (see test_operators) instead of holding
    exactly. The check is left faithful rather than loosened; the
    stagewise structure that does hold is asserted in test_operators.
    """
    sim, _, _ = reference_sim
    eps = _flat_episodes(sim["t"], sim["v"], sim["z"], 0.0, 1.0)
    n_asc = sum(1 for e in eps if e[2] == "asc")
    n_desc = sum(1 for e in eps if e[2] == "desc")
    ok = len(eps) == 4 and n_asc == 2 and n_desc == 2
    _verdict(
        "AC-1a",
        ok,
        f"expected 4 episodes (2 asc + 2 desc); found {len(eps)} "
        f"({n_asc} asc + {n_desc} desc)",
    )
    assert ok, (
        f"first-cycle dead-zone episodes: {eps}; strictly flat episodes occur "
        "only on the descending branch for this configuration"
    )


def test_ac1b_switch_samples(reference_sim):
    """Active-bank transitions at exactly the first samples past the flags."""
    sim, _, _ = reference_sim
    v = sim["v"]
    expected = []
    for i in range(v.size):
        rising = i > 0 and v[i] > v[i - 1]
        use2 = (v[i] >= 1.5) if rising else (v[i] <= -0.3)
        expected.append(2 if use2 else 1)
    ok = np.array_equal(sim["active"].astype(int), np.array(expected))
    _verdict("AC-1b", ok, "active-bank selection matches the flag rule at every sample")
    assert ok


def test_ac1_runtime(reference_sim):
    _, elapsed, _ = reference_sim
    ok = elapsed < 1.0
    _verdict("AC-1 runtime", ok, f"10001 samples x 31 operators x 2 banks in {elapsed:.3f} s")
    assert ok


# --------------------------------------------------------------------- AC-2

def test_ac2_oracle_equivalence():
    """Vectorized evaluation matches the literal recursion to 1e-12."""
    worst = 0.0
    for case in range(100):
        rng = np.random.default_rng(90_000 + case)
        t, v = random_input(rng)
        density = random_density(rng)
        banks = []
        for _ in range(2):
            banks.append(
                GpiModel(
                    density=density,
                    asc_env=random_envelope(rng),
                    desc_env=random_envelope(rng, shift=2.0),
                    kappa_asc=float(rng.uniform(0.5, 8.0)),
                    kappa_desc=float(rng.uniform(0.5, 8.0)),
                )
            )
        lo, hi = float(np.min(v)), float(np.max(v))
        if case % 2 == 0:
            model = EgpiModel(
                submodels=banks,
                flag_asc=float(rng.uniform(lo, hi)),
                flag_desc=float(rng.uniform(lo, hi)),
            )
            mode, fa, fd = "two_flag", model.flag_asc, model.flag_desc
        else:
            model = EgpiModel(
                submodels=banks,
                flag_desc=float(rng.uniform(lo, hi)),
            )
            mode, fa, fd = "descend_flag", None, model.flag_desc
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            z, active = egpi_eval(model, t, v)
            zb, ab = bruteforce.run_egpi(
                [float(x) for x in v],
                oracle_kwargs(banks[0]),
                oracle_kwargs(banks[1]),
                mode,
                flag_asc=fa,
                flag_desc=fd,
            )
            y = gpi_eval(
                GpiModel(
                    density=density,
                    asc_env=banks[0].asc_env,
                    desc_env=banks[0].desc_env,
                    kappa_asc=banks[0].kappa_asc,
                    kappa_desc=banks[0].kappa_desc,
                ),
                t,
                v,
            )
            yb = bruteforce.run_gpi([float(x) for x in v], **oracle_kwargs(banks[0]))
        assert np.array_equal(active, np.array(ab)), f"case {case}: selection differs"
        worst = max(worst, float(np.max(np.abs(z - np.array(zb)))))
        worst = max(worst, float(np.max(np.abs(y - np.array(yb)))))
    ok = worst < 1e-12
    _verdict("AC-2", ok, f"100 random trajectories, worst |model - oracle| = {worst:.2e}")
    assert ok


# --------------------------------------------------------------------- AC-3

@pytest.fixture(scope="session")
def recovery_fits(tmp_path_factory):
    """Ten CLI fits of the recovery benchmark, one per seed."""
    root = tmp_path_factory.mktemp("ac3")
    base = sweep_input()
    runs = []
    for seed in range(10):
        noisy, clean, params = recovery_dataset(seed)
        data_path = root / f"seed{seed}.csv"
        save_dataset(data_path, noisy)
        prefix = root / f"seed{seed}"
        t0 = time.perf_counter()
        code = main(
            ["fit", "--data", str(data_path), "--mode", "egpi",
             "--flag-point", str(SWEEP_FLAG), "--out-prefix", str(prefix)]
        )
        elapsed = time.perf_counter() - t0
        assert code == 0
        fitted = load_model(prefix.with_suffix(".model.json"))
        pred = predict(fitted, base.t, base.v)
        rmse_clean = float(np.sqrt(np.mean((pred - clean) ** 2)))
        runs.append(
            {
                "seed": seed,
                "rmse_clean": rmse_clean,
                "seconds": elapsed,
                "data": data_path,
                "prefix": prefix,
            }
        )
    return runs


def test_ac3_identification_recovery(recovery_fits):
    """Fitted output within 0.2 deg of the clean signal on >= 9 of 10 seeds."""
    good = sum(1 for r in recovery_fits if r["rmse_clean"] < 0.2)
    slowest = max(r["seconds"] for r in recovery_fits)
    worst = max(r["rmse_clean"] for r in recovery_fits)
    ok = good >= 9 and all(r["seconds"] < 60.0 for r in recovery_fits)
    _verdict(
        "AC-3",
        ok,
        f"{good}/10 seeds under 0.2 deg (worst {worst:.4f}), slowest fit {slowest:.1f} s",
    )
    assert ok, [dict(seed=r["seed"], rmse=r["rmse_clean"], s=r["seconds"]) for r in recovery_fits]


# --------------------------------------------------------------------- AC-4

def test_ac4_two_stage_model_beats_single_stage(recovery_fits, tmp_path):
    """Both models fit the same data; the switched model wins by >= 2x RMSE."""
    seed0 = recovery_fits[0]
    egpi = json.loads(seed0["prefix"].with_suffix(".result.json").read_text())["metrics"]
    prefix = tmp_path / "seed0_gpi"
    code = main(
        ["fit", "--data", str(seed0["data"]), "--mode", "gpi",
         "--out-prefix", str(prefix)]
    )
    assert code == 0
    gpi = json.loads(prefix.with_suffix(".result.json").read_text())["metrics"]
    strict = (
        egpi["rmse"] < gpi["rmse"]
        and egpi["nrmse"] < gpi["nrmse"]
        and egpi["mae"] < gpi["mae"]
    )
    ratio = gpi["rmse"] / egpi["rmse"]
    ok = strict and ratio >= 2.0
    _verdict(
        "AC-4",
        ok,
        f"rmse {egpi['rmse']:.3f} vs {gpi['rmse']:.3f} deg (x{ratio:.1f}), "
        f"nrmse {egpi['nrmse']:.2f} vs {gpi['nrmse']:.2f} %, "
        f"mae {egpi['mae']:.3f} vs {gpi['mae']:.3f} deg",
    )
    assert ok


# --------------------------------------------------------------------- AC-5

def test_ac5_invariant_suites():
    """Seven property suites, 100 randomized cases each, zero failures."""
    for check in property_checks.ALL_CHECKS:
        check(cases=100)
    names = ", ".join(c.__name__.removeprefix("check_") for c in property_checks.ALL_CHECKS)
    _verdict("AC-5", True, f"7 suites x 100 cases: {names}")


# --------------------------------------------------------------------- AC-6

def test_ac6_jacobian_sanity():
    """Density-scale column matches the exact linear-scaling derivative."""
    noisy, _, params = recovery_dataset(0)
    names = list(param_names("egpi"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        J = jacobian_fd(params, noisy, SWEEP_FLAG, "egpi")
        model_out = residuals(params, noisy, SWEEP_FLAG, "egpi") + noisy.theta
        analytic = model_out / params[names.index("lam")]
        scale = float(np.max(np.abs(analytic)))
        lam_err = float(np.max(np.abs(J[:, names.index("lam")] - analytic))) / scale
        sig = names.index("sigma")
        errs = []
        for h in (1e-3, 5e-4):
            J_f = jacobian_fd(params, noisy, SWEEP_FLAG, "egpi", rel_step=h, scheme="forward")
            errs.append(float(np.max(np.abs(J_f[:, sig] - J[:, sig]))))
    halving = errs[1] <= 0.75 * errs[0] + 1e-12
    ok = lam_err <= 1e-8 and halving
    _verdict(
        "AC-6",
        ok,
        f"lam column error {lam_err:.2e} (<= 1e-8); forward-step error "
        f"{errs[0]:.2e} -> {errs[1]:.2e} under step halving",
    )
    assert ok


# --------------------------------------------------------------------- AC-7

def test_ac7_discretization_stability(reference_sim, tmp_path):
    """Halving dt moves the reference output by < 1e-3 sup-norm."""
    sim_coarse, _, _ = reference_sim
    out = tmp_path / "fine.csv"
    code = main(["simulate", "--reference", "--dt", "0.0005", "--out", str(out)])
    assert code == 0
    fine = _read_sim(out)
    assert np.allclose(fine["t"][::2], sim_coarse["t"], atol=1e-12)
    sup = float(np.max(np.abs(fine["z"][::2] - sim_coarse["z"])))
    ok = sup < 1e-3
    _verdict("AC-7", ok, f"sup |z(dt=0.0005) - z(dt=0.001)| = {sup:.2e}")
    assert ok
