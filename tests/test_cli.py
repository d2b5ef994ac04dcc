import json
from types import SimpleNamespace

import numpy as np
import pytest

from fixtures import SWEEP_FLAG, recovery_params, refuse_huge_arange, sweep_input

from hystfit import (
    ConfigError,
    Trajectory,
    build_model,
    gen_synthetic,
    gpi_eval,
    param_names,
    predict,
    reference_model,
)
from hystfit import cli
from hystfit.cli import main
from hystfit.fileio import load_dataset, load_model, model_to_doc, save_dataset, save_model

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def small_data(tmp_path):
    """Small noisy dataset plus its generating model file."""
    base = sweep_input(n=1200)
    params = recovery_params(0)
    model = build_model(params, "egpi", SWEEP_FLAG)
    noisy = gen_synthetic(build_model(params, "egpi", SWEEP_FLAG), base, 0.1, seed=0)
    data_path = tmp_path / "data.csv"
    model_path = tmp_path / "model.json"
    save_dataset(data_path, noisy)
    save_model(model_path, model)
    return data_path, model_path, params


# ------------------------------------------------------------- path errors

@pytest.mark.parametrize("command", ["simulate", "evaluate", "fit-all"])
def test_path_errors_exit_2_with_one_line(tmp_path, small_data, capsys, command):
    # a path through a regular file, and an output directory that is one
    data_path, model_path, _ = small_data
    afile = tmp_path / "afile"
    afile.write_text("")
    argv = {"simulate": ("--reference", "--t-end", 1.0, "--out", afile / "x.csv"),
            "evaluate": ("--data", afile / "x.csv", "--params", model_path,
                         "--out", tmp_path / "o.csv"),
            "fit-all": ("--data", data_path, "--out-dir", afile)}[command]
    assert run(command, *argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(afile) in err[0]


@pytest.mark.parametrize("command", ["fit", "fit-all"])
@pytest.mark.parametrize("epoch", ["yesterday", "1e20", "99999999999999"])
def test_malformed_source_date_epoch_exits_2_before_the_fit(tmp_path, small_data, capsys,
                                                           monkeypatch, command, epoch):
    data_path, _, _ = small_data
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    monkeypatch.setattr("hystfit.cli.lm_fit", None)  # a fit would raise TypeError
    out = ("--out-prefix", tmp_path / "out") if command == "fit" else ("--out-dir", tmp_path / "out")
    assert run(command, "--data", data_path, "--flag-point", SWEEP_FLAG, *out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "SOURCE_DATE_EPOCH" in err[0]
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("case, message", [
    ("initial-missing", "initial guess missing parameters: ['kappa']"),
    ("evaluate-no-theta", "dataset has no theta column to evaluate against"),
    *((f"report-no-{key}", f"not a fit result file (missing {key!r})")
      for key in ("dataset", "fit_mode", "metrics")),
])
def test_input_errors_exit_2_with_one_line(tmp_path, small_data, capsys, case, message):
    data_path, model_path, params = small_data
    out = tmp_path / "out"
    if case == "initial-missing":
        path = tmp_path / "cfg.json"
        initial = dict(zip(param_names("egpi")[:-1], map(float, params)))
        path.write_text(json.dumps({"initial": initial}))
        argv = ("fit", "--data", data_path, "--config", path, "--flag-point", SWEEP_FLAG,
                "--out-prefix", out)
    elif case == "evaluate-no-theta":
        path = tmp_path / "nt.csv"
        save_dataset(path, Trajectory(t=np.arange(100.0), v=np.sin(np.arange(100.0))))
        argv = ("evaluate", "--data", path, "--params", model_path, "--out", out)
    else:
        path = tmp_path / "r.result.json"
        doc = {"dataset": "d.csv", "fit_mode": "egpi", "metrics": _METRICS}
        del doc[case.removeprefix("report-no-")]
        path.write_text(json.dumps(doc))
        argv = ("report", "--results", path, "--out", out)
    assert run(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not list(tmp_path.glob("out*"))


# ---------------------------------------------------------------- simulate

def test_simulate_reference_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("simulate", "--reference", "--out", out1) == 0
    assert run("simulate", "--reference", "--out", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "t,v,z,z1,z2,active"


def test_simulate_requires_model_source(tmp_path):
    assert run("simulate", "--out", tmp_path / "x.csv") == 2


@pytest.mark.parametrize("bound", [("--dt", "nan"), ("--t-end", "inf"),
                                   ("--t-end", "1e300", "--dt", "1e-300")])
def test_simulate_non_finite_bounds_exit_2(tmp_path, capsys, bound):
    out = tmp_path / "x.csv"
    assert run("simulate", "--reference", *bound, "--out", out) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_too_many_samples_exit_2(tmp_path, capsys, monkeypatch):
    # --dt 1e-300 runs with the real np.arange, which refuses 1e301 samples
    # with a ValueError before it allocates anything
    out = tmp_path / "x.csv"
    for dt in ("1e-300", "1e-12"):
        if dt == "1e-12":
            refuse_huge_arange(monkeypatch)
        assert run("simulate", "--reference", "--dt", dt, "--out", out) == 2
        assert "does not fit in memory" in capsys.readouterr().err
        assert not out.exists()


def test_simulate_descend_flag_model_file(tmp_path, small_data):
    _, model_path, _ = small_data
    out = tmp_path / "sim.csv"
    assert run("simulate", "--params", model_path, "--t-end", 2.0, "--out", out) == 0
    rows = np.genfromtxt(out, delimiter=",", names=True)
    rising = np.concatenate([[False], np.diff(rows["v"]) > 0])
    expected = np.where(~rising & (rows["v"] <= SWEEP_FLAG), 2, 1)
    assert np.array_equal(rows["active"].astype(int), expected)


def test_simulate_gpi_model_file(tmp_path, small_data):
    _, model_path, _ = small_data
    doc = json.loads(model_path.read_text())
    doc["mode"] = "gpi"
    doc["submodels"] = doc["submodels"][:1]
    doc["flags"] = {}
    gpi_path = tmp_path / "gpi.json"
    gpi_path.write_text(json.dumps(doc))
    out = tmp_path / "sim.csv"
    assert run("simulate", "--params", gpi_path, "--t-end", 2.0, "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,v,z,z1,z2,active"
    rows = np.genfromtxt(out, delimiter=",", names=True)
    assert np.array_equal(rows["z1"], rows["z"])
    assert np.array_equal(rows["z2"], rows["z"])
    assert np.all(rows["active"] == 1)
    assert np.array_equal(rows["z"], gpi_eval(load_model(gpi_path), rows["t"], rows["v"]))


# ---------------------------------------------------------------- generate

def test_generate_roundtrip_noiseless(tmp_path, small_data, capsys):
    data_path, model_path, _ = small_data
    out = tmp_path / "gen.csv"
    assert run("generate", "--params", model_path, "--input", data_path,
               "--noise-std", 0, "--out", out) == 0
    back = load_dataset(out)
    model = load_model(model_path)
    assert np.array_equal(back.theta, predict(model, back.t, back.v))
    pred_csv = tmp_path / "pred.csv"
    capsys.readouterr()
    assert run("evaluate", "--data", out, "--params", model_path, "--out", pred_csv) == 0
    metrics = json.loads(capsys.readouterr().out.split("wrote")[0])
    assert metrics["rmse"] == 0.0


def test_generate_default_signal(tmp_path, small_data):
    # without --input the stock decaying sinusoid supplies the samples
    _, model_path, _ = small_data
    out = tmp_path / "gen.csv"
    assert run("generate", "--params", model_path, "--t-end", 1.0, "--dt", 0.01,
               "--out", out) == 0
    back = load_dataset(out)
    assert len(back) == 101
    assert back.v[0] == pytest.approx(8 * np.sin(np.pi / 4), abs=1e-12)
    assert back.theta is not None


def test_generate_seed_behaviour(tmp_path, small_data):
    data_path, model_path, _ = small_data
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    for out, seed in ((a, 5), (b, 5), (c, 6)):
        assert run("generate", "--params", model_path, "--input", data_path,
                   "--noise-std", 0.1, "--seed", seed, "--out", out) == 0
    assert a.read_bytes() == b.read_bytes()
    da, dc = load_dataset(a), load_dataset(c)
    assert np.array_equal(da.v, dc.v)
    assert not np.array_equal(da.theta, dc.theta)
    # a negative seed is rejected whether or not noise is drawn
    for noise_std in (0.1, 0):
        assert run("generate", "--params", model_path, "--input", data_path,
                   "--noise-std", noise_std, "--seed", -1, "--out", tmp_path / "d.csv") == 2
    assert not (tmp_path / "d.csv").exists()


def test_generate_nan_noise_is_config_error(tmp_path, small_data, capsys):
    data_path, model_path, _ = small_data
    out = tmp_path / "gen.csv"
    assert run("generate", "--params", model_path, "--input", data_path,
               "--noise-std", "nan", "--out", out) == 2
    assert "noise_std must be" in capsys.readouterr().err
    assert not out.exists()


# -------------------------------------------------------------- input files

@pytest.mark.parametrize("entry", ["evaluate-data", "fit-config", "evaluate-params", "report"])
def test_non_utf8_input_file_is_input_error(tmp_path, small_data, capsys, entry):
    # a latin-1 byte 0xE9: at the end of the dataset, past the decoder's
    # first chunk, or inside a JSON string
    data_path, model_path, _ = small_data
    if entry == "evaluate-data":
        bad = tmp_path / "latin.csv"
        bad.write_bytes(data_path.read_bytes() + b"caf\xe9\n")
    else:
        bad = tmp_path / "latin.json"
        bad.write_bytes(model_path.read_bytes().replace(b'"mode"', b'"caf\xe9"', 1))
    out = tmp_path / "out.csv"
    argv = {
        "evaluate-data": ("evaluate", "--data", bad, "--params", model_path, "--out", out),
        "fit-config": ("fit", "--data", data_path, "--config", bad,
                       "--out-prefix", tmp_path / "fit"),
        "evaluate-params": ("evaluate", "--data", data_path, "--params", bad, "--out", out),
        "report": ("report", "--results", bad, "--out", out),
    }[entry]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert f"{bad}: not UTF-8 text" in err
    assert "Traceback" not in err
    assert not out.exists()


# --------------------------------------------------------------------- fit

def test_fit_writes_results_and_prints_metrics(tmp_path, small_data, capsys):
    data_path, _, params = small_data
    prefix = tmp_path / "fit"
    code = run("fit", "--data", data_path, "--mode", "egpi",
               "--flag-point", SWEEP_FLAG, "--out-prefix", prefix)
    assert code == 0
    out = capsys.readouterr().out
    assert "RMSE" in out and "NRMSE" in out and "MAE" in out
    result = json.loads((tmp_path / "fit.result.json").read_text())
    assert result["fit_mode"] == "egpi"
    assert result["converged"] in (True, False)
    assert result["metrics"]["rmse"] < 0.2
    assert len(result["params"]) == 11
    fitted = load_model(tmp_path / "fit.model.json")
    data = load_dataset(data_path)
    pred = predict(fitted, data.t, data.v)
    rmse = float(np.sqrt(np.mean((pred - data.theta) ** 2)))
    assert rmse == pytest.approx(result["metrics"]["rmse"], rel=1e-9)


def test_fit_gpi_is_worse_than_egpi(tmp_path, small_data):
    data_path, _, _ = small_data
    p1, p2 = tmp_path / "egpi", tmp_path / "gpi"
    assert run("fit", "--data", data_path, "--flag-point", SWEEP_FLAG,
               "--out-prefix", p1) == 0
    assert run("fit", "--data", data_path, "--mode", "gpi", "--out-prefix", p2) == 0
    egpi = json.loads((tmp_path / "egpi.result.json").read_text())["metrics"]
    gpi = json.loads((tmp_path / "gpi.result.json").read_text())["metrics"]
    assert gpi["rmse"] > egpi["rmse"]


def test_fit_detects_flag_from_rest_sample(tmp_path, small_data, capsys):
    # the sweep rests briefly at the true flag level, so detection finds it
    data_path, _, _ = small_data
    prefix = tmp_path / "auto"
    assert run("fit", "--data", data_path, "--out-prefix", prefix) == 0
    out = capsys.readouterr().out
    assert f"v_f={SWEEP_FLAG:g}" in out
    result = json.loads((tmp_path / "auto.result.json").read_text())
    assert result["v_f"] == SWEEP_FLAG


def test_fit_explicit_eps_controls_detection(tmp_path, small_data, capsys):
    # a huge eps means the input never counts as moving (detection fails);
    # a moderate eps finds the rest at the true flag level
    data_path, _, _ = small_data
    prefix = tmp_path / "eps"
    assert run("fit", "--data", data_path, "--eps", 1e9, "--out-prefix", prefix) == 4
    capsys.readouterr()
    assert run("fit", "--data", data_path, "--eps", 0.5, "--out-prefix", prefix) == 0
    assert f"v_f={SWEEP_FLAG:g}" in capsys.readouterr().out


def test_fit_nan_eps_is_config_error(tmp_path, small_data, capsys):
    data_path, _, _ = small_data
    prefix = tmp_path / "eps"
    assert run("fit", "--data", data_path, "--mode", "egpi", "--eps", "nan",
               "--out-prefix", prefix) == 2
    assert "eps must be" in capsys.readouterr().err


def test_fit_without_theta_is_input_error(tmp_path, capsys):
    path = tmp_path / "nt.csv"
    save_dataset(path, Trajectory(t=np.arange(100.0), v=np.sin(np.arange(100.0))))
    assert run("fit", "--data", path, "--flag-point", 0.0) == 2
    err = capsys.readouterr().err
    assert "angle" in err or "theta" in err


def test_fit_malformed_csv_is_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("t,v,theta\n0,1,2\nx,y,z\n")
    assert run("fit", "--data", path, "--flag-point", 0.0) == 2
    assert ":3" in capsys.readouterr().err


def test_fit_detection_failure_exit_code(tmp_path, capsys):
    # strictly monotone input: no rest sample, detection must fail with
    # the hint to pass --flag-point
    v = np.linspace(0, 10, 400)
    theta = 3 * v + 1
    path = tmp_path / "mono.csv"
    save_dataset(path, Trajectory(t=np.arange(400.0), v=v, theta=theta))
    assert run("fit", "--data", path) == 4
    assert "--flag-point" in capsys.readouterr().err


def test_fit_config_file_and_initial(tmp_path, small_data):
    data_path, _, params = small_data
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "max_iterations": 3,
        "v_f": SWEEP_FLAG,
        "initial": dict(zip(
            ("asc_slope", "asc_intercept", "desc1_slope", "desc1_intercept",
             "desc2_slope", "desc2_intercept", "lam", "sigma", "r1", "rn", "kappa"),
            map(float, params),
        )),
    }))
    prefix = tmp_path / "cfgfit"
    assert run("fit", "--data", data_path, "--config", cfg, "--out-prefix", prefix) == 0
    result = json.loads((tmp_path / "cfgfit.result.json").read_text())
    assert result["iterations"] <= 3
    assert result["metrics"]["rmse"] < 0.15


def test_fit_config_rejects_unknown_fields(tmp_path, small_data):
    data_path, _, _ = small_data
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_iters": 3}))
    assert run("fit", "--data", data_path, "--config", cfg,
               "--flag-point", SWEEP_FLAG) == 2


def test_fit_config_rejects_unknown_initial_names(tmp_path, small_data, capsys):
    # a misspelt name next to every layout name used to be ignored
    data_path, _, params = small_data
    initial = {**dict(zip(param_names("egpi"), map(float, params))), "lamda": 0.07}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"initial": initial}))
    assert run("fit", "--data", data_path, "--config", cfg,
               "--flag-point", SWEEP_FLAG, "--out-prefix", tmp_path / "fit") == 2
    assert "unknown initial guess parameters: ['lamda']" in capsys.readouterr().err
    assert not (tmp_path / "fit.result.json").exists()


@pytest.mark.parametrize("field", ["rel_step", "mu_up", "mu_down", "mu_max"])
def test_fit_config_rejects_removed_fields(tmp_path, small_data, capsys, field):
    # fits use the exact Jacobian, so FitConfig has no finite-difference
    # step, and the damping schedule is fixed; a config that sets one of
    # these fails loudly rather than being ignored
    data_path, _, _ = small_data
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: 10.0}))
    assert run("fit", "--data", data_path, "--config", cfg,
               "--flag-point", SWEEP_FLAG) == 2
    assert f"unknown fit config fields: [{field!r}]" in capsys.readouterr().err



@pytest.mark.parametrize("field,value", [
    pytest.param("max_iterations", "5", id="max_iterations-str"),
    pytest.param("mu0", None, id="mu0-null"),
    pytest.param("n_operators", 2.5, id="n_operators-fraction"),
    pytest.param("v_f", "6", id="v_f-str"),
    pytest.param("initial", ["x"] * 11, id="initial-str"),
    pytest.param("initial", ["3", "1", "3", "5", "3", "5", "0.07", "0.1", "0.3", "2", "1"],
                 id="initial-numeric-str"),
    pytest.param("initial", [True] * 11, id="initial-bool"),
    pytest.param("initial", [10**400] * 11, id="initial-int-past-float"),
])
def test_fit_config_rejects_wrong_types(tmp_path, small_data, capsys, field, value):
    # each used to end in a TypeError or ValueError traceback (exit 1)
    data_path, _, _ = small_data
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: value}))
    assert run("fit", "--data", data_path, "--config", cfg, "--out-prefix", tmp_path / "fit") == 2
    assert f"fit config field {field!r}" in capsys.readouterr().err
    assert not (tmp_path / "fit.result.json").exists()


def test_fit_config_initial_with_nan_is_not_finite(tmp_path):
    # json reads NaN, and the list used to be named non-numeric
    initial = [float(x) for x in recovery_params(0)]
    initial[6] = float("nan")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"initial": initial}))
    args = SimpleNamespace(config=cfg, flag_point=None)
    with pytest.raises(ConfigError, match="^fit config field 'initial': parameters must be finite$"):
        cli._make_config(args, "egpi")


def test_full_pipeline_roundtrip_noiseless(tmp_path, small_data, capsys):
    # generate(model, noise 0) -> fit initialized at the truth -> evaluate
    data_path, model_path, params = small_data
    gen = tmp_path / "clean.csv"
    assert run("generate", "--params", model_path, "--input", data_path,
               "--noise-std", 0, "--out", gen) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "v_f": SWEEP_FLAG,
        "initial": dict(zip(
            ("asc_slope", "asc_intercept", "desc1_slope", "desc1_intercept",
             "desc2_slope", "desc2_intercept", "lam", "sigma", "r1", "rn", "kappa"),
            map(float, params),
        )),
    }))
    prefix = tmp_path / "round"
    assert run("fit", "--data", gen, "--config", cfg, "--out-prefix", prefix) == 0
    capsys.readouterr()
    out = tmp_path / "pred.csv"
    assert run("evaluate", "--data", gen, "--params", tmp_path / "round.model.json",
               "--out", out) == 0
    metrics = json.loads(capsys.readouterr().out.split("wrote")[0])
    assert metrics["rmse"] < 1e-6


def test_fit_numerical_failure_exit_code(tmp_path, small_data, capsys, monkeypatch):
    from hystfit import NumericalError
    import hystfit.cli as cli_mod

    def boom(*args, **kwargs):
        err = NumericalError("synthetic breakdown")
        err.loss_trace = [3.0, 2.0]
        raise err

    monkeypatch.setattr(cli_mod, "lm_fit", boom)
    data_path, _, _ = small_data
    assert run("fit", "--data", data_path, "--flag-point", SWEEP_FLAG) == 3
    err = capsys.readouterr().err
    assert "loss[1] = 2" in err


# ---------------------------------------------------------------- evaluate

def test_evaluate_fit_consistency(tmp_path, small_data):
    data_path, model_path, _ = small_data
    out = tmp_path / "pred.csv"
    assert run("evaluate", "--data", data_path, "--params", model_path, "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,v,theta,theta_hat,error"
    assert len(lines) == 1201


def test_evaluate_reference_model_on_own_simulation(tmp_path):
    sim = tmp_path / "sim.csv"
    assert run("simulate", "--reference", "--t-end", 2.0, "--out", sim) == 0
    rows = np.genfromtxt(sim, delimiter=",", names=True)
    data = tmp_path / "data.csv"
    save_dataset(data, Trajectory(t=rows["t"], v=rows["v"], theta=rows["z"]))
    model_path = tmp_path / "ref.json"
    from hystfit import reference_model

    save_model(model_path, reference_model())
    out = tmp_path / "pred.csv"
    assert run("evaluate", "--data", data, "--params", model_path, "--out", out) == 0
    pred = np.genfromtxt(out, delimiter=",", names=True)
    assert np.max(np.abs(pred["error"])) == 0.0


def test_evaluate_kappa_doubled_increases_rmse(tmp_path, small_data, capsys):
    data_path, model_path, params = small_data
    worse = params.copy()
    worse[-1] *= 2.0
    worse_path = tmp_path / "worse.json"
    save_model(worse_path, build_model(worse, "egpi", SWEEP_FLAG))
    out = tmp_path / "p1.csv"
    assert run("evaluate", "--data", data_path, "--params", model_path, "--out", out) == 0
    rmse_true = json.loads(capsys.readouterr().out.split("wrote")[0])["rmse"]
    assert run("evaluate", "--data", data_path, "--params", worse_path, "--out", out) == 0
    rmse_worse = json.loads(capsys.readouterr().out.split("wrote")[0])["rmse"]
    assert rmse_worse > rmse_true


def test_evaluate_absolute_flag(tmp_path, small_data):
    data_path, model_path, _ = small_data
    data = load_dataset(data_path)
    flipped = tmp_path / "neg.csv"
    save_dataset(flipped, Trajectory(t=data.t, v=-data.v, theta=data.theta))
    doc = json.loads(model_path.read_text())
    neg_model = tmp_path / "negm.json"
    neg_model.write_text(json.dumps(doc))
    out = tmp_path / "pred.csv"
    assert run("evaluate", "--data", flipped, "--params", neg_model,
               "--out", out, "--absolute") == 0
    pred = np.genfromtxt(out, delimiter=",", names=True)
    assert np.all(pred["v"] >= 0.0)


def test_evaluate_unit_mismatch_warns(tmp_path, small_data, capsys):
    data_path, model_path, _ = small_data
    out = tmp_path / "pred.csv"
    assert run("evaluate", "--data", data_path, "--params", model_path,
               "--out", out, "--input-units", "rad") == 0
    assert "unit" in capsys.readouterr().err



@pytest.mark.parametrize("path,value", [
    pytest.param(("flags",), [], id="flags-list"),
    pytest.param(("submodels",), 5, id="submodels-int"),
    pytest.param(("submodels", 0, "kappa_asc"), "x", id="kappa-str"),
    pytest.param(("submodels", 1, "asc_env", "c"), "x", id="envelope-field-str"),
    pytest.param(("flags", "v_f_asc"), "x", id="flag-str"),
    pytest.param(("units",), [], id="units-list"),
    pytest.param(("density", "n"), 2.5, id="n-fraction"),
])
def test_evaluate_rejects_malformed_model_file(tmp_path, small_data, capsys, path, value):
    # each used to end in a traceback (exit 1), and n = 2.5 was truncated to 2
    data_path, _, _ = small_data
    doc = model_to_doc(reference_model())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    model_path = tmp_path / "bad.json"
    model_path.write_text(json.dumps(doc))
    out = tmp_path / "pred.csv"
    assert run("evaluate", "--data", data_path, "--params", model_path, "--out", out,
               "--input-units", "count") == 2
    assert f"{path[-1]!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("path,message", [
    (("density", "lamda"), "unknown density fields: ['lamda']"),
    (("flags", "v_f_dsc"), "unknown flag fields: ['v_f_dsc']"),
    (("submodels", 1, "kappa_dsc"), "unknown submodel 2 fields: ['kappa_dsc']"),
    (("submodels", 0, "desc_env", "a"), "unknown tanh envelope fields: ['a']"),
])
def test_evaluate_rejects_unknown_model_fields(tmp_path, small_data, capsys, path, message):
    # each name used to be dropped without a word, so a misspelt
    # kappa_desc built the default 1.0
    data_path, _, _ = small_data
    doc = model_to_doc(reference_model())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = 3.0
    model_path = tmp_path / "bad.json"
    model_path.write_text(json.dumps(doc))
    out = tmp_path / "pred.csv"
    assert run("evaluate", "--data", data_path, "--params", model_path, "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()

# ------------------------------------------------------------ fit-all/report

def test_fit_all_and_report(tmp_path):
    base = sweep_input(n=900)
    datasets = []
    for seed in (0, 1):
        params = recovery_params(seed)
        noisy = gen_synthetic(build_model(params, "egpi", SWEEP_FLAG), base, 0.1, seed=seed)
        path = tmp_path / f"dir{seed}.csv"
        save_dataset(path, noisy)
        datasets.append(path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_iterations": 15}))
    out_dir = tmp_path / "fits"
    code = run("fit-all", "--data", *datasets, "--flag-point", SWEEP_FLAG,
               "--config", cfg, "--out-dir", out_dir)
    assert code == 0
    report = (out_dir / "report.csv").read_text().splitlines()
    assert len(report) == 5  # header + 2 datasets x 2 modes
    results = sorted(p.name for p in out_dir.glob("*.result.json"))
    assert results == ["dir0.egpi.result.json", "dir0.gpi.result.json",
                       "dir1.egpi.result.json", "dir1.gpi.result.json"]
    merged = tmp_path / "merged.json"
    assert run("report", "--results", *sorted(out_dir.glob("*.result.json")),
               "--out", merged) == 0
    rows = json.loads(merged.read_text())
    assert len(rows) == 4
    assert {r["model"] for r in rows} == {"egpi", "gpi"}


def test_fit_all_parallel_jobs(tmp_path):
    base = sweep_input(n=700)
    params = recovery_params(2)
    noisy = gen_synthetic(build_model(params, "egpi", SWEEP_FLAG), base, 0.1, seed=2)
    path = tmp_path / "d.csv"
    save_dataset(path, noisy)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_iterations": 6}))
    out_serial = tmp_path / "serial"
    out_par = tmp_path / "par"
    assert run("fit-all", "--data", path, "--flag-point", SWEEP_FLAG,
               "--config", cfg, "--out-dir", out_serial) == 0
    assert run("fit-all", "--data", path, "--flag-point", SWEEP_FLAG,
               "--config", cfg, "--out-dir", out_par, "--jobs", 2) == 0
    s = json.loads((out_serial / "d.egpi.result.json").read_text())
    p = json.loads((out_par / "d.egpi.result.json").read_text())
    assert s["params"] == p["params"]


@pytest.mark.parametrize("modes, started", [("egpi,gpi", [2]), ("gpi", [])])
def test_fit_all_starts_no_more_workers_than_tasks(tmp_path, monkeypatch, modes, started):
    # a pool may fork every worker at its first task, so --jobs 64 over two
    # tasks asks for two workers, and over one task runs it in-process; the
    # files are those of --jobs 1. The stand-in pool maps in this process.
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", SerialPool)
    base = sweep_input(n=700)
    path = tmp_path / "d.csv"
    save_dataset(path, gen_synthetic(build_model(recovery_params(2), "egpi", SWEEP_FLAG),
                                     base, 0.1, seed=2))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_iterations": 2}))
    serial, wide = tmp_path / "serial", tmp_path / "wide"
    for jobs, out in ((1, serial), (64, wide)):
        assert run("fit-all", "--data", path, "--modes", modes, "--flag-point", SWEEP_FLAG,
                   "--config", cfg, "--out-dir", out, "--jobs", jobs) == 0
    assert asked == started
    written = sorted(p.name for p in serial.iterdir())
    assert written == sorted(p.name for p in wide.iterdir())
    for name in written:
        assert (wide / name).read_bytes() == (serial / name).read_bytes()


@pytest.mark.parametrize("names,modes", [
    (["a/data.csv", "b/data.csv"], "gpi"),
    (["a.csv", "x/a.txt"], "gpi"),
    (["a.csv"], "egpi,egpi"),
])
def test_fit_all_rejects_shared_output_stem(tmp_path, capsys, names, modes):
    # two tasks that would write the same <stem>.<mode> files: exit 2 before
    # any fit runs, naming both inputs, with nothing written
    paths = [tmp_path / name for name in names]
    for path in paths:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("not a dataset\n")
    out_dir = tmp_path / "out"
    code = run("fit-all", "--data", *paths, "--modes", modes, "--flag-point", SWEEP_FLAG,
               "--out-dir", out_dir)
    assert code == 2
    err = capsys.readouterr().err
    assert f"{paths[0]} and {paths[-1]} would both write" in err
    assert "failed" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("modes", ["bogus", "egpi,bogus", ","])
def test_fit_all_rejects_bad_modes(tmp_path, capsys, modes):
    # an unknown or empty mode list: exit 2 before any dataset is read or
    # fit runs, with nothing written
    data = tmp_path / "data.csv"
    data.write_text("not a dataset\n")
    out_dir = tmp_path / "out"
    assert run("fit-all", "--data", data, "--modes", modes, "--out-dir", out_dir) == 2
    err = capsys.readouterr().err
    assert "--modes must list fit modes" in err and repr(modes) in err
    assert "failed" not in err
    assert not out_dir.exists()


def test_fit_all_builds_one_config_per_mode(tmp_path, monkeypatch):
    # each (dataset, mode) task used to reread --config and SOURCE_DATE_EPOCH
    made, make = [], cli._make_config
    monkeypatch.setattr(cli, "_make_config", lambda args, mode: made.append(mode) or make(args, mode))
    paths = [tmp_path / f"d{k}.csv" for k in range(3)]
    for path in paths:
        path.write_text("not a dataset\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_iterations": 3}))
    assert run("fit-all", "--data", *paths, "--modes", "egpi,gpi", "--config", cfg,
               "--flag-point", SWEEP_FLAG, "--out-dir", tmp_path / "out") == 2
    assert made == ["egpi", "gpi"]


@pytest.mark.parametrize("jobs", [0, -1])
def test_fit_all_rejects_jobs_below_one(tmp_path, capsys, jobs):
    # exit 2 before any dataset is read, directory made or process started
    data = tmp_path / "data.csv"
    data.write_text("not a dataset\n")
    out_dir = tmp_path / "out"
    assert run("fit-all", "--data", data, "--jobs", jobs, "--out-dir", out_dir) == 2
    err = capsys.readouterr().err
    assert f"--jobs must be >= 1, got {jobs}" in err
    assert "failed" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_fit_all_isolates_failed_tasks(tmp_path, monkeypatch, capsys, jobs):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    base = sweep_input(n=700)
    params = recovery_params(0)
    good = tmp_path / "good.csv"
    save_dataset(good, gen_synthetic(build_model(params, "egpi", SWEEP_FLAG), base, 0.1, seed=0))
    # never descends: no initial guess can be built, in either mode
    v = np.linspace(0.0, 10.0, 400)
    bad = tmp_path / "bad.csv"
    save_dataset(bad, Trajectory(t=np.arange(400.0), v=v, theta=3 * v + 1))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_iterations": 5}))
    common = ("--flag-point", SWEEP_FLAG, "--config", cfg, "--jobs", jobs)
    alone, mixed = tmp_path / "alone", tmp_path / "mixed"
    assert run("fit-all", "--data", good, "--out-dir", alone, *common) == 0
    capsys.readouterr()
    # InitializationError: exit code 2, as main gives it
    assert run("fit-all", "--data", bad, good, "--out-dir", mixed, *common) == 2
    err = capsys.readouterr().err
    for mode in ("egpi", "gpi"):
        assert f"{bad} [{mode}]: failed: too few descending samples" in err
    written = sorted(p.name for p in mixed.iterdir())
    assert written == sorted(p.name for p in alone.iterdir())
    for name in written:
        assert (mixed / name).read_bytes() == (alone / name).read_bytes()


@pytest.mark.parametrize("jobs", [1, 2])
def test_fit_all_detection_failure_is_per_task(tmp_path, monkeypatch, capsys, jobs):
    # no --flag-point: the flag of each egpi task is detected in its own worker
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    params = recovery_params(0)
    good = tmp_path / "good.csv"
    noisy = gen_synthetic(build_model(params, "egpi", SWEEP_FLAG), sweep_input(n=700), 0.1, seed=0)
    save_dataset(good, noisy)
    v = np.linspace(0.0, 10.0, 400)
    mono = tmp_path / "mono.csv"
    save_dataset(mono, Trajectory(t=np.arange(400.0), v=v, theta=3 * v + 1))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_iterations": 5}))
    common = ("--modes", "egpi", "--config", cfg, "--jobs", jobs)
    alone, mixed = tmp_path / "alone", tmp_path / "mixed"
    assert run("fit-all", "--data", good, "--out-dir", alone, *common) == 0
    out_alone = capsys.readouterr().out
    assert run("fit-all", "--data", mono, good, "--out-dir", mixed, *common) == 4
    captured = capsys.readouterr()
    assert f"{mono} [egpi]: failed: no near-rest sample" in captured.err
    assert "--flag-point" in captured.err
    assert captured.out.splitlines()[0] == f"flag point estimated at v_f={SWEEP_FLAG:g}"
    assert captured.out.replace(str(mixed), str(alone)) == out_alone
    written = sorted(p.name for p in mixed.iterdir())
    assert written == sorted(p.name for p in alone.iterdir())
    for name in written:
        assert (mixed / name).read_bytes() == (alone / name).read_bytes()


@pytest.mark.parametrize("doc", [
    {"dataset": "d.csv", "fit_mode": "egpi", "metrics": {}},
    "dataset fit_mode metrics",
])
def test_report_rejects_malformed_result_file(tmp_path, capsys, doc):
    path = tmp_path / "bad.result.json"
    path.write_text(json.dumps(doc))
    assert run("report", "--results", path, "--out", tmp_path / "r.csv") == 2
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


_METRICS = {"rmse": 0.1, "nrmse": 1.5, "mae": 0.3, "n": 100}


@pytest.mark.parametrize("field,value", [
    ("rmse", "abc"), ("rmse", None), ("mae", True), ("mae", [0.3]),
    ("nrmse", True), ("nrmse", "1.5"), ("n", "x"), ("n", 100.0), ("n", None),
])
def test_report_rejects_metrics_values_of_the_wrong_kind(tmp_path, capsys, field, value):
    path = tmp_path / "bad.result.json"
    doc = {"dataset": "d.csv", "fit_mode": "egpi", "metrics": {**_METRICS, field: value}}
    path.write_text(json.dumps(doc))
    assert run("report", "--results", path, "--out", tmp_path / "r.csv") == 2
    err = capsys.readouterr().err
    assert str(path) in err and repr(field) in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("field,value", [
    ("dataset", ["a"]), ("dataset", None), ("dataset", 3), ("fit_mode", 7), ("fit_mode", None),
])
def test_report_rejects_dataset_and_mode_that_are_not_strings(tmp_path, capsys, field, value):
    path = tmp_path / "bad.result.json"
    doc = {"dataset": "d.csv", "fit_mode": "egpi", "metrics": _METRICS, field: value}
    path.write_text(json.dumps(doc))
    assert run("report", "--results", path, "--out", tmp_path / "r.csv") == 2
    err = capsys.readouterr().err
    assert str(path) in err and repr(field) in err
    assert not (tmp_path / "r.csv").exists()


def test_report_writes_a_null_nrmse_as_an_empty_field(tmp_path):
    path = tmp_path / "flat.result.json"
    doc = {"dataset": "d.csv", "fit_mode": "gpi", "metrics": {**_METRICS, "nrmse": None}}
    path.write_text(json.dumps(doc))
    assert run("report", "--results", path, "--out", tmp_path / "r.csv") == 0
    assert (tmp_path / "r.csv").read_text().splitlines()[1] == "d.csv,gpi,0.1,,0.3,100"
