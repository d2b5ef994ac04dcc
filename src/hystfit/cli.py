"""Batch command-line interface.

Commands: simulate, generate, fit, evaluate, fit-all, report. Every
command is deterministic given its arguments; random seeds are explicit
flags. Exit codes: 0 success, 2 input or configuration error, 3 numerical
failure, 4 flag-point detection failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    DetectionError,
    HystError,
    InputError,
    NumericalError,
    ParameterError,
    check_names,
    check_number,
)
from .fileio import (
    _created_stamp,
    load_dataset,
    load_json,
    load_model,
    load_model_doc,
    model_from_doc,
    report_row,
    save_dataset,
    save_fit_result,
    save_model,
    save_predictions,
    save_simulation,
    write_report,
)
from .fitting import FIT_MODES, FitConfig, lm_fit, param_names, validate_params
from .metrics import Metrics, compute_metrics
from .operators import egpi_outputs, predict, reference_model
from .signals import decaying_sinusoid, detect_flag_point, gen_synthetic

_HANDLED_ERRORS = (HystError, OSError)


def _exit_code(exc: Exception) -> int:
    """Exit code for one of the handled errors (see the module docstring)."""
    if isinstance(exc, DetectionError):
        return 4
    if isinstance(exc, NumericalError):
        return 3
    return 2


def _print_metrics(metrics, label=""):
    if label:
        print(label)
    nrmse = "n/a" if metrics.nrmse is None else f"{metrics.nrmse:.4f} %"
    print(f"  RMSE   {metrics.rmse:.6f} deg")
    print(f"  NRMSE  {nrmse}")
    print(f"  MAE    {metrics.mae:.6f} deg")
    print(f"  N      {metrics.n}")


# ---------------------------------------------------------------- simulate

def _cmd_simulate(args):
    if args.reference:
        model = reference_model()
    elif args.params:
        model = load_model(args.params)
    else:
        raise ConfigError("simulate needs --params FILE or --reference")
    traj = decaying_sinusoid(t_start=args.t_start, t_end=args.t_end, dt=args.dt)
    z, active, z1, z2 = egpi_outputs(model, traj.t, traj.v)
    save_simulation(args.out, traj.t, traj.v, z, z1, z2, active)
    print(f"wrote {args.out} ({len(traj)} samples)")
    return 0


# ---------------------------------------------------------------- generate

def _cmd_generate(args):
    model = load_model(args.params)
    if args.input:
        base = load_dataset(args.input)
    else:
        base = decaying_sinusoid(t_start=args.t_start, t_end=args.t_end, dt=args.dt)
    out = gen_synthetic(model, base, noise_std=args.noise_std, seed=args.seed)
    save_dataset(args.out, out)
    print(f"wrote {args.out} ({len(out)} samples, noise_std={args.noise_std}, seed={args.seed})")
    return 0


# --------------------------------------------------------------------- fit

def _make_config(args, mode) -> FitConfig:
    _created_stamp()  # the model files embed it: a malformed SOURCE_DATE_EPOCH fails before a fit
    fields = {}
    if args.config:
        doc = load_json(args.config)
        initial = doc.pop("initial", None)
        check_names(doc, FitConfig.__dataclass_fields__, "fit config fields")
        fields.update(doc)
        if initial is not None:
            names = param_names(mode)
            if isinstance(initial, dict):
                if missing := [n for n in names if n not in initial]:
                    raise ConfigError(f"initial guess missing parameters: {missing}")
                check_names(initial, names, "initial guess parameters")
                initial = [initial[n] for n in names]
            try:
                fields["initial"] = validate_params(initial, mode)
            except ParameterError as exc:
                raise ConfigError(f"fit config field 'initial': {exc}") from None
    if args.flag_point is not None:
        fields["v_f"] = args.flag_point
    return FitConfig(**fields)


def _resolve_flag(traj, config, eps, mode):
    """``(config to fit with, detected flag)``: detects the flag point an egpi
    fit lacks; the flag is None, and the config the one given, otherwise."""
    if mode != "egpi" or config.v_f is not None:
        return config, None
    try:
        v_f = detect_flag_point(traj, eps=eps)
    except DetectionError as exc:
        raise DetectionError(f"{exc}; rerun with --flag-point VALUE") from None
    return replace(config, v_f=v_f), v_f


def _print_flag(v_f):
    if v_f is not None:
        print(f"flag point estimated at v_f={v_f:g}")


def _cmd_fit(args):
    traj = load_dataset(args.data)
    config, v_f = _resolve_flag(traj, _make_config(args, args.mode), args.eps, args.mode)
    _print_flag(v_f)
    result = lm_fit(traj, config, mode=args.mode)
    prefix = args.out_prefix or os.path.splitext(args.data)[0]
    result_path = prefix + ".result.json"
    model_path = prefix + ".model.json"
    save_fit_result(result_path, result, dataset=args.data)
    save_model(model_path, result.model(), source=args.data)
    print(f"fit {args.mode}: {result.iterations} iterations, {result.reason}")
    _print_metrics(result.metrics, "metrics on the fitting data:")
    print(f"wrote {result_path}")
    print(f"wrote {model_path}")
    return 0


# ---------------------------------------------------------------- evaluate

def _cmd_evaluate(args):
    traj = load_dataset(args.data)
    if traj.theta is None:
        raise InputError(f"{args.data}: dataset has no theta column to evaluate against")
    doc = load_model_doc(args.params)
    model = model_from_doc(doc)
    units = doc.get("units", {})
    for flag, key in ((args.input_units, "input"), (args.output_units, "output")):
        if flag and units.get(key) and flag != units[key]:
            print(
                f"warning: dataset {key} unit {flag!r} != model {key} unit {units[key]!r}",
                file=sys.stderr,
            )
    theta_hat = predict(model, traj.t, traj.v)
    metrics = compute_metrics(traj.theta, theta_hat)
    v_out, theta_out, hat_out = traj.v, traj.theta, theta_hat
    if args.absolute:
        v_out, theta_out, hat_out = np.abs(v_out), np.abs(theta_out), np.abs(theta_hat)
    save_predictions(args.out, traj.t, v_out, theta_out, hat_out)
    print(json.dumps(metrics.to_dict(), indent=2))
    print(f"wrote {args.out}")
    return 0


# ----------------------------------------------------------------- fit-all

def _fit_all_worker(task):
    """Fit one (dataset, mode) task: ``(data, mode, detected flag, result)``.

    A handled error, flag-point detection included, is returned as the
    result, not raised.
    """
    dataset_path, mode, config, eps = task
    try:
        traj = load_dataset(dataset_path)
        config, v_f = _resolve_flag(traj, config, eps, mode)
        return dataset_path, mode, v_f, lm_fit(traj, config, mode=mode)
    except _HANDLED_ERRORS as exc:
        return dataset_path, mode, None, exc


def _cmd_fit_all(args):
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if not modes or not set(modes) <= set(FIT_MODES):
        raise ConfigError(f"--modes must list fit modes from {FIT_MODES}, got {args.modes!r}")
    configs = {mode: _make_config(args, mode) for mode in modes}
    tasks = [(data, mode, configs[mode], args.eps) for data in args.data for mode in modes]
    stems = [os.path.splitext(os.path.basename(d))[0] + f".{m}" for d, m, _, _ in tasks]
    for k, stem in enumerate(stems):
        if stem in stems[:k]:
            first = tasks[stems.index(stem)][0]
            raise ConfigError(f"{first} and {tasks[k][0]} would both write {stem}.*; rename one")
    os.makedirs(args.out_dir, exist_ok=True)
    # a pool may start all its workers at once, so it gets no more than the tasks
    if (jobs := min(args.jobs, len(tasks))) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_fit_all_worker, tasks))
    else:
        outcomes = [_fit_all_worker(task) for task in tasks]
    for _, _, v_f, _ in outcomes:
        _print_flag(v_f)
    rows = []
    failures = []
    for stem, (data, mode, _, result) in zip(stems, outcomes):
        if isinstance(result, Exception):
            print(f"{data} [{mode}]: failed: {result}", file=sys.stderr)
            failures.append(result)
            continue
        prefix = os.path.join(args.out_dir, stem)
        save_fit_result(prefix + ".result.json", result, dataset=data)
        save_model(prefix + ".model.json", result.model(), source=data)
        rows.append(report_row(data, mode, result.metrics))
        print(f"{data} [{mode}]: rmse={result.metrics.rmse:.6f} deg ({result.reason})")
    report_path = os.path.join(args.out_dir, "report.csv")
    write_report(report_path, rows)
    print(f"wrote {report_path}")
    return _exit_code(failures[0]) if failures else 0


# ------------------------------------------------------------------ report

def _cmd_report(args):
    rows = []
    for path in args.results:
        doc = load_json(path)
        for key in ("dataset", "fit_mode", "metrics"):
            if key not in doc:
                raise InputError(f"{path}: not a fit result file (missing {key!r})")
        for key in ("dataset", "fit_mode"):
            if not isinstance(doc[key], str):
                raise InputError(f"{path}: {key!r} must be a string, got {doc[key]!r}")
        try:
            metrics = Metrics(**doc["metrics"])
        except TypeError:
            raise InputError(f"{path}: malformed 'metrics' block") from None
        for key, value in metrics.to_dict().items():
            if not (key == "nrmse" and value is None):
                check_number(value, f"{path}: metrics field {key!r}", integer=key == "n")
        rows.append(report_row(doc["dataset"] or path, doc["fit_mode"], metrics))
    write_report(args.out, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hystfit",
        description="Hysteresis model simulation, identification, and evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="forward-simulate a model on the stock input")
    p.add_argument("--params", help="model-parameter JSON file")
    p.add_argument("--reference", action="store_true",
                   help="use the built-in two-flag demonstration configuration")
    p.add_argument("--t-start", type=float, default=0.0)
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--out", required=True, help="output CSV (t,v,z,z1,z2,active)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("generate", help="generate a synthetic dataset from a model")
    p.add_argument("--params", required=True, help="model-parameter JSON file")
    p.add_argument("--input", help="dataset CSV supplying the input samples (t,v)")
    p.add_argument("--t-start", type=float, default=0.0)
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--noise-std", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output dataset CSV (t,v,theta)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("fit", help="identify model parameters from a dataset")
    p.add_argument("--data", required=True, help="dataset CSV with theta column")
    p.add_argument("--mode", choices=FIT_MODES, default="egpi")
    p.add_argument("--config", help="fit configuration JSON")
    p.add_argument("--flag-point", type=float,
                   help="descending-branch flag point (default: detect from data)")
    p.add_argument("--eps", type=float,
                   help="rate threshold for flag detection (default: 1%% of max rate)")
    p.add_argument("--out-prefix", help="output prefix (default: dataset path stem)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("evaluate", help="evaluate a model file against a dataset")
    p.add_argument("--data", required=True, help="dataset CSV with theta column")
    p.add_argument("--params", required=True, help="model-parameter JSON file")
    p.add_argument("--out", required=True, help="prediction CSV (t,v,theta,theta_hat,error)")
    p.add_argument("--absolute", action="store_true",
                   help="write absolute input/angle values for plotting")
    p.add_argument("--input-units", help="dataset input units, checked against the model file")
    p.add_argument("--output-units", help="dataset output units, checked against the model file")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("fit-all", help="fit several datasets, then write one report")
    p.add_argument("--data", required=True, nargs="+", help="dataset CSVs")
    p.add_argument("--modes", default="egpi,gpi", help="comma-separated fit modes")
    p.add_argument("--config", help="fit configuration JSON shared by all fits")
    p.add_argument("--flag-point", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--jobs", type=int, default=1, help="concurrent fit processes")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_fit_all)

    p = sub.add_parser("report", help="tabulate metrics from fit result files")
    p.add_argument("--results", required=True, nargs="+", help="fit result JSON files")
    p.add_argument("--out", required=True, help="report path (.csv or .json)")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _HANDLED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        for i, loss in enumerate(getattr(exc, "loss_trace", [])):
            print(f"  loss[{i}] = {loss:.6e}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
