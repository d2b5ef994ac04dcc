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

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    DetectionError,
    DomainError,
    InitializationError,
    InputError,
    NumericalError,
    ParameterError,
    RangeError,
)
from .fileio import (
    load_dataset,
    load_model,
    save_dataset,
    save_fit_result,
    save_model,
    save_predictions,
    save_simulation,
    write_report,
    report_row,
)
from .fitting import FitConfig, lm_fit, param_names, validate_params
from .metrics import compute_metrics
from .operators import EgpiModel, egpi_eval, gpi_eval, predict, reference_model
from .signals import Trajectory, decaying_sinusoid, detect_flag_point, gen_synthetic

_INPUT_ERRORS = (
    InputError,
    ConfigError,
    DomainError,
    RangeError,
    ParameterError,
    InitializationError,
    FileNotFoundError,
    IsADirectoryError,
)
_HANDLED_ERRORS = (DetectionError, NumericalError, *_INPUT_ERRORS)


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
    if isinstance(model, EgpiModel):
        z, active = egpi_eval(model, traj.t, traj.v)
        sub1, sub2 = model.submodels
        z1 = gpi_eval(sub1, traj.t, traj.v)
        z2 = gpi_eval(sub2, traj.t, traj.v)
    else:
        z = gpi_eval(model, traj.t, traj.v)
        z1 = z2 = z
        active = np.ones(len(traj), dtype=int)
    save_simulation(args.out, traj.t, traj.v, z, z1, z2, active)
    print(f"wrote {args.out} ({len(traj)} samples)")
    return 0


# ---------------------------------------------------------------- generate

def _cmd_generate(args):
    model = load_model(args.params)
    if args.input:
        base = load_dataset(args.input)
        base = Trajectory(t=base.t, v=base.v)
    else:
        base = decaying_sinusoid(t_start=args.t_start, t_end=args.t_end, dt=args.dt)
    out = gen_synthetic(model, base, noise_std=args.noise_std, seed=args.seed)
    save_dataset(args.out, out)
    print(f"wrote {args.out} ({len(out)} samples, noise_std={args.noise_std}, seed={args.seed})")
    return 0


# --------------------------------------------------------------------- fit

def _load_fit_config(path) -> dict:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path}: fit config must be a JSON object")
    return doc


def _make_config(args, mode) -> FitConfig:
    fields = {}
    if args.config:
        doc = _load_fit_config(args.config)
        initial = doc.pop("initial", None)
        known = {f for f in FitConfig.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown fit config fields: {sorted(unknown)}")
        fields.update(doc)
        if initial is not None:
            names = param_names(mode)
            if isinstance(initial, dict):
                missing = [n for n in names if n not in initial]
                if missing:
                    raise ConfigError(f"initial guess missing parameters: {missing}")
                initial = [initial[n] for n in names]
            fields["initial"] = validate_params(np.asarray(initial, float), mode)
    if args.flag_point is not None:
        fields["v_f"] = args.flag_point
    return FitConfig(**fields)


def _resolve_flag(traj, config, args, mode):
    if mode != "egpi" or config.v_f is not None:
        return config
    try:
        v_f = detect_flag_point(traj, eps=args.eps)
    except DetectionError as exc:
        raise DetectionError(f"{exc}; rerun with --flag-point VALUE") from None
    print(f"flag point estimated at v_f={v_f:g}")
    config.v_f = v_f
    return config


def _cmd_fit(args):
    traj = load_dataset(args.data)
    config = _make_config(args, args.mode)
    config = _resolve_flag(traj, config, args, args.mode)
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
    model = load_model(args.params)
    if args.input_units or args.output_units:
        from .fileio import load_model_doc

        units = load_model_doc(args.params).get("units", {})
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
    """Fit one (dataset, mode) task; a handled error is returned, not raised."""
    dataset_path, mode, config = task
    try:
        return dataset_path, mode, lm_fit(load_dataset(dataset_path), config, mode=mode)
    except _HANDLED_ERRORS as exc:
        return dataset_path, mode, exc


def _cmd_fit_all(args):
    os.makedirs(args.out_dir, exist_ok=True)
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    tasks = []
    for data in args.data:
        traj = load_dataset(data)
        for mode in modes:
            config = _make_config(args, mode)
            config = _resolve_flag(traj, config, args, mode)
            tasks.append((data, mode, config))
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(_fit_all_worker, tasks))
    else:
        outcomes = [_fit_all_worker(task) for task in tasks]
    rows = []
    failures = []
    for data, mode, result in outcomes:
        if isinstance(result, Exception):
            print(f"{data} [{mode}]: failed: {result}", file=sys.stderr)
            failures.append(result)
            continue
        stem = os.path.splitext(os.path.basename(data))[0] + f".{mode}"
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
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InputError(f"{path}: not valid JSON ({exc})") from None
        for key in ("dataset", "fit_mode", "metrics"):
            if key not in doc:
                raise InputError(f"{path}: not a fit result file (missing {key!r})")
        m = doc["metrics"]
        rows.append(
            {
                "dataset": doc["dataset"] or path,
                "model": doc["fit_mode"],
                "rmse_deg": m["rmse"],
                "nrmse_pct": m["nrmse"],
                "mae_deg": m["mae"],
                "n": m["n"],
            }
        )
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
    p.add_argument("--mode", choices=("egpi", "gpi"), default="egpi")
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
