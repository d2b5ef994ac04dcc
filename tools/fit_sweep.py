"""Compare ``lm_fit`` on the recovery benchmark against an earlier revision.

Usage::

    python tools/fit_sweep.py BASE_REV

Exports ``git archive BASE_REV src`` to a temporary directory, as
``tools/cli_identity.py`` does. The datasets are built once, from the
working tree's ``tests/fixtures.recovery_dataset``: AC-3 recovery seeds
0-9 and the held-out seed 1000, noise 0.1. Each tree then fits every
(seed, mode) pair, egpi and gpi, with the flag point at the true 6.0 and
the default ``FitConfig``, in one subprocess per tree with
``PYTHONPATH=<tree>/src``.

One line per (seed, mode) puts both trees side by side: iterations, stop
reason, final loss, RMSE of the fitted model to the clean signal (deg),
the fit's residual and Jacobian calls, and ``bits``: ``same`` when the
fitted params and the loss trace of both trees are equal byte for byte,
``DIFF`` otherwise. A fit whose bits differ also gets the relative
change of its final loss, (head - base) / base, and the change of its
iteration count; one whose call counts differ is marked ``calls DIFF``.
The calls are counted by wrapping the two functions that
``hystfit.fitting._fit_pair`` returns, through which every residual and
Jacobian of ``lm_fit`` goes. Closing lines count the bit-identical fits
and the fits with equal call counts, give the largest of each change, by
magnitude, with the fit it belongs to, and each tree's call totals per
mode over seeds 0-9. It times nothing: the trees run minutes apart, so
their wall times would compare machine drift; the benchmark
(``bench/run.py``) is where speed is measured. Needs git, numpy and the
Python standard library; exits 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from cli_identity import ROOT, export_src

SEEDS = (*range(10), 1000)
MODES = ("egpi", "gpi")
FLAG = 6.0


def write_datasets(path: Path) -> None:
    """Noisy and clean recovery data for every seed, in one ``.npz``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from fixtures import recovery_dataset

    arrays = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for seed in SEEDS:
            noisy, clean, _ = recovery_dataset(seed)
            arrays.update({f"t{seed}": noisy.t, f"v{seed}": noisy.v,
                           f"theta{seed}": noisy.theta, f"clean{seed}": clean})
    np.savez(path, **arrays)


def count_calls(fitting, calls: dict) -> None:
    """Make ``fitting._fit_pair`` count, in ``calls``, the calls of the
    residual and the Jacobian function it returns."""
    fit_pair = fitting._fit_pair

    def counted(name, function):
        def call(p):
            calls[name] += 1
            return function(p)
        return call

    def counted_pair(*args):
        residuals, jacobian, *rest = fit_pair(*args)
        return (counted("residual", residuals), counted("jacobian", jacobian), *rest)

    fitting._fit_pair = counted_pair


def fit_all(data_path: str) -> list[dict]:
    """Fit every (seed, mode) with the ``hystfit`` on ``sys.path``."""
    from hystfit import FitConfig, Trajectory, fitting, lm_fit, predict

    data = np.load(data_path)
    calls = {}
    count_calls(fitting, calls)
    rows = []
    for seed in SEEDS:
        traj = Trajectory(t=data[f"t{seed}"], v=data[f"v{seed}"], theta=data[f"theta{seed}"])
        for mode in MODES:
            calls.update(residual=0, jacobian=0)
            result = lm_fit(traj, FitConfig(v_f=FLAG), mode=mode)
            z = predict(result.model(), traj.t, traj.v)
            rows.append({
                "seed": seed, "mode": mode, "iterations": result.iterations,
                "reason": result.reason, "loss": result.loss_trace[-1],
                "rmse": float(np.sqrt(np.mean((z - data[f"clean{seed}"]) ** 2))),
                "residual_calls": calls["residual"], "jacobian_calls": calls["jacobian"],
                "digest": hashlib.sha256(
                    result.params.tobytes() + np.array(result.loss_trace).tobytes()
                ).hexdigest(),
            })
    return rows


def run_tree(src: Path, data_path: Path) -> list[dict]:
    """``fit_all`` in a subprocess that imports ``hystfit`` from ``src``."""
    argv = [sys.executable, "-W", "ignore::RuntimeWarning", __file__, "--worker",
            str(data_path)]
    proc = subprocess.run(argv, check=True, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    return json.loads(proc.stdout)


def describe(row: dict) -> str:
    return (f"{row['iterations']:>4} {row['reason']:<14} {row['loss']:>14.4f} {row['rmse']:>8.4f}"
            f" {row['residual_calls']:>5} {row['jacobian_calls']:>4}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_rev", nargs="?")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(fit_all(args.worker)))
        return 0
    if args.base_rev is None:
        parser.error("BASE_REV is required")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        export_src(args.base_rev, tmp / "base")
        write_datasets(tmp / "data.npz")
        base = run_tree(tmp / "base" / "src", tmp / "data.npz")
        head = run_tree(ROOT / "src", tmp / "data.npz")
    columns = f"{'iter':>4} {'reason':<14} {'loss':>14} {'rmse':>8} {'res':>5} {'jac':>4}"
    print(f"{'seed':>4} {'mode':<4} | base: {columns} | working tree: {columns} | bits")
    same = same_calls = 0
    changes = []  # (relative final-loss change, iteration change, fit)
    for b, h in zip(base, head):
        line = f"{b['seed']:>4} {b['mode']:<4} | {describe(b)} | {describe(h)} | "
        counts = [(r["residual_calls"], r["jacobian_calls"]) for r in (b, h)]
        same_calls += counts[0] == counts[1]
        mark = "" if counts[0] == counts[1] else "  calls DIFF"
        if b["digest"] == h["digest"]:
            same += 1
            print(line + "same" + mark)
            continue
        change = ((h["loss"] - b["loss"]) / b["loss"], h["iterations"] - b["iterations"],
                  f"seed {b['seed']} {b['mode']}")
        changes.append(change)
        print(line + f"DIFF  loss {change[0]:+.2e}  iterations {change[1]:+d}" + mark)
    print(f"bit-identical fits: {same} of {len(base)}")
    print(f"fits with equal residual and Jacobian calls: {same_calls} of {len(base)}")
    for mode in MODES:
        totals = [[sum(r[key] for r in rows if r["mode"] == mode and r["seed"] in range(10))
                   for key in ("residual_calls", "jacobian_calls")] for rows in (base, head)]
        print(f"{mode} seeds 0-9 residual/Jacobian calls: base {totals[0][0]}/{totals[0][1]}, "
              f"working tree {totals[1][0]}/{totals[1][1]}")
    if changes:
        loss = max(changes, key=lambda c: abs(c[0]))
        iters = max(changes, key=lambda c: abs(c[1]))
        print(f"largest final-loss change: {loss[0]:+.2e} ({loss[2]}); "
              f"largest iteration change: {iters[1]:+d} ({iters[2]})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
