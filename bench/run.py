"""hystfit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {fit,bulk,stream} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; hystfit is imported from ``src/``
of that checkout and nothing else. With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it makes one untraced pass and two
traced passes and reports the per-layer metrics. End-to-end times are
given at the reference speed of ``calibration.py``, each timed block
scaled by reference-kernel samples taken before, during and after it;
the raw wall times are printed beside them. The last line of
standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Scratch files go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from collections import Counter
from time import perf_counter

import numpy as np

import calibration
import tracing
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_REPEATS = 3
IMPORT_REPEATS = 5
TRACED_PASSES = 2

# end-to-end metrics, reported by every workload; see workloads.py for
# what the two stages and a call are on each workload
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("call_ms_p50", "ms"),
    ("call_ms_p99", "ms"),
    ("stage1_s", "s"),
    ("stage2_s", "s"),
)
# per-layer metrics in the result line. Layer times that are zero on a
# workload that never enters the layer (fitting, fileio, cli, metrics,
# signals on `stream`; fitting on `bulk`) are printed in the detail line
# only; their share of the pass is in `<layer>.self_share`.
PER_LAYER = (
    ("envelopes.calls", "count"),
    ("envelopes.samples_per_call", "count"),
    ("envelopes.s", "s"),
    ("operators.gpi_eval.calls", "count"),
    ("operators.gpi_eval.s", "s"),
    ("operators.egpi_eval.s", "s"),
    ("operators.runs", "count"),
    ("operators.op_samples", "count"),
    ("operators.ns_per_op_sample", "ns"),
    ("operators.bank_pass_useful_ratio", "ratio"),
    ("fitting.iterations", "count"),
    ("fitting.residual_evals", "count"),
    ("fitting.residual_evals_per_iter", "count"),
    ("fitting.jacobian.share", "share"),
    ("fitting.trial_accept_ratio", "ratio"),
    ("fileio.save.bytes", "B"),
    ("fileio.save.mb_per_s", "MB/s"),
    ("fileio.load.bytes", "B"),
    ("fileio.load.mb_per_s", "MB/s"),
    ("envelopes.self_share", "share"),
    ("operators.self_share", "share"),
    ("signals.self_share", "share"),
    ("fitting.self_share", "share"),
    ("metrics.self_share", "share"),
    ("fileio.self_share", "share"),
    ("cli.self_share", "share"),
    ("trace.overhead_frac", "share"),
)
# named layer times that can be zero, reported in the detail line
LAYER_TIMES = ("fitting.jacobian.s", "fitting.self_s", "signals.s", "metrics.s",
               "fileio.save.s", "fileio.load.s", "fileio.json.s", "cli.self_s")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("fit", "bulk", "stream"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def src_files():
    pkg = os.path.join(SRC, "hystfit")
    return [os.path.join(pkg, f) for f in sorted(os.listdir(pkg)) if f.endswith(".py")]


def _digest(paths, root):
    """Short sha256 of the files' names below ``root`` and contents; and their line count."""
    digest, lines = hashlib.sha256(), 0
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(path[len(root):].encode() + b"\0" + data)
        lines += data.count(b"\n")
    return digest.hexdigest()[:16], lines


def code_note():
    src_sha, lines = _digest(src_files(), SRC)
    here = os.path.dirname(os.path.abspath(__file__))
    bench = sorted(os.path.join(here, f) for f in os.listdir(here) if f.endswith(".py"))
    return {"src_hystfit_lines": lines, "src_sha256": src_sha,
            "bench_sha256": _digest(bench, here)[0]}


def import_seconds(meter):
    """Median time of ``import hystfit.cli`` in fresh interpreters; (raw, scale)."""
    code = ("import time; t = time.perf_counter(); import hystfit.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)

    def once():
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        return float(out.stdout)

    begun = meter.begin(ticks=False)  # the imports run in other processes
    times = [once() for _ in range(IMPORT_REPEATS)]
    return statistics.median(times), meter.end(begun)[1]


def p99(values):
    return float(np.percentile(values, 99, method="inverted_cdf"))


def measure(wl, seconds):
    """Closed loop of passes: start another only if it should end within ``seconds``."""
    passes, walls = [], []
    start = perf_counter()
    while True:
        a = perf_counter()
        passes.append(wl.run_pass())
        walls.append(perf_counter() - a)
        if perf_counter() - start + statistics.median(walls) > seconds:
            return passes


def exact_mismatches(records):
    """Keys whose values differ between records that must agree exactly."""
    bad = set()
    for rec in records[1:]:
        bad |= {k for k in rec.keys() | records[0].keys() if rec.get(k) != records[0].get(k)}
    return sorted(bad)


def check_across_runs(key, exact):
    """Compare exact counts with an earlier run of the same code, seed and mode."""
    path = os.path.join(WORK, "exact-counts.json")
    try:
        with open(path) as fh:
            store = json.load(fh)
    except (OSError, ValueError):
        store = {}
    bad = exact_mismatches([store[key], exact]) if key in store else []
    store[key] = exact
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return bad


def layer_report(tracer, wl):
    """One untraced pass, then traced passes; per-layer medians over the traced ones."""
    base = wl.run_pass()
    tracer.install()
    tracer.enabled = True
    per_pass, useful, by_request, results = [], [], [], []
    for _ in range(TRACED_PASSES):
        first, before = len(tracer.spans), Counter(tracer.counts)
        res = wl.run_pass()
        m, self_s, use = tracing.layer_metrics(
            tracer.spans[first:], first, tracer.counts - before)
        busy = res.busy_s
        m.update({f"{layer}.self_share": self_s.get(layer, 0.0) / busy
                  for layer in tracing.LAYERS})
        m["trace.overhead_frac"] = busy / base.busy_s - 1.0
        per_pass.append(m)
        useful.append(use)
        by_request.append(tracing.self_share_by_request(
            tracer.spans[first:], first, tracer.request_kinds))
        results.append(res)
    tracer.enabled = False
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    exact = [{k: p[k] for k in tracing.EXACT} for p in per_pass]
    return metrics, useful[0], by_request[0], exact, base, results


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hystfit", "__init__.py")):
        print(f"error: no hystfit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    warnings.simplefilter("ignore", RuntimeWarning)  # empty-play-band notices

    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir):
    # no ticks in a traced run: spans would include them
    meter = calibration.Meter(WORKLOADS[args.workload].kernel, ticks=not args.trace)
    import_s, import_scale = import_seconds(meter)
    import hystfit as hf
    import hystfit.cli  # noqa: F401  (binds hf.cli)
    import hystfit.fileio  # noqa: F401
    if os.path.dirname(hf.__file__) != os.path.join(SRC, "hystfit"):
        print(f"error: imported hystfit from {hf.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = tracing.Tracer()
    wl = WORKLOADS[args.workload](hf, os.path.relpath(workdir, ROOT), args.seed, tracer, meter)

    setups = []  # (raw seconds, scale)
    for _ in range(SETUP_REPEATS if not args.trace else 1):
        begun = meter.begin()
        wl.setup()
        setups.append(meter.end(begun))

    if args.trace:
        layer, useful, by_request, exact_passes, base, traced = layer_report(tracer, wl)
        tracer.dump(os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        passes, checked = [base], [base] + traced
    else:
        passes = checked = measure(wl, args.seconds)
        exact_passes = [p.exact for p in passes]

    bad = exact_mismatches(exact_passes)
    note = code_note()
    bad += check_across_runs(
        f"{args.workload} seed={args.seed} trace={args.trace} src={note['src_sha256']} "
        f"bench={note['bench_sha256']}",
        exact_passes[0])
    for key in bad:
        print(f"check failed: count {key!r} did not repeat exactly", file=sys.stderr)

    attempted = sum(p.attempted for p in checked)
    failed = sum(p.failed for p in checked)

    def timing_stats(scaled):
        """Value and sample count of each statistic, at the reference speed or raw."""
        times = [p.times(scaled) for p in passes]
        calls = [c for _, _, cs in times for c in cs]
        setup = statistics.median(raw * (k if scaled else 1.0) for raw, k in setups)
        return {
            "setup_s": (import_s * (import_scale if scaled else 1.0) + setup, len(setups)),
            "call_ms_p50": (1e3 * statistics.median(calls), len(calls)),
            "call_ms_p99": (1e3 * p99(np.median([cs for _, _, cs in times], axis=0)), len(calls)),
            "stage1_s": (statistics.median(t[0] for t in times), len(passes)),
            "stage2_s": (statistics.median(t[1] for t in times), len(passes)),
            "pass_s": (statistics.median(t[0] + t[1] for t in times), len(passes)),
        }

    stats, raw_stats = timing_stats(True), timing_stats(False)
    stats["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    named = []
    for name, unit, src, scale in wl.named + (("setup_s", "s", "setup_s", 1.0),):
        named.append((name, unit, scale * stats[src][0], stats[src][1]))
        named.append((f"{name}.raw", unit, scale * raw_stats[src][0], raw_stats[src][1]))
    named += [("peak_rss_mb", "MB", *stats["peak_rss_mb"]),
              ("fail_frac", "share", failed / attempted, attempted)]
    kernel_ms = 1e3 * statistics.median(meter.samples)

    mode = "traced" if args.trace else "untraced"
    print(f"hystfit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} {mode} passes={len(passes)}")
    print(f"machine: nproc={os.cpu_count()} python={sys.version.split()[0]} "
          f"numpy={np.__version__} src_hystfit_lines={note['src_hystfit_lines']} "
          f"src_sha256={note['src_sha256']} peak_rss=getrusage(RUSAGE_SELF).ru_maxrss")
    print(f"reference kernel {wl.kernel}: median {kernel_ms:.4f} ms over {len(meter.samples)} samples, "
          f"nominal {1e3 * meter.nominal_s:g} ms; times without .raw are at that speed")
    print(f"{'metric':<36}{'value':>16}  {'unit':<6}{'n':>8}")
    for name, unit, value, n in named:
        print(f"{name:<36}{value:>16.6g}  {unit:<6}{n:>8}")
    detail = {"named": {n: {"value": v, "unit": u, "n": k} for n, u, v, k in named},
              "exact": exact_passes[0], "code": note,
              "kernel_ms": {"kernel": wl.kernel, "median": kernel_ms, "n": len(meter.samples),
                            "nominal": 1e3 * meter.nominal_s}}
    if args.trace:
        for name, unit in PER_LAYER:
            label = " (computed)" if name in tracing.COMPUTED else ""
            print(f"{name:<36}{layer[name]:>16.6g}  {unit:<6}{TRACED_PASSES:>8}{label}")
        for name in LAYER_TIMES:
            print(f"{name:<36}{layer[name]:>16.6g}  {'s':<6}{TRACED_PASSES:>8}")
        for kind, ratio in useful.items():
            print(f"{f'operators.bank_pass_useful_ratio[{kind}]':<36}{ratio:>16.6g}  ratio")
        for key, share in by_request.items():
            kind, layer_name = key.split(".")
            print(f"{f'{layer_name}.self_share[{kind}]':<36}{share:>16.6g}  share")
        detail["layer"] = layer
        detail["useful_by_request"] = useful
        detail["self_share_by_request"] = by_request
        detail["computed"] = list(tracing.COMPUTED)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": stats[name][0], "unit": unit} for name, unit in END_TO_END}
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and not bad, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
