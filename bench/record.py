"""Run the benchmark over several seeds and summarise it.

    python3 bench/record.py --workloads fit,bulk,stream --seeds 0-9 --trace 0 \
        --out bench/results/NAME.json [--compare bench/results/OTHER.json]

Each (workload, seed) runs ``bench/run.py`` in its own process, one after
another, with the ``run_seconds`` of ``BENCHMARK.json``. The summary gives,
per metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread, the distance
between the quartiles as a share of the median. With ``--compare``, each
median is also given as a ratio to the same median in an earlier file,
and flagged when it is worse by more than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def machine_note():
    """CPU count, model and L2/L3 sizes, interpreter and numpy versions."""
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level, size = _read(f"{base}/{index}/level"), _read(f"{base}/{index}/size")
        if level in ("2", "3") and size:
            caches[f"L{level}"] = size
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "caches_per_core_or_shared": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "peak_rss_mb": "getrusage(RUSAGE_SELF).ru_maxrss of the workload process, "
                       "KiB / 1024, read at the end of the run",
    }


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    detail = next(json.loads(l[len("detail: "):]) for l in lines if l.startswith("detail: "))
    return {"seed": seed, "wall_s": wall, "result": json.loads(lines[-1]), "detail": detail}


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default="fit,bulk,stream")
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--out", required=True)
    p.add_argument("--compare")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    previous = None
    if args.compare:
        with open(args.compare) as fh:
            previous = json.load(fh)["summary"]

    doc = {"machine": machine_note(), "seconds": bench["run_seconds"], "trace": args.trace,
           "runs": {}, "summary": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            run = run_once(workload, seed, bench["run_seconds"], args.trace)
            r = run["result"]
            print(f"{workload} seed={seed} correct={r['correct']} failed={r['failed']}/"
                  f"{r['attempted']} wall={run['wall_s']:.1f}s", flush=True)
            runs.append(run)
        doc["code"] = runs[0]["detail"]["code"]
        doc["runs"][workload] = runs
        summary = {}
        for name in runs[0]["result"]["metrics"]:
            summary[name] = summarise([r["result"]["metrics"][name]["value"] for r in runs])
        for name in runs[0]["detail"].get("layer", {}):
            summary.setdefault(name, summarise([r["detail"]["layer"][name] for r in runs]))
        for name in runs[0]["detail"]["named"]:
            summary[f"named.{name}"] = summarise([r["detail"]["named"][name]["value"] for r in runs])
        doc["summary"][workload] = summary
        for name, s in summary.items():
            line = (f"  {workload:<7}{name:<36} median {s['median']:<12.6g} "
                    f"spread {s['spread']:<8.4f}")
            bound = bounds.get(name)
            if bound is not None:
                line += f" bound {bound:<5g}{' SPREAD>BOUND/3' if s['spread'] > bound / 3 else ''}"
            old = previous and previous.get(workload, {}).get(name)
            if old and old["median"]:
                ratio = s["median"] / old["median"]
                line += f" vs earlier x{ratio:.4f}"
                if bound is not None and ratio > 1 + bound:
                    line += " WORSE>BOUND"
            print(line, flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
