"""The three benchmark workloads.

Each workload has one client in a closed loop: the next call starts only
when the previous one has returned. ``setup`` builds the inputs from the
seed, writes the input files and warms up; ``run_pass`` makes one pass
over the workload's calls, checks their outputs and returns a
``PassResult``. A pass has two stages, reported as ``stage1_s`` and
``stage2_s``:

=========  ==========================  ==============================
workload   stage 1                     stage 2
=========  ==========================  ==============================
fit        the egpi fits               the gpi fits
bulk       ``hystfit simulate``        ``hystfit evaluate``
stream     chunked ``egpi_eval`` loop  one-shot ``predict``
=========  ==========================  ==============================

Each timed block (a CLI call, the chunk loop, the one-shot call) is
timed by ``calibration.Meter``; a pass keeps the block's wall time and
the factor from it to the reference speed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import traceback
from dataclasses import dataclass, field

import numpy as np

import inputs

RMSE_BOUND_DEG = 0.2  # AC-3 recovery bound against the clean signal
STREAM_TOL = 1e-12


@dataclass
class PassResult:
    blocks: list = field(default_factory=list)  # (stage, seconds, scale, call latencies)
    attempted: int = 0
    failed: int = 0
    exact: dict = field(default_factory=dict)  # counts that must repeat

    def add(self, stage, seconds, scale, calls=None):
        """Add a timed block of ``stage`` (1 or 2) and its calls, by default the block."""
        self.blocks.append((stage, seconds, scale, [seconds] if calls is None else calls))

    def times(self, scaled):
        """(stage 1 s, stage 2 s, call latencies), at the reference speed or raw."""
        stages, calls = [0.0, 0.0], []
        for stage, seconds, scale, block_calls in self.blocks:
            k = scale if scaled else 1.0
            stages[stage - 1] += seconds * k
            calls.extend(c * k for c in block_calls)
        return stages[0], stages[1], calls

    @property
    def busy_s(self):
        """Raw wall time of the timed blocks."""
        return sum(seconds for _, seconds, _, _ in self.blocks)

    def fail(self, what):
        self.failed += 1
        if self.failed <= 5:
            print(f"check failed: {what}", file=sys.stderr)


def _cli(hf, argv):
    """Run ``hystfit.cli.main`` in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = hf.cli.main(argv)
        except Exception:  # an uncaught error is a failed call, not a crashed benchmark
            traceback.print_exc()
            code = -1
    return code, out.getvalue()


class Workload:
    """Base of the workloads.

    ``named`` lists the workload's own end-to-end figures as
    ``(name, unit, statistic, scale)``; each is a scaled copy of one of
    the generic statistics the benchmark reports for every workload.
    ``kernel`` names the reference kernel in ``calibration.py`` that
    resembles the workload's work.
    """

    named = ()
    kernel = "mixed"

    def __init__(self, hf, workdir, seed, tracer, meter):
        self.hf, self.dir, self.seed, self.tracer, self.meter = hf, workdir, seed, tracer, meter

    def timed_cli(self, argv):
        """``_cli`` as a timed block; returns (code, stdout, seconds, scale)."""
        begun = self.meter.begin()
        code, out = _cli(self.hf, argv)
        return (code, out) + self.meter.end(begun)

    def path(self, name):
        return os.path.join(self.dir, name)


class FitWorkload(Workload):
    """``hystfit fit`` on AC-3 recovery datasets, egpi and gpi mode each.

    Recovery seed 0 converges (62 egpi iterations); recovery seed 1 stops
    on ``max_iterations`` (200) in egpi mode, so a change to the stopping
    or damping rule shows. The data values follow the AC-3 recipe
    exactly: a fit's iteration count depends on the noise draw (58 to 95
    egpi iterations over five draws for recovery seed 0), which would
    swamp any speed change. The workload seed therefore shifts the time
    stamps, which every fit reads, parses and validates but which do not
    enter the model output.
    """

    recovery_seeds = (0, 1)
    modes = ("egpi", "gpi")
    named = (("fit_s_p50", "s", "call_ms_p50", 1e-3), ("fit_batch_s", "s", "pass_s", 1.0))
    kernel = "vector"

    def setup(self):
        hf = self.hf
        t0 = float(np.random.default_rng(self.seed).uniform(0.0, 1000.0))
        self.data = {}
        for r in self.recovery_seeds:
            t, v, theta, clean = inputs.recovery_dataset(hf, r, t0)
            path = self.path(f"recovery{r}.csv")
            inputs.write_csv(path, ["t", "v", "theta"], [t, v, theta])
            self.data[r] = (path, t, v, clean)
        warm = self.path("warm.json")
        with open(warm, "w") as fh:
            json.dump({"max_iterations": 1}, fh)
        for mode in self.modes:
            code, _ = _cli(hf, self._argv(self.recovery_seeds[0], mode, "warm") + ["--config", warm])
            if code != 0:
                raise RuntimeError(f"warm-up fit ({mode}) exited {code}")

    def _argv(self, r, mode, tag):
        return ["fit", "--data", self.data[r][0], "--mode", mode,
                "--flag-point", repr(inputs.SWEEP_FLAG),
                "--out-prefix", self.path(f"{tag}{r}.{mode}")]

    def run_pass(self):
        res = PassResult()
        for mode in self.modes:
            for r in self.recovery_seeds:
                with self.tracer.request("fit"):
                    code, _, elapsed, scale = self.timed_cli(self._argv(r, mode, "fit"))
                res.attempted += 1
                res.add(1 if mode == "egpi" else 2, elapsed, scale)
                with self.tracer.paused():
                    self._check(res, r, mode, code)
        return res

    def _check(self, res, r, mode, code):
        name = f"fit recovery{r} {mode}"
        if code != 0:
            return res.fail(f"{name} exited {code}")
        prefix = self.path(f"fit{r}.{mode}")
        with open(prefix + ".result.json") as fh:
            doc = json.load(fh)
        res.exact[f"iterations[{r}.{mode}]"] = doc["iterations"]
        res.exact[f"reason[{r}.{mode}]"] = doc["reason"]
        for ext in (".result.json", ".model.json"):
            res.exact[f"bytes[{r}.{mode}{ext}]"] = os.path.getsize(prefix + ext)
        if mode == "egpi":
            _, t, v, clean = self.data[r]
            pred = self.hf.predict(self.hf.fileio.load_model(prefix + ".model.json"), t, v)
            rmse = float(np.sqrt(np.mean((pred - clean) ** 2)))
            if not rmse < RMSE_BOUND_DEG:
                res.fail(f"{name}: rmse {rmse:.4f} deg vs clean signal >= {RMSE_BOUND_DEG}")


class BulkWorkload(Workload):
    """200k-sample ``simulate --reference`` and ``evaluate`` through the CLI.

    ``--dt 5e-5`` over 10 s gives 200,001 samples. The seed sets the
    simulate start time and the shape and noise of the evaluate dataset.
    The first pass of a run parses both CSV files back and compares them
    with results computed in memory; a later pass checks that each file
    has the same bytes as the checked one.
    """

    named = (("simulate_s", "s", "stage1_s", 1.0), ("evaluate_s", "s", "stage2_s", 1.0))

    def setup(self):
        hf = self.hf
        rng = np.random.default_rng(self.seed)
        self.t_start = float(rng.uniform(0.0, 1.0))
        self.t_end = self.t_start + 10.0
        self.model_path = self.path("reference.model.json")
        hf.fileio.save_model(self.model_path, hf.reference_model())
        self.t, self.v, self.theta = inputs.bulk_dataset(hf, self.seed, hf.reference_model())
        self.data_path = self.path("bulk.csv")
        cols = ["t", "v", "theta"]
        inputs.write_csv(self.data_path, cols, [self.t, self.v, self.theta])
        small = self.path("warm.csv")
        inputs.write_csv(small, cols, [self.t[:10_000], self.v[:10_000], self.theta[:10_000]])
        self.expected = None
        self.checked = {}  # file name -> sha256 of the output that passed the full check
        for argv in (["simulate", "--reference", "--out", self.path("warm.sim.csv")],
                     ["evaluate", "--data", small, "--params", self.model_path,
                      "--out", self.path("warm.pred.csv")]):
            code, _ = _cli(hf, argv)
            if code != 0:
                raise RuntimeError(f"warm-up {argv[0]} exited {code}")

    def run_pass(self):
        res = PassResult()
        sim_path, pred_path = self.path("sim.csv"), self.path("pred.csv")
        with self.tracer.request("simulate"):
            code, _, elapsed, scale = self.timed_cli([
                "simulate", "--reference", "--t-start", repr(self.t_start),
                "--t-end", repr(self.t_end), "--dt", repr(inputs.BULK_DT), "--out", sim_path])
        res.attempted += 1
        res.add(1, elapsed, scale)
        with self.tracer.paused():
            self._check_simulate(res, code, sim_path)
        with self.tracer.request("evaluate"):
            code, out, elapsed, scale = self.timed_cli([
                "evaluate", "--data", self.data_path, "--params", self.model_path,
                "--out", pred_path])
        res.attempted += 1
        res.add(2, elapsed, scale)
        with self.tracer.paused():
            self._check_evaluate(res, code, out, pred_path)
        return res

    def _expected(self):
        """In-memory results the CLI files must reproduce exactly."""
        if self.expected is None:
            hf = self.hf
            traj = hf.decaying_sinusoid(t_start=self.t_start, t_end=self.t_end, dt=inputs.BULK_DT)
            z, active = hf.egpi_eval(hf.reference_model(), traj.t, traj.v)
            sub1, sub2 = hf.reference_model().submodels
            z1 = hf.gpi_eval(sub1, traj.t, traj.v)
            z2 = hf.gpi_eval(sub2, traj.t, traj.v)
            theta_hat = hf.predict(hf.reference_model(), self.t, self.v)
            self.expected = {
                "sim": np.column_stack([traj.t, traj.v, z, z1, z2, active]),
                "pred": np.column_stack(
                    [self.t, self.v, self.theta, theta_hat, theta_hat - self.theta]),
                "metrics": hf.compute_metrics(self.theta, theta_hat).to_dict(),
            }
        return self.expected

    @staticmethod
    def _parse(path, header):
        with open(path) as fh:
            first = fh.readline().rstrip("\n")
        if first != header:
            raise ValueError(f"{path}: header {first!r}, expected {header!r}")
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)

    @staticmethod
    def _digest(path):
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def _check_simulate(self, res, code, path):
        if code != 0:
            return res.fail(f"simulate exited {code}")
        res.exact["bytes[sim.csv]"] = os.path.getsize(path)
        digest = self._digest(path)
        if self.checked.get("sim.csv") == digest:
            return
        got = self._parse(path, "t,v,z,z1,z2,active")
        want = self._expected()["sim"]
        if got.shape != want.shape or not np.array_equal(got, want):
            return res.fail("simulate CSV does not parse back to the in-memory simulation")
        self.checked["sim.csv"] = digest

    def _check_evaluate(self, res, code, out, path):
        if code != 0:
            return res.fail(f"evaluate exited {code}")
        res.exact["bytes[pred.csv]"] = os.path.getsize(path)
        expected = self._expected()
        printed = json.loads(out[out.index("{"): out.rindex("}") + 1])
        if printed != expected["metrics"]:
            res.fail(f"evaluate printed {printed}, compute_metrics gives {expected['metrics']}")
        digest = self._digest(path)
        if self.checked.get("pred.csv") == digest:
            return
        got = self._parse(path, "t,v,theta,theta_hat,error")
        if got.shape != expected["pred"].shape or not np.array_equal(got, expected["pred"]):
            return res.fail("evaluate CSV does not parse back to the in-memory prediction")
        self.checked["pred.csv"] = digest


class StreamWorkload(Workload):
    """Reference model on a dither sweep, chunked as a controller loop calls it.

    50,000 samples at 1 kHz in 50-sample chunks (1,000 calls per pass),
    then the whole series in one ``predict`` call. About four in five
    samples start a new monotone run and about a quarter are holds. A
    pass has enough calls that its 99th percentile has ten beyond it,
    and is short enough that a run makes about ten passes.
    """

    n = 50_000
    chunk = 50
    named = (("chunk_us_p50", "us", "call_ms_p50", 1e3), ("chunk_us_p99", "us", "call_ms_p99", 1e3),
             ("oneshot_s", "s", "stage2_s", 1.0))

    def setup(self):
        hf = self.hf
        self.t, self.v = inputs.dither_sweep(self.seed, self.n)
        self.reference = None
        m = hf.reference_model()
        for i in range(0, 2000, self.chunk):
            hf.egpi_eval(m, self.t[i:i + self.chunk], self.v[i:i + self.chunk], reset=i == 0)
        hf.predict(hf.reference_model(), self.t[:2000], self.v[:2000])

    def run_pass(self):
        hf, t, v, c, meter = self.hf, self.t, self.v, self.chunk, self.meter
        res = PassResult()
        model = hf.reference_model()
        zs, acts, calls = [], [], []
        begun = meter.begin()
        for i in range(0, self.n, c):
            with self.tracer.request("chunk"):
                a = meter.clock()
                z, active = hf.egpi_eval(model, t[i:i + c], v[i:i + c], reset=i == 0)
                calls.append(meter.clock() - a)
            zs.append(z)
            acts.append(active)
        res.add(1, *meter.end(begun), calls)
        model = hf.reference_model()
        begun = meter.begin()
        with self.tracer.request("oneshot"):
            z_one = hf.predict(model, t, v)
        res.add(2, *meter.end(begun), calls=[])
        res.attempted = len(zs) + 1
        with self.tracer.paused():
            self._check(res, zs, acts, z_one)
        return res

    def _check(self, res, zs, acts, z_one):
        if self.reference is None:
            self.reference = self.hf.egpi_eval(self.hf.reference_model(), self.t, self.v)
        z_ref, act_ref = self.reference
        for k, (z, act) in enumerate(zip(zs, acts)):
            sl = slice(k * self.chunk, k * self.chunk + z.size)
            if not (np.max(np.abs(z - z_ref[sl])) <= STREAM_TOL and np.array_equal(act, act_ref[sl])):
                res.fail(f"chunk {k} differs from the one-shot evaluation")
        if not np.max(np.abs(z_one - z_ref)) <= STREAM_TOL:
            res.fail("one-shot predict differs from one-shot egpi_eval")


WORKLOADS = {"fit": FitWorkload, "bulk": BulkWorkload, "stream": StreamWorkload}
