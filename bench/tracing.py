"""Spans at hystfit's layer boundaries, recorded from outside the package.

``install`` replaces public functions of each layer with recording
wrappers. hystfit's modules import each other's functions by name (``cli``
imports ``egpi_eval``/``gpi_eval``/``predict``, ``fitting`` and ``signals``
import ``predict``), so every loaded ``hystfit`` module attribute that is
the original function is replaced, not just the defining one. Methods
(envelope ``__call__``, ``Trajectory.__post_init__``) are replaced on the
class. Nothing under ``src/`` is modified.

Each span is ``(name, start, end, parent index, request id)``. Spans stay
in memory and are written once, at the end of a run. Counters are taken
at the same boundaries, outside the timed interval of the span itself.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# layers with spans; ``errors`` does no work and has none
LAYERS = ("envelopes", "operators", "signals", "fitting", "metrics", "fileio", "cli")

# (module, attribute, span name); span names start with their layer
FUNCTIONS = (
    ("hystfit.cli", "main", "cli.main"),
    ("hystfit.fileio", "load_dataset", "fileio.load"),
    ("hystfit.fileio", "save_dataset", "fileio.save"),
    ("hystfit.fileio", "save_simulation", "fileio.save"),
    ("hystfit.fileio", "save_predictions", "fileio.save"),
    ("hystfit.fileio", "save_model", "fileio.json"),
    ("hystfit.fileio", "save_fit_result", "fileio.json"),
    ("hystfit.fileio", "load_model", "fileio.json"),
    ("hystfit.fileio", "load_model_doc", "fileio.json"),
    ("hystfit.fitting", "lm_fit", "fitting.lm_fit"),
    ("hystfit.fitting", "jacobian_fd", "fitting.jacobian"),
    ("hystfit.fitting", "residuals", "fitting.residuals"),
    ("hystfit.operators", "predict", "operators.predict"),
    ("hystfit.operators", "egpi_eval", "operators.egpi_eval"),
    ("hystfit.operators", "gpi_eval", "operators.gpi_eval"),
    ("hystfit.metrics", "compute_metrics", "metrics.compute"),
    ("hystfit.signals", "decaying_sinusoid", "signals.generate"),
)
METHODS = (
    ("hystfit.envelopes", "LinearEnvelope", "__call__", "envelopes.call"),
    ("hystfit.envelopes", "TanhEnvelope", "__call__", "envelopes.call"),
    ("hystfit.signals", "Trajectory", "__post_init__", "signals.validate"),
)


def count_runs(v) -> int:
    """Maximal runs of constant input direction (holds included) in ``v``."""
    s = np.sign(np.diff(v))
    return int(s.size and 1 + np.count_nonzero(s[1:] != s[:-1]))


class Tracer:
    """Span and counter store; recording is on only while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._request = 0
        self.request_kinds = {}
        self._passes = []  # bank passes of the open request, refs kept alive

    @contextlib.contextmanager
    def request(self, kind):
        """Scope of one request: one fit, one CLI call, one chunk or one one-shot call.

        A bank pass is useful the first time a request runs that bank over
        that input array; a repeat pass is wasted work.
        """
        if not self.enabled:
            yield
            return
        self._request += 1
        self.request_kinds[self._request] = kind
        self._passes = []
        try:
            yield
        finally:
            useful = len({(id(m), id(v)) for m, v in self._passes})
            for key, n in (("passes", len(self._passes)), ("needed", useful)):
                self.counts[f"operators.bank_{key}"] += n
                self.counts[f"{key}[{kind}]"] += n
            self._passes = []

    @contextlib.contextmanager
    def paused(self):
        """Run program code without recording it (output checks)."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    # -- wrappers --
    def wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._request)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _hooks(self, attr):
        c = self.counts

        def envelope(args, kwargs):
            c["envelopes.samples"] += np.size(args[1])

        def bank(args, kwargs):
            model, v = args[0], np.asarray(args[2], dtype=float)
            reset = args[3] if len(args) > 3 else kwargs.get("reset", True)
            if not reset and model.states is not None:
                v_ext = np.concatenate(([model.last_input], v))
            else:
                v_ext = v
            c["operators.runs"] += count_runs(v_ext)
            c["operators.op_samples"] += v.size * (model.density.n + 1)
            self._passes.append((model, args[2]))

        def fit_done(args, kwargs, result):
            c["fitting.iterations"] += result.iterations
            c["fitting.accepted_steps"] += len(result.loss_trace) - 1

        def load_bytes(args, kwargs):
            c["fileio.load.bytes"] += os.path.getsize(args[0])

        def save_bytes(args, kwargs, out):
            c["fileio.save.bytes"] += os.path.getsize(args[0])

        return {
            "__call__": (envelope, None),
            "gpi_eval": (bank, None),
            "lm_fit": (None, fit_done),
            "load_dataset": (load_bytes, None),
            "save_dataset": (None, save_bytes),
            "save_simulation": (None, save_bytes),
            "save_predictions": (None, save_bytes),
        }.get(attr, (None, None))

    def install(self):
        """Wrap every layer boundary at every import site."""
        mods = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "hystfit" and m]
        for modname, attr, name in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapped = self.wrap(name, original, *self._hooks(attr))
            for mod in mods:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
        for modname, cls, attr, name in METHODS:
            klass = getattr(sys.modules[modname], cls)
            setattr(klass, attr, self.wrap(name, getattr(klass, attr), *self._hooks(attr)))

    # -- output --
    def dump(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "request"],
                                 "requests": self.request_kinds}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _durations(spans, offset):
    """Inclusive and self seconds of each span.

    ``spans`` may be a slice of the tracer's list starting at index
    ``offset``, as long as no span in it has a parent before the slice.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3] - offset] += d
    return dur, [d - c for d, c in zip(dur, child)]


def span_times(spans, offset=0):
    """Per span name: (count, inclusive seconds, self seconds)."""
    out = {}
    for s, d, slf in zip(spans, *_durations(spans, offset)):
        n, inc, total_self = out.get(s[0], (0, 0.0, 0.0))
        out[s[0]] = (n + 1, inc + d, total_self + slf)
    return out


def self_share_by_request(spans, offset, kinds):
    """Each layer's self time as a share of the traced time of each request kind."""
    layer_s, busy = Counter(), Counter()
    for s, d, slf in zip(spans, *_durations(spans, offset)):
        kind = kinds[s[4]]
        layer_s[kind, s[0].split(".")[0]] += slf
        if s[3] < 0:
            busy[kind] += d
    return {f"{kind}.{layer}": v / busy[kind] for (kind, layer), v in sorted(layer_s.items())}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans, offset, counts):
    """Per-layer metrics of one traced pass.

    Returns ``(metrics, self seconds per layer, bank-pass useful ratio per
    request kind)``. ``counts`` holds the counter increments of the pass.
    """
    st = span_times(spans, offset)

    def get(name, i):
        return st.get(name, (0, 0.0, 0.0))[i]

    lm_direct_res = sum(
        1
        for s in spans
        if s[0] == "fitting.residuals" and s[3] >= 0 and spans[s[3] - offset][0] == "fitting.lm_fit"
    )
    fits = get("fitting.lm_fit", 0)
    save_s, load_s = get("fileio.save", 1), get("fileio.load", 1)
    op_samples = counts["operators.op_samples"]
    m = {
        "envelopes.calls": get("envelopes.call", 0),
        "envelopes.samples_per_call": _ratio(counts["envelopes.samples"], get("envelopes.call", 0)),
        "envelopes.s": get("envelopes.call", 1),
        "operators.gpi_eval.calls": get("operators.gpi_eval", 0),
        "operators.gpi_eval.s": get("operators.gpi_eval", 1),
        "operators.egpi_eval.s": get("operators.egpi_eval", 1),
        "operators.runs": counts["operators.runs"],
        "operators.op_samples": op_samples,
        "operators.ns_per_op_sample": _ratio(1e9 * get("operators.gpi_eval", 1), op_samples),
        "operators.bank_pass_useful_ratio": _ratio(
            counts["operators.bank_needed"], counts["operators.bank_passes"]
        ),
        "fitting.iterations": counts["fitting.iterations"],
        "fitting.residual_evals": get("fitting.residuals", 0),
        "fitting.residual_evals_per_iter": _ratio(
            get("fitting.residuals", 0), counts["fitting.iterations"]
        ),
        "fitting.jacobian.s": get("fitting.jacobian", 1),
        "fitting.jacobian.share": _ratio(get("fitting.jacobian", 1), get("fitting.lm_fit", 1)),
        # trial evaluations: residual calls made by lm_fit itself, less the
        # initial and the final evaluation of each fit
        "fitting.trial_accept_ratio": _ratio(
            counts["fitting.accepted_steps"], lm_direct_res - 2 * fits
        ),
        "fitting.self_s": get("fitting.lm_fit", 2),
        "signals.s": get("signals.validate", 1) + get("signals.generate", 1),
        "metrics.s": get("metrics.compute", 1),
        "fileio.save.s": save_s,
        "fileio.save.bytes": counts["fileio.save.bytes"],
        "fileio.save.mb_per_s": _ratio(counts["fileio.save.bytes"] / 1e6, save_s),
        "fileio.load.s": load_s,
        "fileio.load.bytes": counts["fileio.load.bytes"],
        "fileio.load.mb_per_s": _ratio(counts["fileio.load.bytes"] / 1e6, load_s),
        "fileio.json.s": get("fileio.json", 1),
        "cli.self_s": get("cli.main", 2),
    }
    self_by_layer = Counter()
    for name, (_, _, slf) in st.items():
        self_by_layer[name.split(".")[0]] += slf
    useful = {
        kind: _ratio(counts[f"needed[{kind}]"], counts[f"passes[{kind}]"])
        for kind in sorted({k[7:-1] for k in counts if k.startswith("passes[")})
    }
    return m, dict(self_by_layer), useful


# counts that must repeat exactly when the same code runs the same inputs
EXACT = (
    "fitting.iterations",
    "fitting.residual_evals",
    "envelopes.calls",
    "operators.runs",
    "operators.op_samples",
    "fileio.save.bytes",
    "fileio.load.bytes",
)
# counts worked out from inputs or file sizes rather than counted calls
COMPUTED = ("operators.runs", "operators.op_samples", "fileio.save.bytes", "fileio.load.bytes")
