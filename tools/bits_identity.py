"""Check that model outputs keep their bits against an earlier revision.

Usage::

    python tools/bits_identity.py BASE_REV

Exports ``git archive BASE_REV src`` to a temporary directory, as
``tools/fit_sweep.py`` does. The inputs are built once, seeded: piecewise
inputs of monotone runs of 1 to 2,000 samples (many longer than 1,024,
twice the block of the bank evaluation), exact holds, and dither rounded
to a 0.05 quantum, which makes runs of a few samples and repeats. Each
tree then evaluates every case in one subprocess with
``PYTHONPATH=<tree>/src``, which saves these items of each case to the
temporary directory, each as one float array:

- ``egpi_outputs`` and ``predict`` of the reference model (tanh
  envelopes, two flags) and of the linear descend-flag model of recovery
  seed ``case`` (``tests/fixtures.recovery_params``, flag 6);
- ``egpi_eval(reset=False)`` of both models over the input cut into
  chunks at seeded positions, with every value the model's memory holds
  at the end (``stored_memory``, which reads a tree that stores it in
  ``model.memory`` and one that keeps it in fields of each bank alike, so
  both trees save every stored value);
- the same three items of the two unequal-bank models of
  ``tests/fixtures.unequal_banks_model`` (``wide-narrow``: 31 linear and
  2 tanh operators, two flags; ``narrow-mid``: 2 tanh and 8 linear ones,
  descend flag), whose banks sit on rows of different lengths in a pass
  over both (on a tree whose ``EgpiModel`` takes a ``SwitchMode``, the
  fixtures get their mode from their flags, ``switched_with_mode``);
- ``gpi_eval(reset=False)`` of the linear model's first bank alone, and
  of each bank of the unequal-bank models alone, over the same chunks,
  with its ``stored_memory``: a lone bank's continuation, which starts
  from the run-entering states when a chunk goes on with the run the
  last one ended in;
- ``fitting.residuals``, ``fitting.jacobian`` and the central-difference
  ``fitting.jacobian_fd`` in egpi and in gpi mode, and ``residuals`` and
  ``jacobian`` of banks of one and of two thresholds (``n`` 1 and 2),
  where the threshold grid and the tangent take their small-``n``
  branches;
- in both modes, the final parameters and ``loss_trace`` of a five-
  iteration ``lm_fit`` of the linear model, from 1.1 times its
  parameters, to that model's own output. The fit plans its input once
  for all its residual and Jacobian calls; each public function above
  plans per call.

It prints one ``DIFF`` line per item whose bits differ, with how many of
its values differ (and, for a Jacobian, of its rows) and the largest
difference relative to the item's largest |value| in the base tree, then
``identical`` or the count of differing items. It exits 1 on a
difference, 0 otherwise. It times nothing; ``bench/run.py`` is where
speed is measured. Needs git, numpy and the Python standard library.
"""

from __future__ import annotations

import argparse
import functools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from cli_identity import ROOT, export_src

CASES = 40
FLAG = 6.0  # the linear model's descending flag, that of the recovery models
UNEQUAL = ("wide-narrow", "narrow-mid")  # kinds of tests/fixtures.unequal_banks_model


def make_input(rng: np.random.Generator) -> np.ndarray:
    """Runs, holds and quantized dither between 0 and 10, 3,000 samples
    or more."""
    level = float(rng.uniform(0.0, 10.0))
    pieces = [np.array([level])]
    size = 1
    while size < 3000:
        kind = rng.integers(3)
        if kind == 0:  # a monotone run to a new level
            n = int(rng.integers(1, 2001))
            target = float(rng.uniform(0.0, 10.0))
            piece = np.linspace(level, target, n + 1)[1:]
        elif kind == 1:  # an exact hold
            piece = np.full(int(rng.integers(1, 200)), level)
        else:
            n = int(rng.integers(10, 300))
            piece = np.round((level + rng.normal(0.0, 0.1, n)) / 0.05) * 0.05
        pieces.append(piece)
        size += piece.size
        level = float(piece[-1])
    return np.concatenate(pieces)


def write_cases(path: Path) -> None:
    """Every case's input, chunk cuts and parameters, in one ``.npz``; the
    parameters are those of recovery seed ``case``
    (``tests/fixtures.recovery_params``)."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from fixtures import recovery_params

    arrays = {}
    for case in range(CASES):
        rng = np.random.default_rng(case)
        v = make_input(rng)
        cuts = np.unique(rng.integers(1, v.size, size=int(rng.integers(1, 9))))
        arrays.update({f"v{case}": v, f"cuts{case}": cuts, f"params{case}": recovery_params(case)})
    np.savez(path, **arrays)


def pack(*arrays) -> np.ndarray:
    """One array as floats, its shape kept; several flattened and joined."""
    if len(arrays) == 1:
        return np.asarray(arrays[0], dtype=float)
    return np.concatenate([np.ravel(x).astype(float) for x in arrays])


def stored_memory(model) -> list:
    """Per bank, in order: its states, the states its last run was entered
    with, the run length and the last input. Read from ``model.memory``
    where the model has one, else from the fields of each bank."""
    if not hasattr(model, "memory"):
        return [x for bank in model.submodels
                for x in (bank.states, bank.run_states, bank.run_length, bank.last_input)]
    m = model.memory
    return [x for states, entered in zip(m.states, m.run_states)
            for x in (states, entered, m.run_length, m.last_input)]


def switched_with_mode(module) -> None:
    """On a tree whose ``EgpiModel`` takes a ``SwitchMode`` beside its flags,
    make ``module`` build its switched models with the mode its flags
    imply: descend-flag without ``flag_asc``, two-flag with it. A tree
    without ``SwitchMode`` is left alone."""
    from hystfit import operators

    if not hasattr(operators, "SwitchMode"):
        return
    modes = operators.SwitchMode

    def switched(submodels, flag_asc=None, flag_desc=None):
        mode = modes.DESCEND_FLAG if flag_asc is None else modes.TWO_FLAG
        return operators.EgpiModel(submodels, mode, flag_asc, flag_desc)

    module.EgpiModel = switched


def save_all(cases_path: str, out: str) -> None:
    """Save every item of every case, evaluated with the ``hystfit`` on
    ``sys.path``, to ``out/<case>.npz``."""
    from hystfit import Trajectory, build_model, egpi_eval, gpi_eval, predict, reference_model
    from hystfit.fitting import FitConfig, jacobian, jacobian_fd, lm_fit, residuals
    from hystfit.operators import egpi_outputs

    sys.path.append(str(ROOT / "tests"))  # after the tree's src, which PYTHONPATH puts first
    import fixtures
    from fixtures import unequal_banks_model

    switched_with_mode(fixtures)

    data = np.load(cases_path)
    for case in range(CASES):
        v, cuts, params = data[f"v{case}"], data[f"cuts{case}"], data[f"params{case}"]
        t = 1e-3 * np.arange(v.size)
        spans = list(zip([0, *cuts], [*cuts, v.size]))
        items = {}
        models = {"reference": reference_model, "linear": lambda: build_model(params, "egpi", FLAG),
                  **{kind: functools.partial(unequal_banks_model, kind) for kind in UNEQUAL}}
        for name, make in models.items():
            items[f"{name} egpi_outputs"] = pack(*egpi_outputs(make(), t, v))
            items[f"{name} predict"] = pack(predict(make(), t, v))
            model = make()
            chunks = [egpi_eval(model, t[a:b], v[a:b], reset=(a == 0)) for a, b in spans]
            items[f"{name} chunked egpi_eval"] = pack(
                *(x for z, active in chunks for x in (z, active)), *stored_memory(model))
        for name, banks in (("linear", models["linear"]().submodels[:1]),
                            *((kind, models[kind]().submodels) for kind in UNEQUAL)):
            for k, bank in enumerate(banks, 1):
                chunks = [gpi_eval(bank, t[a:b], v[a:b], reset=(a == 0)) for a, b in spans]
                items[f"{name} chunked gpi_eval of bank {k}"] = pack(*chunks, *stored_memory(bank))
        traj = Trajectory(t=t, v=v, theta=np.zeros(v.size))
        gpi = params[[0, 1, 2, 3, 6, 7, 8, 9]]  # bank 1 of the egpi layout
        for mode, p, v_f in (("egpi", params, FLAG), ("gpi", gpi, None)):
            items[f"{mode} residuals"] = pack(residuals(p, traj, v_f, mode))
            items[f"{mode} jacobian"] = pack(jacobian(p, traj, v_f, mode))
            items[f"{mode} jacobian_fd"] = pack(jacobian_fd(p, traj, v_f, mode))
            for n in (1, 2):
                items[f"{mode} residuals n={n}"] = pack(residuals(p, traj, v_f, mode, n))
                items[f"{mode} jacobian n={n}"] = pack(jacobian(p, traj, v_f, mode, n))
            own = Trajectory(t=t, v=v, theta=predict(build_model(p, mode, v_f), t, v))
            fit = lm_fit(own, FitConfig(max_iterations=5, v_f=v_f, initial=1.1 * p), mode)
            items[f"{mode} lm_fit"] = pack(fit.params, fit.loss_trace)
        np.savez(Path(out) / f"{case}.npz", **items)


def run_tree(src: Path, cases_path: Path, out: Path) -> None:
    """``save_all`` in a subprocess that imports ``hystfit`` from ``src``."""
    out.mkdir()
    argv = [sys.executable, "-W", "ignore::RuntimeWarning", __file__, "--worker",
            str(cases_path), str(out)]
    subprocess.run(argv, check=True, env={**os.environ, "PYTHONPATH": str(src)})


def compare(base: np.ndarray, head: np.ndarray) -> str | None:
    """None if the two arrays hold the same bits, else how they differ."""
    if base.shape != head.shape:
        return f"shape {base.shape} -> {head.shape}"
    bits = base.view(np.uint64) != head.view(np.uint64)
    if not bits.any():
        return None
    rows = f" ({np.any(bits, axis=1).sum()} of {len(bits)} rows)" if bits.ndim == 2 else ""
    largest = np.abs(head - base).max() / (np.abs(base).max() or 1.0)
    return f"{bits.sum()} of {bits.size} values differ{rows}, by at most {largest:.2g} of max |value|"


def describe(cases_path: Path) -> str:
    """Samples, runs and long runs over all cases."""
    data = np.load(cases_path)
    samples = runs = longest = over = 0
    for case in range(CASES):
        v = data[f"v{case}"]
        d = np.sign(np.diff(v))
        bounds = np.concatenate(([0], np.flatnonzero(d[1:] != d[:-1]) + 1, [d.size]))
        size = np.diff(bounds)
        samples, runs = samples + v.size, runs + size.size
        longest, over = max(longest, int(size.max())), over + int((size > 1024).sum())
    return (f"{CASES} cases, {samples} samples, {runs} runs; longest run {longest}, "
            f"{over} runs longer than 1,024 samples")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_rev", nargs="?")
    parser.add_argument("--worker", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        save_all(*args.worker)
        return 0
    if args.base_rev is None:
        parser.error("BASE_REV is required")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        export_src(args.base_rev, tmp / "base")
        write_cases(tmp / "cases.npz")
        print(describe(tmp / "cases.npz"))
        run_tree(tmp / "base" / "src", tmp / "cases.npz", tmp / "base-out")
        run_tree(ROOT / "src", tmp / "cases.npz", tmp / "head-out")
        items = differ = 0
        for case in range(CASES):
            with (np.load(tmp / "base-out" / f"{case}.npz") as base,
                  np.load(tmp / "head-out" / f"{case}.npz") as head):
                for name in base.files:
                    items += 1
                    if (how := compare(base[name], head[name])) is not None:
                        differ += 1
                        print(f"DIFF: case {case}, {name}: {how}")
    if differ:
        print(f"{differ} of {items} items differ over {CASES} cases")
        return 1
    print(f"identical: {items} items over {CASES} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
