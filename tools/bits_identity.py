"""Check that model outputs keep their bits against an earlier revision.

Usage::

    python tools/bits_identity.py BASE_REV

Exports ``git archive BASE_REV src`` to a temporary directory, as
``tools/fit_sweep.py`` does. The inputs are built once, seeded: piecewise
inputs of monotone runs of 1 to 2,000 samples (many longer than 1,024,
twice the block of the bank evaluation), exact holds, and dither rounded
to a 0.05 quantum, which makes runs of a few samples and repeats. Each
tree then evaluates every case in one subprocess with
``PYTHONPATH=<tree>/src`` and hashes, per case:

- ``egpi_outputs`` and ``predict`` of the reference model (tanh
  envelopes, two flags) and of the linear descend-flag model of recovery
  seed ``case`` (``tests/fixtures.recovery_params``, flag 6);
- ``egpi_eval(reset=False)`` of both models over the input cut into
  chunks at seeded positions, with every value the model's memory holds
  at the end (``stored_memory``, which reads a tree that stores it in
  ``model.memory`` and one that keeps it in fields of each bank alike, so
  both trees hash every stored value);
- ``fitting.residuals`` and ``fitting.jacobian`` in egpi and in gpi mode.

It prints ``identical``, or ``DIFF`` with the first case and item whose
bits differ, and exits 1 on a difference, 0 otherwise. It times nothing;
``bench/run.py`` is where speed is measured. Needs git, numpy and the
Python standard library.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from cli_identity import ROOT, export_src

CASES = 40
FLAG = 6.0  # the linear model's descending flag, that of the recovery models


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


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for x in arrays:
        h.update(np.ascontiguousarray(x).tobytes())
    return h.hexdigest()


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


def hash_all(cases_path: str) -> list[dict]:
    """Hash every item of every case with the ``hystfit`` on ``sys.path``."""
    from hystfit import Trajectory, build_model, egpi_eval, predict, reference_model
    from hystfit.fitting import jacobian, residuals
    from hystfit.operators import egpi_outputs

    data = np.load(cases_path)
    rows = []
    for case in range(CASES):
        v, cuts, params = data[f"v{case}"], data[f"cuts{case}"], data[f"params{case}"]
        t = 1e-3 * np.arange(v.size)
        items = {}
        for name, make in (("reference", reference_model),
                           ("linear", lambda: build_model(params, "egpi", FLAG))):
            items[f"{name} egpi_outputs"] = digest(*egpi_outputs(make(), t, v))
            items[f"{name} predict"] = digest(predict(make(), t, v))
            model = make()
            chunks = [egpi_eval(model, t[a:b], v[a:b], reset=(a == 0))
                      for a, b in zip([0, *cuts], [*cuts, v.size])]
            items[f"{name} chunked egpi_eval"] = digest(
                *(x for z, active in chunks for x in (z, active)), *stored_memory(model))
        traj = Trajectory(t=t, v=v, theta=np.zeros(v.size))
        gpi = params[[0, 1, 2, 3, 6, 7, 8, 9]]  # bank 1 of the egpi layout
        for mode, p, v_f in (("egpi", params, FLAG), ("gpi", gpi, None)):
            items[f"{mode} residuals"] = digest(residuals(p, traj, v_f, mode))
            items[f"{mode} jacobian"] = digest(jacobian(p, traj, v_f, mode))
        rows.append(items)
    return rows


def run_tree(src: Path, cases_path: Path) -> list[dict]:
    """``hash_all`` in a subprocess that imports ``hystfit`` from ``src``."""
    argv = [sys.executable, "-W", "ignore::RuntimeWarning", __file__, "--worker",
            str(cases_path)]
    proc = subprocess.run(argv, check=True, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    return json.loads(proc.stdout)


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
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(hash_all(args.worker)))
        return 0
    if args.base_rev is None:
        parser.error("BASE_REV is required")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        export_src(args.base_rev, tmp / "base")
        write_cases(tmp / "cases.npz")
        print(describe(tmp / "cases.npz"))
        base = run_tree(tmp / "base" / "src", tmp / "cases.npz")
        head = run_tree(ROOT / "src", tmp / "cases.npz")
    items = sum(len(row) for row in base)
    for case, (b, h) in enumerate(zip(base, head)):
        for name in b:
            if b[name] != h.get(name):
                print(f"DIFF: case {case}, {name} (first of {items} items to differ)")
                return 1
    print(f"identical: {items} items over {CASES} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
