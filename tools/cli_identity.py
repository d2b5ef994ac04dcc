"""Check that the CLI writes the same bytes as at an earlier revision.

Usage::

    python tools/cli_identity.py BASE_REV

Exports ``git archive BASE_REV src`` to a temporary directory and runs one
fixed CLI scenario twice: against that tree and against the working tree.
Each command is a subprocess with ``PYTHONPATH=<tree>/src`` and
``SOURCE_DATE_EPOCH=0``, run in a fresh directory per tree. The scenario
writes the model from the README's "Model JSON" section (and its
one-bank GPI variant) and a fit config, generates its datasets with
``hystfit generate``, then runs ``simulate``, ``fit`` (egpi and gpi, and
one egpi fit that reads the config and detects its flag point),
``evaluate``, ``fit-all --jobs 2`` and ``report``. Its last steps cross
the 4,096-row blocks of the dataset CSV writer and take both paths of the
reader: a ``simulate --reference`` at the default ``--dt`` (10,001 rows),
and ``evaluate`` on a 10,001-row dataset rewritten twice, once with CRLF
line endings and blank lines (parsed by numpy) and once with a quoted
field past its 4,096th row (which numpy rejects, so the file is read row
by row). Then ``simulate --reference``, ``generate`` and ``evaluate`` at
``--dt 2e-4`` write 50,001 rows each, enough for the writer to split the
rows between forked processes on a machine with two or more usable CPUs.
The scenario closes on a quantized dither input (``dither_rows``, no
RNG), whose short runs and holds fill blocks of several runs:
``generate --input`` and ``evaluate`` run on it.

Every file the scenario leaves and every command's stdout and exit code
are compared byte for byte, one line per item. A closing line gives the
line count of ``src/**/*.py`` in both trees, every line counted as
``wc -l`` counts it: ``src lines: <base> -> <working tree>``. Exits 1 if
anything differs, 0 otherwise. Needs git and the Python standard library.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the README's model file, descend-flag mode with the flag at 6.0
README_MODEL = {
    "mode": "egpi_descend_flag",
    "density": {"lambda": 0.05, "sigma": 0.2, "r1": 0.3, "rn": 2.5, "n": 30},
    "submodels": [
        {"asc_env": {"family": "linear", "a": 3.1, "b": 0.8},
         "desc_env": {"family": "linear", "a": 3.2, "b": 5.0},
         "kappa_asc": 1.0, "kappa_desc": 1.0},
        {"asc_env": {"family": "linear", "a": 3.1, "b": 0.8},
         "desc_env": {"family": "linear", "a": 2.1, "b": 0.2},
         "kappa_asc": 1.0, "kappa_desc": 3.0},
    ],
    "flags": {"v_f_desc": 6.0},
    "units": {"input": "count", "output": "deg"},
}
GPI_MODEL = {**README_MODEL, "mode": "gpi", "submodels": README_MODEL["submodels"][:1],
             "flags": {}}
FIT_CONFIG = {"max_iterations": 20, "mu0": 0.01}

SHORT = ("--t-end", "4", "--dt", "2e-3")
SCENARIO = (
    ("simulate", "--reference", *SHORT, "--out", "reference.csv"),
    ("simulate", "--params", "model.json", *SHORT, "--out", "sim_egpi.csv"),
    ("simulate", "--params", "gpi.json", *SHORT, "--out", "sim_gpi.csv"),
    ("generate", "--params", "model.json", *SHORT, "--noise-std", "0.1", "--seed", "3",
     "--out", "data.csv"),
    ("generate", "--params", "model.json", *SHORT, "--noise-std", "0.1", "--seed", "4",
     "--out", "data2.csv"),
    ("fit", "--data", "data.csv", "--mode", "egpi", "--flag-point", "6.0",
     "--out-prefix", "fit_egpi"),
    ("fit", "--data", "data.csv", "--mode", "gpi", "--out-prefix", "fit_gpi"),
    ("fit", "--data", "data.csv", "--mode", "egpi", "--config", "cfg.json", "--eps", "10"),
    ("evaluate", "--data", "data.csv", "--params", "fit_egpi.model.json",
     "--out", "eval_egpi.csv"),
    ("evaluate", "--data", "data.csv", "--params", "fit_gpi.model.json", "--absolute",
     "--out", "eval_gpi.csv"),
    ("fit-all", "--data", "data.csv", "data2.csv", "--flag-point", "6.0", "--jobs", "2",
     "--out-dir", "fits"),
    ("report", "--results", "fits/data.egpi.result.json", "fits/data.gpi.result.json",
     "fits/data2.egpi.result.json", "fits/data2.gpi.result.json", "--out", "summary.json"),
    ("simulate", "--reference", "--out", "reference_long.csv"),
    ("generate", "--params", "model.json", "--noise-std", "0.1", "--seed", "5",
     "--out", "long.csv"),
    ("rewrite_crlf", "long.csv", "long_crlf.csv"),
    ("evaluate", "--data", "long_crlf.csv", "--params", "fit_egpi.model.json",
     "--out", "eval_long_crlf.csv"),
    ("rewrite_quoted", "long.csv", "long_quoted.csv"),
    ("evaluate", "--data", "long_quoted.csv", "--params", "fit_egpi.model.json",
     "--out", "eval_long_quoted.csv"),
    ("simulate", "--reference", "--dt", "2e-4", "--out", "reference_forked.csv"),
    ("generate", "--params", "model.json", "--dt", "2e-4", "--noise-std", "0.1", "--seed", "6",
     "--out", "forked.csv"),
    ("evaluate", "--data", "forked.csv", "--params", "fit_egpi.model.json",
     "--out", "eval_forked.csv"),
    ("write_dither", "dither_input.csv"),
    ("generate", "--params", "model.json", "--input", "dither_input.csv", "--out", "dither.csv"),
    ("evaluate", "--data", "dither.csv", "--params", "fit_egpi.model.json",
     "--out", "eval_dither.csv"),
)


def rewrite_crlf(lines: list[str]) -> list[str]:
    """CRLF line endings, and two blank lines after file line 4,096."""
    lines = lines[:4096] + ["", ""] + lines[4096:]
    return [line + "\r\n" for line in lines]


def rewrite_quoted(lines: list[str]) -> list[str]:
    """The ``v`` field of file line 5,000 in quotes."""
    t, v, theta = lines[4999].split(",")
    lines[4999] = f'{t},"{v}",{theta}'
    return [line + "\n" for line in lines]


REWRITES = {"rewrite_crlf": rewrite_crlf, "rewrite_quoted": rewrite_quoted}


def dither_rows() -> list[str]:
    """A ``t,v`` CSV of 4,000 samples at 1 ms: a sinusoid of amplitude 8
    and period 2 s plus a wobble of period 11 samples, rounded to 0.02.
    Near the turns the wobble gives runs of a few samples and holds; in
    between the input rises or falls for hundreds of samples."""
    rows = ["t,v\n"]
    for k in range(4000):
        t = k * 1e-3
        v = 8.0 * math.sin(math.pi * t) + 0.005 * ((k * 37) % 11 - 5) / 5
        rows.append(f"{t!r},{round(v / 0.02) * 0.02!r}\n")
    return rows


def export_src(rev: str, dest: Path) -> None:
    """Unpack ``src/`` as of ``rev`` into ``dest``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)


def src_lines(src: Path) -> int:
    """Lines of the Python files under ``src``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in src.rglob("*.py"))


def run_scenario(src: Path, work: Path) -> dict[str, bytes]:
    """Run the scenario in ``work``; returns its outputs by name."""
    work.mkdir()
    for name, doc in (("model.json", README_MODEL), ("gpi.json", GPI_MODEL),
                      ("cfg.json", FIT_CONFIG)):
        (work / name).write_text(json.dumps(doc, indent=2) + "\n")
    env = {**os.environ, "PYTHONPATH": str(src), "SOURCE_DATE_EPOCH": "0"}
    outputs = {}
    for k, argv in enumerate(SCENARIO, start=1):
        if argv[0] in REWRITES:
            source, dest = argv[1:]
            lines = REWRITES[argv[0]]((work / source).read_text().splitlines())
            (work / dest).write_text("".join(lines), newline="")
            continue
        if argv[0] == "write_dither":
            (work / argv[1]).write_text("".join(dither_rows()))
            continue
        proc = subprocess.run([sys.executable, "-m", "hystfit", *argv], cwd=work, env=env,
                              capture_output=True)
        outputs[f"stdout {k:02d} {argv[0]}"] = b"exit %d\n" % proc.returncode + proc.stdout
    for path in sorted(work.rglob("*")):
        if path.is_file():
            outputs[path.relative_to(work).as_posix()] = path.read_bytes()
    return outputs


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/cli_identity.py BASE_REV", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        export_src(argv[0], tmp / "base")
        base = run_scenario(tmp / "base" / "src", tmp / "run-base")
        head = run_scenario(ROOT / "src", tmp / "run-head")
        lines = src_lines(tmp / "base" / "src"), src_lines(ROOT / "src")
    differ = 0
    for name in sorted(base.keys() | head.keys()):
        if name not in head or name not in base:
            verdict = "only in " + ("base" if name in base else "working tree")
        else:
            verdict = "identical" if base[name] == head[name] else "DIFFERS"
        differ += verdict != "identical"
        print(f"{verdict:<18} {name}")
    print(f"{len(base.keys() | head.keys()) - differ} identical, {differ} differ")
    print(f"src lines: {lines[0]} -> {lines[1]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
