"""Dataset CSV and model-parameter JSON formats.

Datasets exchange as CSV with header ``t,v`` or ``t,v,theta`` and one
sample per row. Models serialize to a JSON document with a mode tag,
a density block shared by all banks, per-bank envelope blocks, and the
flag points. All writes go through a temp-then-rename step so an
interrupted run never leaves a truncated file.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import os
import re
import shutil
import signal
import sys
import threading
import time
import warnings
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .envelopes import envelope_from_dict
from .errors import ConfigError, InputError, check_names, check_number
from .metrics import Metrics
from .operators import DensitySpec, EgpiModel, GpiModel, _banks
from .signals import Trajectory

MODE_TAGS = ("gpi", "egpi_two_flag", "egpi_descend_flag")

DEFAULT_UNITS = {"input": "count", "output": "deg"}


def _atomic_write(path, chunks, parts=()):
    """Write the strings ``chunks``, then those of each iterable in ``parts``,
    to ``path`` through a temp file. Forked children write the ``parts`` to
    part files meanwhile (this process does where it cannot fork). The temp
    and part files are new files beside ``path`` named with this process's
    id. Every child is reaped and every file made here but ``path`` removed
    before this returns or raises; a failed write leaves ``path`` as it was.
    """
    path = os.fspath(path)
    stem = f"{path}.{os.getpid()}"
    made, children = [], {}
    try:
        with open(stem + ".tmp", "x", newline="") as fh:
            made.append(fh.name)
            for k, part in enumerate(parts, start=1):
                with open(f"{stem}.{k}.part", "x", newline="") as out:
                    made.append(out.name)
                    try:
                        _fork(out, part, children)
                    except OSError:
                        out.writelines(part)
            fh.writelines(chunks)
            fh.flush()
            for name in made[1:]:
                if name in children:
                    code = os.waitstatus_to_exitcode(os.waitpid(children[name], 0)[1])
                    del children[name]
                    if code:
                        raise OSError(code, os.strerror(code), name)
                with open(name, "rb") as src:
                    shutil.copyfileobj(src, fh.buffer)
        os.replace(made[0], path)
        del made[0]
    finally:
        for pid in children.values():  # left running by a failure
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for name in made:
            with contextlib.suppress(OSError):
                os.remove(name)


def _fork(out, part, children):
    """Fork a child that writes the strings of ``part`` to the open file
    ``out`` and exits 0, or with the errno of an OSError (else 255), and
    set ``children[out.name]`` to its pid. Signals wait until both are done."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
    try:
        pid = os.fork()
        if pid == 0:
            try:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                out.writelines(part)
                out.close()
                os._exit(0)
            except OSError as exc:
                os._exit(exc.errno or 255)
            finally:
                os._exit(255)
        children[out.name] = pid
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _created_stamp() -> str:
    # honor SOURCE_DATE_EPOCH so reruns can be byte-identical
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        dt = datetime.fromtimestamp(time.time() if epoch is None else int(epoch), tz=timezone.utc)
    except (ValueError, OverflowError, OSError):
        raise ConfigError(f"SOURCE_DATE_EPOCH must be whole seconds, got {epoch!r}") from None
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


# ---------------------------------------------------------------- datasets

_ROWS = 4096  # rows per block when writing a dataset
_FORK_ROWS = 8192  # fewest rows in a range that a forked child writes


def load_dataset(path) -> Trajectory:
    """Parse a dataset CSV, reporting the line number of any bad row.

    numpy's ``loadtxt`` parses the data lines. If it rejects one, or its
    rows have another width than the header, the whole file goes through
    the row-by-row ``csv`` parser instead, which also reads quoted fields
    and what only ``float`` parses, and names the line of a bad row.
    """
    path = os.fspath(path)
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise InputError(f"{path}: file is empty, expected header 't,v[,theta]'")
            cols = [c.strip() for c in header]
            if cols not in (["t", "v"], ["t", "v", "theta"]):
                raise InputError(
                    f"{path}:1: expected header 't,v' or 't,v,theta', got {','.join(cols)!r}"
                )
            try:
                with warnings.catch_warnings():
                    # a header-only file goes to the row parser, which says so
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except ValueError:  # UnicodeDecodeError too: the row parser meets it again
                data = None
        if data is None or data.shape[1] != len(cols):
            data, _ = _read_rows(path, len(cols))
    except UnicodeDecodeError:
        # the decoder's byte offset counts from its current chunk, not the file
        raise InputError(f"{path}: not UTF-8 text") from None
    if not data.size:
        raise InputError(f"{path}: no data rows")
    try:
        return Trajectory(*data.T.copy())
    except InputError as exc:
        if exc.sample is None:
            raise
        # name file lines, not sample indices
        _, lines = _read_rows(path, data.shape[1])
        where = re.sub(r"sample (\d+)", lambda m: f"line {lines[int(m[1])]}", str(exc))
        raise InputError(f"{path}:{lines[exc.sample]}: {where}") from None


def _read_rows(path, width: int) -> tuple[np.ndarray, list[int]]:
    """Row-by-row parse of the data rows: ``(data, lines)``, where ``lines``
    holds the file line of each row (blank lines hold no row). An
    InputError names a bad line."""
    values, lines = [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            lines.append(lineno)
            if len(row) != width:
                raise InputError(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
            try:
                values.extend([float(x) for x in row])
            except ValueError:
                raise InputError(f"{path}:{lineno}: malformed row {row!r}") from None
    return np.array(values).reshape(-1, width), lines


def _picks(z, z1, z2, active) -> bool:
    """Whether float columns z, z1 and z2 hold z = where(active == 2, z2, z1), bit for bit."""
    return all(col.dtype == float for col in (z, z1, z2)) and np.array_equal(
        z.view(np.int64), np.where(active == 2, z2, z1).view(np.int64))


def _write_rows(path, header, columns, pick=None):
    """Write ``header`` and the rows of ``columns`` as CSV, ``_ROWS`` rows at a time.

    Integer columns print as ``str(int(x))`` and all others as
    ``repr(float(x))``, so a file reads back to the same floats; where the
    columns at the indices ``pick`` (z, z1, z2, active) pass ``_picks``,
    each z takes the string of its row's z1 or z2. The rows split into one
    range per usable CPU, of ``_FORK_ROWS`` rows or more; forked children
    write all ranges but the first, unless forking is unsafe: no
    ``os.fork``, other threads, or a daemonic multiprocessing worker.
    """
    columns = [np.asarray(col) for col in columns]
    columns = [col if col.dtype.kind in "iu" else col.astype(float, copy=False) for col in columns]
    n = len(columns[0])
    if any(len(col) != n for col in columns):
        raise ValueError(f"columns differ in length: {[len(col) for col in columns]}")
    z, z1, z2, active = pick if pick and _picks(*(columns[k] for k in pick)) else (None,) * 4

    def text(lo, hi):
        for a in range(lo, hi, _ROWS):
            b = min(a + _ROWS, hi)
            fields = [map(repr, col[a:b].tolist()) for col in columns]
            if z is not None:  # z's own map is replaced unread; z1 and z2 are read twice
                fields[z1], fields[z2] = list(fields[z1]), list(fields[z2])
                fields[z] = map(tuple.__getitem__, zip(fields[z1], fields[z2]),
                                (columns[active][a:b] == 2).tolist())
            yield "".join([",".join(row) + "\n" for row in zip(*fields)])

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    mp = sys.modules.get("multiprocessing")  # loaded in any multiprocessing worker
    if not hasattr(os, "fork") or threading.active_count() > 1 or (
            mp and mp.current_process().daemon):
        cpus = 1
    k = max(1, min(cpus or 1, n // _FORK_ROWS))
    cuts = [n * i // k for i in range(k + 1)]
    ranges = [text(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    _atomic_write(path, itertools.chain([",".join(header) + "\n"], ranges[0]), ranges[1:])


def save_dataset(path, traj: Trajectory):
    if traj.theta is None:
        _write_rows(path, ["t", "v"], [traj.t, traj.v])
    else:
        _write_rows(path, ["t", "v", "theta"], [traj.t, traj.v, traj.theta])


def save_simulation(path, t, v, z, z1, z2, active):
    """Write a simulation CSV. A z that is, bit for bit, z2 where active is 2
    and z1 elsewhere (as ``operators.egpi_outputs`` gives it) takes in each
    row the string its reported bank got: the bytes of formatting each value."""
    _write_rows(path, ["t", "v", "z", "z1", "z2", "active"], [t, v, z, z1, z2, active],
                pick=(2, 3, 4, 5))


def save_predictions(path, t, v, theta, theta_hat):
    _write_rows(
        path,
        ["t", "v", "theta", "theta_hat", "error"],
        [t, v, theta, theta_hat, np.asarray(theta_hat) - np.asarray(theta)],
    )


# ------------------------------------------------------------ model files

def _density_doc(d: DensitySpec) -> dict:
    return {"lambda": d.lam, "sigma": d.sigma, "r1": d.r1, "rn": d.rn, "n": d.n}


def _density_from_doc(doc: dict) -> DensitySpec:
    keys = ("lambda", "sigma", "r1", "rn", "n")
    check_names(doc, keys, "density fields")
    try:
        values = [doc[key] for key in keys]
    except KeyError as exc:
        raise ConfigError(f"density block missing field {exc}") from None
    # the file key, which DensitySpec's own message does not name
    check_number(values[-1], "density field 'n'", integer=True)
    return DensitySpec(*values)


def _submodel_doc(m: GpiModel) -> dict:
    return {
        "asc_env": m.asc_env.to_dict(),
        "desc_env": m.desc_env.to_dict(),
        "kappa_asc": m.kappa_asc,
        "kappa_desc": m.kappa_desc,
    }


def model_to_doc(model, source: str = "") -> dict:
    """Serializable document for a model, schema shared by save/load."""
    if isinstance(model, GpiModel):
        mode, flags = "gpi", {}
    elif isinstance(model, EgpiModel):
        mode = "egpi_descend_flag" if model.flag_asc is None else "egpi_two_flag"
        flags = {"v_f_asc": model.flag_asc, "v_f_desc": model.flag_desc}
        flags = {key: x for key, x in flags.items() if x is not None}
    else:
        raise ConfigError(f"cannot serialize object of type {type(model).__name__}")
    banks = _banks(model)
    density = banks[0].density
    if any(b.density != density for b in banks):
        raise ConfigError("model file format requires one density shared by both banks")
    return {
        "mode": mode,
        "density": _density_doc(density),
        "submodels": [_submodel_doc(b) for b in banks],
        "flags": flags,
        "units": dict(DEFAULT_UNITS),
        "meta": {"created": _created_stamp(), "tool_version": __version__, "source": source},
    }


def _member(doc: dict, key: str, kind: type):
    """``doc[key]``, empty if absent; it must be a ``kind`` (dict or list)."""
    value = doc.get(key, kind())
    if not isinstance(value, kind):
        what = "an object" if kind is dict else "a list"
        raise ConfigError(f"model field {key!r} must be {what}, got {type(value).__name__}")
    return value


def model_from_doc(doc: dict):
    """Rebuild a model from its document, enforcing mode/flag consistency.

    A missing, mistyped or unknown field raises ConfigError naming it;
    ``units`` and a gpi model's ``flags`` must be objects too, though the
    model holds neither, and ``units`` and ``meta`` take any names. The
    model constructors check the values, so the density scale ``lambda``
    is named by its field ``lam``.
    """
    if not isinstance(doc, dict) or "mode" not in doc:
        raise ConfigError("model document must be an object with a 'mode' field")
    mode = doc["mode"]
    if not isinstance(mode, str) or mode not in MODE_TAGS:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {sorted(MODE_TAGS)}")
    _member(doc, "units", dict)
    density = _density_from_doc(_member(doc, "density", dict))
    subdocs = _member(doc, "submodels", list)
    expected = 1 if mode == "gpi" else 2
    if len(subdocs) != expected:
        raise ConfigError(f"mode {mode!r} requires {expected} submodel(s), got {len(subdocs)}")

    def bank(i):
        sub = subdocs[i]
        if not isinstance(sub, dict):
            raise ConfigError(f"submodel {i + 1} must be an object, got {type(sub).__name__}")
        check_names(sub, ("asc_env", "desc_env", "kappa_asc", "kappa_desc"),
                    f"submodel {i + 1} fields")
        try:
            envs = [envelope_from_dict(sub[key]) for key in ("asc_env", "desc_env")]
        except KeyError as exc:
            raise ConfigError(f"submodel block missing field {exc}") from None
        return GpiModel(density, *envs, sub.get("kappa_asc", 1.0), sub.get("kappa_desc", 1.0))

    flags = _member(doc, "flags", dict)
    check_names(flags, ("v_f_asc", "v_f_desc"), "flag fields")
    if mode == "gpi":
        return bank(0)
    # the file keys, which EgpiModel's own messages do not name
    flag_asc, flag_desc = (
        None if flags.get(key) is None else check_number(flags[key], f"flag {key!r}")
        for key in ("v_f_asc", "v_f_desc")
    )
    banks = [bank(0), bank(1)]
    # the tag, which the model does not hold, must agree with its flags
    if (flag_asc is None) != (mode == "egpi_descend_flag"):
        need = "takes no" if flag_asc is not None else "requires the"
        raise ConfigError(f"mode {mode!r} {need} flag 'v_f_asc'")
    return EgpiModel(banks, flag_asc, flag_desc)


def save_model(path, model, source=""):
    doc = model_to_doc(model, source=source)
    _atomic_write(path, [json.dumps(doc, indent=2) + "\n"])
    return doc


def load_json(path) -> dict:
    """Parse a JSON file that must hold one object; errors name the file."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: not valid JSON ({exc})") from None
        except UnicodeDecodeError:
            raise InputError(f"{path}: not UTF-8 text") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


# a model file's raw document, for fields the model does not hold (units)
load_model_doc = load_json


def load_model(path):
    return model_from_doc(load_json(path))


# ------------------------------------------------------------- fit output

def fit_result_to_doc(result, dataset: str = "") -> dict:
    """FitResult document embedding the fitted model's own document."""
    model_doc = model_to_doc(result.model(), source=dataset)
    return {
        "fit_mode": result.mode,
        "dataset": dataset,
        "v_f": result.v_f,
        "params": result.param_dict(),
        "n_operators": result.n_operators,
        "iterations": result.iterations,
        "converged": result.converged,
        "reason": result.reason,
        "loss_trace": [float(x) for x in result.loss_trace],
        "metrics": result.metrics.to_dict(),
        "model": model_doc,
    }


def save_fit_result(path, result, dataset: str = "") -> dict:
    doc = fit_result_to_doc(result, dataset=dataset)
    _atomic_write(path, [json.dumps(doc, indent=2) + "\n"])
    return doc


# ---------------------------------------------------------------- reports

def report_row(dataset: str, model: str, metrics: Metrics) -> dict:
    return {
        "dataset": dataset,
        "model": model,
        "rmse_deg": metrics.rmse,
        "nrmse_pct": metrics.nrmse,
        "mae_deg": metrics.mae,
        "n": metrics.n,
    }


def write_report(path, rows: list[dict]):
    """One row per (dataset, model) pair; CSV or JSON by file extension."""
    path = os.fspath(path)
    if path.endswith(".json"):
        _atomic_write(path, [json.dumps(rows, indent=2) + "\n"])
        return
    buf = io.StringIO()
    fields = ["dataset", "model", "rmse_deg", "nrmse_pct", "mae_deg", "n"]
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _atomic_write(path, [buf.getvalue()])
