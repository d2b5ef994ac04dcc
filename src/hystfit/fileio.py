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
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .envelopes import envelope_from_dict
from .errors import ConfigError, InputError, check_names, check_number
from .metrics import Metrics
from .operators import DensitySpec, EgpiModel, GpiModel, SwitchMode, _banks
from .signals import Trajectory

MODE_TAGS = {
    "gpi": None,
    "egpi_two_flag": SwitchMode.TWO_FLAG,
    "egpi_descend_flag": SwitchMode.DESCEND_FLAG,
}

DEFAULT_UNITS = {"input": "count", "output": "deg"}


def _atomic_write(path, chunks):
    """Write the strings ``chunks`` to ``path`` through a temp file.

    If writing fails partway, the temp file is removed and an existing
    ``path`` is left as it was.
    """
    path = os.fspath(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _created_stamp() -> str:
    # honor SOURCE_DATE_EPOCH so reruns can be byte-identical
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        dt = datetime.fromtimestamp(time.time() if epoch is None else int(epoch), tz=timezone.utc)
    except (ValueError, OverflowError, OSError):
        raise ConfigError(f"SOURCE_DATE_EPOCH must be whole seconds, got {epoch!r}") from None
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


# ---------------------------------------------------------------- datasets

_ROWS = 4096  # lines per block when reading or writing a dataset
_BLANK_LINES = ("\n", "\r\n", "\r")


def load_dataset(path) -> Trajectory:
    """Parse a dataset CSV, reporting the line number of any bad row.

    Data lines are read in blocks of ``_ROWS``: blank lines are dropped,
    and the fields of the others, split on commas, go through ``float``
    into one array per block. If a line has another width than the
    header or a field ``float`` rejects, the whole file goes through the
    row-by-row ``csv`` parser instead, which also reads quoted fields and
    names the line of a bad row.
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
            data = _read_blocks(fh, len(cols))
        if data is None:
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


def _read_blocks(fh, width: int) -> np.ndarray | None:
    """The remaining lines of ``fh`` as a (rows, width) array, or None if a
    line has another width or a field that ``float`` rejects."""
    blocks = []
    while lines := list(itertools.islice(fh, _ROWS)):
        rows = [line for line in lines if line not in _BLANK_LINES]
        if any(line.count(",") != width - 1 for line in rows):
            return None
        # split one line at a time: holding a block's split rows at once
        # raised the peak memory of loading 5,000 rows from 0.5 to 2.1 MB
        fields = itertools.chain.from_iterable(line.split(",") for line in rows)
        try:
            blocks.append(np.fromiter(map(float, fields), float, len(rows) * width))
        except ValueError:
            return None
    return np.concatenate(blocks or [np.empty(0)]).reshape(-1, width)


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


def _write_rows(path, header, columns):
    """Write ``header`` and the rows of ``columns`` as CSV, ``_ROWS`` rows at a time.

    Integer columns print as ``str(int(x))`` and all others as
    ``repr(float(x))``, so a file reads back to the same floats.
    """
    columns = [np.asarray(col) for col in columns]

    def text():
        yield ",".join(header) + "\n"
        for lo in range(0, len(columns[0]), _ROWS):
            fields = [
                map(str, block.tolist()) if np.issubdtype(block.dtype, np.integer)
                else map(repr, block.astype(float).tolist())
                for block in (col[lo : lo + _ROWS] for col in columns)
            ]
            yield "".join([",".join(row) + "\n" for row in zip(*fields)])

    _atomic_write(path, text())


def save_dataset(path, traj: Trajectory):
    if traj.theta is None:
        _write_rows(path, ["t", "v"], [traj.t, traj.v])
    else:
        _write_rows(path, ["t", "v", "theta"], [traj.t, traj.v, traj.theta])


def save_simulation(path, t, v, z, z1, z2, active):
    _write_rows(path, ["t", "v", "z", "z1", "z2", "active"], [t, v, z, z1, z2, active])


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
        mode = next(tag for tag, switch in MODE_TAGS.items() if switch is model.mode)
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
    return EgpiModel([bank(0), bank(1)], MODE_TAGS[mode], flag_asc, flag_desc)


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
