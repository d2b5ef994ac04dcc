import csv
import io
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from fixtures import SWEEP_FLAG, recovery_params

from hystfit import (
    ConfigError,
    DensitySpec,
    EgpiModel,
    GpiModel,
    InputError,
    LinearEnvelope,
    SwitchMode,
    TanhEnvelope,
    Trajectory,
    build_model,
    reference_model,
)
from hystfit import fileio
from hystfit.fileio import (
    _read_rows,
    load_dataset,
    load_model,
    model_from_doc,
    model_to_doc,
    save_dataset,
    save_model,
    save_simulation,
    write_report,
)


# ----------------------------------------------------------------- datasets

def test_dataset_roundtrip_without_theta(tmp_path):
    path = tmp_path / "d.csv"
    traj = Trajectory(t=[0.0, 0.5, 1.0], v=[1.0, 2.0, -0.5])
    save_dataset(path, traj)
    back = load_dataset(path)
    assert np.array_equal(back.t, traj.t)
    assert np.array_equal(back.v, traj.v)
    assert back.theta is None


def test_dataset_roundtrip_with_theta_exact(tmp_path):
    path = tmp_path / "d.csv"
    rng = np.random.default_rng(0)
    traj = Trajectory(t=np.cumsum(rng.uniform(0.1, 1, 50)), v=rng.normal(0, 3, 50),
                      theta=rng.normal(0, 20, 50))
    save_dataset(path, traj)
    back = load_dataset(path)
    assert np.array_equal(back.t, traj.t)
    assert np.array_equal(back.v, traj.v)
    assert np.array_equal(back.theta, traj.theta)


def test_dataset_three_rows(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("t,v\n0,1\n1,2\n2,3\n")
    assert len(load_dataset(path)) == 3


def test_dataset_bad_header_diagnostic(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("time,value\n0,1\n")
    with pytest.raises(InputError, match=":1"):
        load_dataset(path)


def test_dataset_malformed_row_names_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("t,v\n0,1\n1,two\n2,3\n")
    with pytest.raises(InputError, match=":3"):
        load_dataset(path)


def test_dataset_wrong_column_count_names_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("t,v\n0,1\n1,2,9\n")
    with pytest.raises(InputError, match=":3"):
        load_dataset(path)


def test_dataset_duplicate_timestamp_names_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("t,v\n0,1\n1,2\n1,3\n2,4\n")
    with pytest.raises(InputError, match="line 3"):
        load_dataset(path)


def test_dataset_timestamp_after_blank_lines_names_file_lines(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("t,v,theta\n0,0,0\n\n\n1,1,1\n0.5,2,2\n")
    with pytest.raises(InputError, match=r"d\.csv:6: .* over line 5$"):
        load_dataset(path)


@pytest.mark.parametrize("row", ["nan,3,0", "2,nan,0", "2,3,inf"])
def test_dataset_non_finite_value_names_line(tmp_path, row):
    path = tmp_path / "d.csv"
    path.write_text(f"t,v,theta\n0,0,0\n1,1,1\n\n{row}\n")
    with pytest.raises(InputError, match=r"d\.csv:5: non-finite value at line 5"):
        load_dataset(path)


def test_dataset_empty_file(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("")
    with pytest.raises(InputError):
        load_dataset(path)


def test_dataset_header_without_rows(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("t,v,theta\n\n")
    with pytest.raises(InputError, match="d.csv: no data rows"):
        load_dataset(path)


def test_no_temp_residue_after_write(tmp_path):
    path = tmp_path / "d.csv"
    save_dataset(path, Trajectory(t=[0.0, 1.0], v=[0.0, 1.0]))
    assert os.listdir(tmp_path) == ["d.csv"]


def test_failed_write_removes_temp_and_keeps_target(tmp_path):
    # the bad value sits in the second block of rows, so the first block
    # is already in the temp file when formatting raises
    path = tmp_path / "sim.csv"
    path.write_text("old\n")
    n = 5000
    z = np.zeros(n, dtype=object)
    z[4500] = "not a number"
    t = np.arange(n, dtype=float)
    with pytest.raises(ValueError):
        save_simulation(path, t, t, z, t, t, np.ones(n, dtype=int))
    assert os.listdir(tmp_path) == ["sim.csv"]
    assert path.read_text() == "old\n"


# ---------------------------------------- CSV writer blocks and reader paths

def _reference_text(header, columns):
    """Dataset text as written one value at a time through ``csv.writer``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    fmts = [
        (lambda x: str(int(x))) if np.issubdtype(np.asarray(c).dtype, np.integer)
        else (lambda x: repr(float(x)))
        for c in columns
    ]
    for row in zip(*columns):
        writer.writerow([fmt(x) for fmt, x in zip(fmts, row)])
    return buf.getvalue()


def _reference_values(path):
    """Data rows of a dataset CSV parsed one row at a time with ``csv``."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row][1:]
    return np.array([[float(x) for x in row] for row in rows])


SPECIAL = [-0.0, 5e-324, 1e16, 9.999999999999999e-05, np.nan, np.inf, -np.inf, 0.1]


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 10001])
def test_writer_bytes_match_csv_writer_reference(tmp_path, n):
    rng = np.random.default_rng(n)
    columns = [
        np.arange(n) * 1e-4,
        np.resize(SPECIAL, n),
        rng.normal(size=n) > 0,  # bool: written as 0.0 / 1.0
        rng.normal(size=n).astype(np.float32),
        rng.normal(0, 1e3, n),
        rng.integers(1, 3, n),  # int: written as 1 / 2
    ]
    path = tmp_path / "sim.csv"
    save_simulation(path, *columns)
    header = ["t", "v", "z", "z1", "z2", "active"]
    assert path.read_bytes() == _reference_text(header, columns).encode()


def _dataset_lines(n, seed=0):
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(0.1, 1.0, n))
    v, theta = rng.normal(0, 3, n), rng.normal(0, 20, n)
    return [f"{a!r},{b!r},{c!r}\n" for a, b, c in zip(t.tolist(), v.tolist(), theta.tolist())]


@pytest.fixture()
def row_parses(monkeypatch):
    """Count the files that fall back to the row-by-row parser."""
    calls = []
    read_rows = fileio._read_rows

    def spy(path, width):
        calls.append(path)
        return read_rows(path, width)

    monkeypatch.setattr(fileio, "_read_rows", spy)
    return calls


def _check_loads_like_reference(path):
    traj = load_dataset(path)
    ref = _reference_values(path)
    assert np.array_equal(np.column_stack([traj.t, traj.v, traj.theta]), ref)
    return len(traj)


def test_reader_blank_lines_at_block_edges(tmp_path, row_parses):
    lines = _dataset_lines(10000)
    # blank lines of each ending around data line 4,096, and a run of them
    # as long as a written block: numpy skips them all, with no row parse
    lines[4094:4094] = ["\n", "\r\n", "\n"]
    lines[8190:8190] = ["\n"] * fileio._ROWS
    path = tmp_path / "d.csv"
    path.write_text("t,v,theta\n" + "".join(lines), newline="")
    assert _check_loads_like_reference(path) == 10000
    assert row_parses == []


def test_reader_crlf_and_missing_final_newline(tmp_path, row_parses):
    lines = [line.replace("\n", "\r\n") for line in _dataset_lines(5000)]
    lines[-1] = lines[-1].rstrip("\r\n")
    path = tmp_path / "d.csv"
    path.write_text("t,v,theta\r\n" + "".join(lines), newline="")
    assert _check_loads_like_reference(path) == 5000
    assert row_parses == []


def test_reader_quoted_fields_take_row_parser(tmp_path, row_parses):
    lines = _dataset_lines(5000)
    t, v, theta = lines[4500].split(",")
    lines[4500] = f'{t},"{v}",{theta}'
    path = tmp_path / "d.csv"
    path.write_text("t,v,theta\n" + "".join(lines), newline="")
    assert _check_loads_like_reference(path) == 5000
    assert row_parses == [str(path)]


@pytest.mark.parametrize("quoted", [False, True])
def test_dataset_with_byte_order_mark_loads_as_plain(tmp_path, row_parses, quoted):
    # spreadsheet exports begin with U+FEFF, which was read into the header
    # as '\ufefft'; a quoted field makes the row parser reread the file
    lines = _dataset_lines(5000)
    if quoted:
        t, v, theta = lines[10].split(",")
        lines[10] = f'{t},"{v}",{theta}'
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text("t,v,theta\n" + "".join(lines), newline="")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    want, got = load_dataset(plain), load_dataset(marked)
    for name in ("t", "v", "theta"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert len(row_parses) == 2 * quoted


@pytest.mark.parametrize("bad, message", [
    (["1e3,oops,2\n"], "malformed row"),
    (["1e3,2\n"], "expected 3 columns, got 2"),
    # a short row and a long one hold as many fields as two good rows
    (["1e3,2\n", "1e3,2,3,4\n"], "expected 3 columns, got 2"),
])
def test_reader_error_in_second_block_names_file_line(tmp_path, bad, message):
    lines = _dataset_lines(6000)
    lines[10:10] = ["\n"] * 3
    # from data row 4997 on, after the header and 3 blank lines
    lines[5000 : 5000 + len(bad)] = bad
    path = tmp_path / "d.csv"
    path.write_text("t,v,theta\n" + "".join(lines), newline="")
    with pytest.raises(InputError, match=rf"d\.csv:5002: {message}"):
        load_dataset(path)


# the data lines after a "t,v,theta" header, and the InputError's text after
# the path, or None for a file that loads through one row parse
@pytest.mark.parametrize("body, message", [
    pytest.param(b"0,1,2\n   \n1,2,3\n", ":3: expected 3 columns, got 1", id="whitespace-line"),
    pytest.param(b"0,1,2\n1,2#c,3\n", ":3: malformed row ['1', '2#c', '3']", id="hash-in-field"),
    pytest.param(b"0,1,2,\n", ":2: expected 3 columns, got 4", id="trailing-comma"),
    pytest.param(b"0,1_000,2\n1,2,3\n", None, id="underscore-digits"),
    pytest.param("0,\u0661\u0662,2\n1,2,3\n".encode(), None, id="non-ascii-digits"),
    pytest.param(b"0,1,2\n\nnan,2,3\n", ":4: non-finite value at line 4", id="nan"),
    pytest.param(b"\n", ": no data rows", id="no-rows"),
    # numpy alone reads these as a table of another width
    pytest.param(b"0,1\n1,2\n", ":2: expected 3 columns, got 2", id="one-field-short"),
    pytest.param(b"0,1,2,3\n1,2,3,4\n", ":2: expected 3 columns, got 4", id="one-field-beyond"),
    # far enough in that the header's read does not decode it
    pytest.param("".join(_dataset_lines(5000)).encode() + b"1e6,\xff,0\n", ": not UTF-8 text",
                 id="non-utf8-row"),
])
def test_reader_edge_files_read_as_the_row_parser(tmp_path, row_parses, body, message):
    path = tmp_path / "d.csv"
    path.write_bytes(b"t,v,theta\n" + body)
    if message is not None:
        with pytest.raises(InputError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}{message}"
        return
    traj = load_dataset(path)
    assert row_parses == [str(path)]
    want, _ = _read_rows(path, 3)
    assert np.array_equal(np.column_stack([traj.t, traj.v, traj.theta]), want)


# -------------------------------------------------------------- model files

def _two_flag_model():
    return reference_model()


def _descend_model():
    return build_model(recovery_params(0), "egpi", SWEEP_FLAG)


def _gpi_model():
    return GpiModel(
        density=DensitySpec(lam=0.07, sigma=0.1, r1=0.25, rn=7.25, n=30),
        asc_env=TanhEnvelope(c=8.0, d=0.2, e=-0.5, f=0.0),
        desc_env=LinearEnvelope(a=1.5, b=0.3),
        kappa_asc=2.0,
    )


@pytest.mark.parametrize("make", [_two_flag_model, _descend_model, _gpi_model])
def test_model_doc_roundtrip(make):
    model = make()
    doc = model_to_doc(model)
    again = model_from_doc(doc)
    assert again == model
    assert model_to_doc(again)["mode"] == doc["mode"]
    assert model_to_doc(again)["submodels"] == doc["submodels"]
    assert model_to_doc(again)["flags"] == doc["flags"]


def test_model_file_roundtrip(tmp_path):
    path = tmp_path / "m.json"
    save_model(path, reference_model(), source="demo")
    model = load_model(path)
    assert model == reference_model()
    doc = json.loads(path.read_text())
    assert doc["mode"] == "egpi_two_flag"
    assert doc["density"]["lambda"] == 0.07
    assert doc["flags"] == {"v_f_asc": 1.5, "v_f_desc": -0.3}
    assert doc["meta"]["source"] == "demo"


def test_model_doc_mode_flag_consistency():
    doc = model_to_doc(reference_model())
    doc["flags"].pop("v_f_asc")
    with pytest.raises(ConfigError):
        model_from_doc(doc)
    doc2 = model_to_doc(_descend_model())
    doc2["mode"] = "egpi_two_flag"
    with pytest.raises(ConfigError):
        model_from_doc(doc2)
    doc3 = model_to_doc(_gpi_model())
    doc3["submodels"] *= 2
    with pytest.raises(ConfigError):
        model_from_doc(doc3)


def test_model_doc_rejects_unknown_mode():
    with pytest.raises(ConfigError):
        model_from_doc({"mode": "preisach"})


def test_model_doc_rejects_unknown_names_but_in_units_and_meta():
    # the gpi model's desc_env is linear; an extra "c" used to be ignored
    doc = model_to_doc(_gpi_model())
    doc["units"]["angle"] = "rad"
    doc["meta"]["note"] = "any name"
    assert model_from_doc(doc) == _gpi_model()
    doc["submodels"][0]["desc_env"]["c"] = 2.0
    with pytest.raises(ConfigError, match=r"unknown linear envelope fields: \['c'\]"):
        model_from_doc(doc)
    doc = model_to_doc(_gpi_model())
    doc["flags"]["v_f_dsc"] = 1.0  # checked in gpi mode too, which reads no flag
    with pytest.raises(ConfigError, match=r"unknown flag fields: \['v_f_dsc'\]"):
        model_from_doc(doc)


def test_model_doc_requires_shared_density():
    sub1, sub2 = reference_model().submodels
    model = replace(reference_model(), submodels=[sub1, GpiModel(
        density=DensitySpec(lam=0.2, sigma=0.0, r1=0.1, rn=1.0, n=3),
        asc_env=sub2.asc_env,
        desc_env=sub2.desc_env,
    )])
    with pytest.raises(ConfigError):
        model_to_doc(model)


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["density"].pop("sigma"), "density block missing field 'sigma'"),
    (lambda doc: doc["submodels"][0].pop("desc_env"), "submodel block missing field 'desc_env'"),
    (lambda doc: doc.pop("mode"), "model document must be an object with a 'mode' field"),
    (lambda doc: doc["submodels"].__setitem__(1, 3), "submodel 2 must be an object, got int"),
])
def test_model_doc_missing_field_or_mistyped_block(edit, message):
    doc = model_to_doc(reference_model())
    edit(doc)
    with pytest.raises(ConfigError, match=message):
        model_from_doc(doc)


@pytest.mark.parametrize("doc", [[1, 2], "egpi_two_flag", None])
def test_model_doc_that_is_not_an_object(doc):
    with pytest.raises(ConfigError, match="model document must be an object"):
        model_from_doc(doc)


def test_model_to_doc_rejects_what_is_not_a_model():
    with pytest.raises(ConfigError, match="cannot serialize object of type str"):
        model_to_doc("egpi_two_flag")


def test_model_json_deterministic_under_source_date_epoch(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(p1, reference_model())
    save_model(p2, reference_model())
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text())["meta"]["created"] == "2023-11-14T22:13:20Z"


def test_failed_write_through_a_file_raises_one_error(tmp_path):
    # removing the temp file fails the same way as creating it; that second
    # error is dropped, not chained onto the first
    afile = tmp_path / "afile"
    afile.write_text("")
    with pytest.raises(NotADirectoryError) as info:
        save_model(afile / "m.json", reference_model())
    assert info.value.__context__ is None


@pytest.mark.parametrize("epoch", ["yesterday", "1e20", "99999999999999"])
def test_malformed_source_date_epoch_is_a_config_error(tmp_path, monkeypatch, epoch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    with pytest.raises(ConfigError, match="SOURCE_DATE_EPOCH"):
        save_model(tmp_path / "m.json", reference_model())
    assert not list(tmp_path.iterdir())


def test_load_model_bad_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{not json")
    with pytest.raises(InputError):
        load_model(path)


@pytest.mark.parametrize("text", ["[1, 2]", '"egpi_two_flag"', "3"])
def test_load_json_rejects_non_object(tmp_path, text):
    path = tmp_path / "m.json"
    path.write_text(text)
    with pytest.raises(InputError, match=r"m\.json: expected a JSON object"):
        load_model(path)


def test_json_with_byte_order_mark_loads_as_plain(tmp_path):
    # a fit config and a model file: json.load raised "Unexpected UTF-8 BOM"
    config = {"max_iterations": 3, "v_f": SWEEP_FLAG, "initial": list(recovery_params(0))}
    save_model(tmp_path / "model.json", reference_model())
    (tmp_path / "config.json").write_text(json.dumps(config))
    for name in ("config.json", "model.json"):
        plain, marked = tmp_path / name, tmp_path / f"marked-{name}"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert fileio.load_json(marked) == fileio.load_json(plain)
    assert fileio.load_json(tmp_path / "marked-config.json") == config
    assert load_model(tmp_path / "marked-model.json") == load_model(tmp_path / "model.json")


# ------------------------------------------------------------------ reports

def test_report_csv_and_json(tmp_path):
    rows = [
        {"dataset": "a.csv", "model": "egpi", "rmse_deg": 0.1, "nrmse_pct": 1.0,
         "mae_deg": 0.5, "n": 100},
        {"dataset": "a.csv", "model": "gpi", "rmse_deg": 0.9, "nrmse_pct": 9.0,
         "mae_deg": 2.5, "n": 100},
    ]
    csv_path = tmp_path / "r.csv"
    write_report(csv_path, rows)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "dataset,model,rmse_deg,nrmse_pct,mae_deg,n"
    assert len(lines) == 3
    json_path = tmp_path / "r.json"
    write_report(json_path, rows)
    assert json.loads(json_path.read_text()) == rows
