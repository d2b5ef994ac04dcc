import csv
import errno
import io
import json
import multiprocessing
import os
import threading
import time
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


@pytest.fixture()
def forks(monkeypatch):
    """Three usable CPUs and ranges of 3,000 rows or more; lists the pid of
    every process forked meanwhile."""
    pids = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda _: {0, 1, 2}, raising=False)
    monkeypatch.setattr(fileio, "_FORK_ROWS", 3000)
    return pids


def _all_reaped(pids):
    assert multiprocessing.active_children() == []
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    return True


def test_failed_write_removes_temp_and_keeps_target(tmp_path, forks):
    # the bad value sits in the last of three ranges, which a child would
    # write: every value is converted before a file is opened or a child forked
    path = tmp_path / "sim.csv"
    path.write_text("old\n")
    n = 10000
    z = np.zeros(n, dtype=object)
    z[9000] = "not a number"
    t = np.arange(n, dtype=float)
    with pytest.raises(ValueError):
        save_simulation(path, t, t, z, t, t, np.ones(n, dtype=int))
    assert os.listdir(tmp_path) == ["sim.csv"]
    assert path.read_text() == "old\n"
    assert forks == []


def test_columns_of_unequal_length_are_an_error(tmp_path):
    t = np.arange(5.0)
    with pytest.raises(ValueError, match=r"\[5, 5, 3, 5, 5, 5\]"):
        save_simulation(tmp_path / "s.csv", t, t, t[:3], t, t, np.ones(5))
    assert os.listdir(tmp_path) == []


def test_write_keeps_files_it_did_not_make(tmp_path):
    path = tmp_path / "d.csv"
    traj = Trajectory(t=[0.0, 1.0], v=[0.0, 1.0])
    (tmp_path / "d.csv.tmp").write_text("mine\n")
    save_dataset(path, traj)
    assert sorted(os.listdir(tmp_path)) == ["d.csv", "d.csv.tmp"]
    assert (tmp_path / "d.csv.tmp").read_text() == "mine\n"
    umask = os.umask(0)
    os.umask(umask)
    assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask
    # a file at this process's own temp name is neither overwritten nor removed
    ours = tmp_path / f"d.csv.{os.getpid()}.tmp"
    ours.write_text("stale\n")
    with pytest.raises(FileExistsError):
        save_dataset(path, Trajectory(t=[0.0, 2.0], v=[0.0, 1.0]))
    assert ours.read_text() == "stale\n"
    assert load_dataset(path).t[1] == 1.0


def _slow_part():
    time.sleep(60)
    yield "never\n"


def _disk_full():
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    yield


def _interrupted():
    yield "a\n"
    raise KeyboardInterrupt


@pytest.mark.parametrize("failure", [None, "child", "parent"])
def test_write_leaves_no_child_or_part_file(tmp_path, forks, failure):
    path = tmp_path / "d.csv"
    path.write_text("old\n")
    if failure is None:
        fileio._atomic_write(path, ["a\n"], [iter(["b\n"]), iter(["c\n", "d\n"])])
        assert path.read_text() == "a\nb\nc\nd\n"
    elif failure == "child":
        # the child's OSError comes back as one, as the CLI reports it
        with pytest.raises(OSError) as info:
            fileio._atomic_write(path, ["a\n"], [iter(["b\n"]), _disk_full()])
        assert info.value.errno == errno.ENOSPC
        assert info.value.filename.endswith(".2.part")
    else:
        # the children still run when this process is interrupted
        with pytest.raises(KeyboardInterrupt):
            fileio._atomic_write(path, _interrupted(), [_slow_part(), _slow_part()])
    assert len(forks) == 2
    assert _all_reaped(forks)
    assert os.listdir(tmp_path) == ["d.csv"]
    if failure:
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


# the inner range edges, as many as forked children, for each row count at
# three CPUs and ranges of 3,000 rows or more
EDGES = {1: [], 4095: [], 4096: [], 4097: [], 6001: [3000], 10001: [3333, 6667],
         12289: [4096, 8192]}


def _columns(n):
    rng = np.random.default_rng(n)
    columns = [
        np.arange(n) * 1e-4,
        np.resize(SPECIAL, n),
        rng.normal(size=n) > 0,  # bool: written as 0.0 / 1.0
        rng.normal(size=n).astype(np.float32),
        rng.normal(0, 1e3, n),
        rng.integers(1, 3, n),  # int: written as 1 / 2
    ]
    for edge in EDGES.get(n, []):
        columns[4][edge - 4 : edge + 4] = SPECIAL
    return columns


HEADER = ["t", "v", "z", "z1", "z2", "active"]


@pytest.mark.parametrize("n", list(EDGES))
def test_writer_bytes_match_csv_writer_reference(tmp_path, forks, n):
    columns = _columns(n)
    path = tmp_path / "sim.csv"
    save_simulation(path, *columns)
    assert path.read_bytes() == _reference_text(HEADER, columns).encode()
    assert len(forks) == len(EDGES[n])
    assert _all_reaped(forks)
    assert os.listdir(tmp_path) == ["sim.csv"]


def _save_counting_forks(path, columns):
    """``save_simulation`` in a pool worker: the number of forks it made."""
    count = []
    fork = os.fork
    os.fork = lambda: count.append(1) or fork()
    try:
        save_simulation(path, *columns)
    finally:
        os.fork = fork
    return len(count)


def test_writer_in_a_pool_worker_writes_alone(tmp_path, forks):
    # a pool worker is daemonic: a process it forks would outlive a terminate
    columns = _columns(10001)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply(_save_counting_forks, (tmp_path / "sim.csv", columns)) == 0
    assert (tmp_path / "sim.csv").read_bytes() == _reference_text(HEADER, columns).encode()


@pytest.mark.parametrize("case, children", [
    ("one-cpu", 0), ("cpu-count-1", 0), ("cpu-count-2", 1), ("no-fork", 0), ("thread", 0),
    ("fork-fails", 0),
])
def test_writer_forks_only_where_it_can_help(tmp_path, monkeypatch, forks, case, children):
    if case == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda _: {0})
    elif case.startswith("cpu-count"):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: int(case[-1]))
    elif case == "no-fork":
        monkeypatch.delattr(os, "fork")
    elif case == "fork-fails":
        def fork():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", fork)
    columns = _columns(10001)
    path = tmp_path / "sim.csv"
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    if case == "thread":
        other.start()
    try:
        save_simulation(path, *columns)
    finally:
        stop.set()
    if case == "thread":
        other.join(timeout=10)
        assert not other.is_alive()
    assert len(forks) == children
    assert _all_reaped(forks)
    assert path.read_bytes() == _reference_text(HEADER, columns).encode()
    assert os.listdir(tmp_path) == ["sim.csv"]


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
