"""Dataset, checkpoint and CSV text: the writers against their references."""

import re
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mazegcrl import cli, data, evaluation as E, values as V
from tests import oracle_csv, oracle_io
from tests.oracle_collect import dataset_of

# values whose 17-digit text differs from their 16-digit or their repr text
SEVENTEEN_DIGITS = (0.1, 1.0 / 3.0, 2.0 / 3.0, 1e23, 0.30000000000000004,
                    9007199254740993.0, 1.2345678901234567e-200)
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
           -2.225073858507201e-308, 1e308, -1e308, 1.7976931348623157e308,
           float("inf"), float("-inf"), float("nan"), 1.0, -3.0, 1e16,
           2.0 ** 53) + SEVENTEEN_DIGITS

reals = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(-2 ** 60, 2 ** 60).map(float),
)


def _matrix(rows: int, cols: int):
    return st.lists(reals, min_size=rows * cols, max_size=rows * cols).map(
        lambda xs: np.array(xs, dtype=np.float64).reshape(rows, cols))


@st.composite
def datasets(draw):
    state_dim = draw(st.integers(1, 3))
    action_dim = draw(st.integers(1, 3))
    trajectories = []
    for length in draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)):
        trajectories.append(data.Dataset(draw(_matrix(length + 1, state_dim)),
                                         draw(_matrix(length, action_dim)), [length]))
    return dataset_of(trajectories)


SHAPES = ((), (1,), (4,), (0,), (2, 3), (3, 0), (0, 3), (1, 1))


@st.composite
def tensor_trees(draw):
    tree = {}
    for i, shape in enumerate(draw(st.lists(st.sampled_from(SHAPES),
                                            min_size=1, max_size=4))):
        size = int(np.prod(shape))
        xs = draw(st.lists(reals, min_size=size, max_size=size))
        tree[f"net/t{i}"] = np.array(xs, dtype=np.float64).reshape(shape)
    return tree


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A directory the writers under test write into, one file per test."""
    return tmp_path_factory.mktemp("text")


EDGE_DATASET = dataset_of([
    data.Dataset(np.array([SPECIAL[:2], SPECIAL[2:4]]), np.array([SPECIAL[4:6]]), [1]),
    data.Dataset(np.array(SEVENTEEN_DIGITS[:6]).reshape(3, 2),
                 np.array([[1e308, -0.0], [0.1, 7.0]]), [2]),
])

EDGE_TREE = {"scalar": np.array(0.1), "vec": np.array(SPECIAL),
             "empty": np.zeros((0,)), "no_cols": np.zeros((3, 0)),
             "no_rows": np.zeros((0, 3)), "ints": np.arange(6).reshape(2, 3),
             "mat": np.array(SEVENTEEN_DIGITS[:6]).reshape(3, 2)}


@settings(max_examples=200, deadline=None)
@given(dataset=datasets())
@example(dataset=EDGE_DATASET)
def test_dataset_text_equals_reference_bytes(dataset, files):
    data.write_dataset(dataset, files / "written.dset")
    assert (files / "written.dset").read_text() == oracle_io.dataset_to_text(dataset)


# lines that break a dataset file's layout where they land
ODD_LINES = ("", "  ", "\t", "\x0c", "T 0", "T 1", "T 2", "T -1", "T x", "T",
             "0.5", "0.5 0.5", "1 2 3", "nan -inf", "x y", "GCRL-DSET v1 2 2 1")


@st.composite
def dataset_texts(draw):
    """Dataset files, some intact, most with a few lines inserted, dropped,
    replaced or cut, and whitespace before and after."""
    lines = oracle_io.dataset_to_text(draw(datasets())).split("\n")
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("insert", "drop", "replace")))
        if edit == "drop":
            del lines[i]
        else:
            lines[i:i + (edit == "replace")] = [draw(st.sampled_from(ODD_LINES))]
    text = "\n".join(lines)
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    pad = st.sampled_from(("", "\n", " \n\n", "\t"))
    return draw(pad) + text + draw(pad)


def _outcome(read, source):
    try:
        ds = read(source)
    except ValueError as err:
        return str(err)
    return [(a.dtype, a.shape, a.tobytes())
            for a in (ds.states, ds.actions, ds.lengths, ds.index, ds.end)]


@settings(max_examples=500, deadline=None)
@given(text=dataset_texts())
@example(text="GCRL-DSET v1 2 2 1\nT 1\n0.5 0.5\n0.1 0.1\n\n\n")
@example(text="\n\nGCRL-DSET v1 2 0 1\nT 1\n0.5 0.5\n\n2.5 2.5\n \n")
@example(text="GCRL-DSET v1 1 1 2\nT 1\n1\n2\n3\n\n\nT 1\n")
@example(text="GCRL-DSET v1 -1 2 0\n")
def test_streamed_reader_decides_as_the_reference_reader(text, files):
    # same arrays, or the same error; the reader never holds every line
    (files / "read.dset").write_text(text)
    assert _outcome(data.read_dataset, files / "read.dset") == \
        _outcome(oracle_io.dataset_from_text, text)


@settings(max_examples=200, deadline=None)
@given(tree=tensor_trees())
@example(tree=EDGE_TREE)
def test_tensor_text_equals_reference_bytes(tree, files):
    V.write_tensors(tree, files / "written.txt")
    assert (files / "written.txt").read_text() == oracle_io.tensors_to_text(tree)


def test_three_dim_tensor_rejected(tmp_path):
    with pytest.raises(ValueError, match="more than 2 dimensions"):
        V.write_tensors({"cube": np.zeros((1, 1, 1))}, tmp_path / "cube.txt")


# ---- CSV tables -------------------------------------------------------------------

ARCHS = st.sampled_from(("MLP", "LAN", "IQE", "MRN", "Hilbert"))
STYLES = st.sampled_from(("navigate", "stitch"))
COUNTS = st.integers(0, 2 ** 40)


def _rows(schema: dict, **columns):
    """Lists of rows in schema order; ``columns`` overrides per-column strategies."""
    by_type = {bool: st.booleans(), int: COUNTS, float: reals}
    cells = {col: columns.get(col, by_type.get(type(like))) for col, like in schema.items()}
    row = st.fixed_dictionaries(cells).map(lambda r: {col: r[col] for col in schema})
    return st.lists(row, max_size=6)


def _failed_rows_are_nan(rows):
    # a failed run has no numbers: cmd_ablate writes nan for each
    nan = float("nan")
    return [r | {"success": nan, "alignment": nan, "kendall": nan}
            if r["status"] == "failed" else r for r in rows]


@st.composite
def _reports(draw):
    steps = sorted(draw(st.lists(COUNTS, unique=True, max_size=4)))
    reports = []
    for step in steps:
        n = draw(st.integers(1, 5))
        cols = [draw(st.lists(reals, min_size=n, max_size=n)) for _ in range(3)]
        reports.append(E.EvalReport(step, *cols))
    return reports


@st.composite
def _landscapes(draw):
    n = draw(st.integers(0, 8))
    xs, ys, vs = (np.array(draw(st.lists(reals, min_size=n, max_size=n)),
                           dtype=np.float64) for _ in range(3))
    return SimpleNamespace(xs=xs, ys=ys, values=vs)


read_metrics = partial(E.table_from_csv, "metrics", cli._METRICS)
read_landscape = partial(E.table_from_csv, "landscape", E._LANDSCAPE)

# name -> (objects, new writer, reference writer, reader, objects as read back)
TABLES = {
    "metrics": (_rows(cli._METRICS),
                lambda rows: E.table_to_csv(cli._METRICS, rows),
                oracle_csv.metrics_csv, read_metrics, lambda rows: rows),
    "runs": (_rows(cli._RUNS, arch=ARCHS, style=STYLES,
                   status=st.sampled_from(("ok", "failed"))).map(_failed_rows_are_nan),
             lambda rows: E.table_to_csv(cli._RUNS, rows),
             oracle_csv.runs_csv, cli.read_runs_csv, lambda rows: rows),
    "summary": (_rows(cli._SUMMARY, arch=ARCHS, style=STYLES),
                lambda rows: E.table_to_csv(cli._SUMMARY, rows),
                oracle_csv.summary_csv, cli.read_summary_csv, lambda rows: rows),
    "report": (_reports(), E.report_to_csv, oracle_csv.report_to_csv,
               lambda text: [vars(r) for r in E.report_from_csv(text)],
               lambda reports: [vars(r) for r in reports]),
    "landscape": (_landscapes(), E.landscape_to_csv, oracle_csv.landscape_to_csv,
                  lambda text: [[row[col] for row in read_landscape(text)]
                                for col in E._LANDSCAPE],
                  lambda g: [g.xs.tolist(), g.ys.tolist(), g.values.tolist()]),
}


@pytest.mark.parametrize("name", sorted(TABLES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_csv_tables_equal_reference_bytes_and_read_back(name, data):
    objects, write, reference, read, as_read = TABLES[name]
    rows = data.draw(objects)
    text = write(rows)
    assert text == reference(rows)
    # repr tells nan from nan-free, -0.0 from 0.0 and 1 from 1.0
    assert repr(read(text)) == repr(as_read(rows))


@pytest.mark.parametrize("name", sorted(TABLES))
def test_empty_csv_table_is_its_header(name):
    objects, write, reference, read, as_read = TABLES[name]
    empty = SimpleNamespace(xs=np.zeros(0), ys=np.zeros(0), values=np.zeros(0)) \
        if name == "landscape" else []
    text = write(empty)
    assert text == reference(empty) and text.count("\n") == 1
    assert repr(read(text)) == repr(as_read(empty))


METRICS_HEAD = "step,td_loss,continuity_loss,high_policy_loss,low_policy_loss,v_mean,delta\n"
RUNS_HEAD = "arch,hierarchical,continuity_weight,style,seed,success,alignment,kendall,status\n"
SUMMARY_HEAD = ("arch,hierarchical,continuity_weight,style,n_seeds,n_ok,success_mean,"
                "success_std,alignment_mean,alignment_std,kendall_mean,kendall_std\n")


@pytest.mark.parametrize("read, text, message", [
    (read_metrics, METRICS_HEAD + "100,0.5,0\n",
     "metrics line 2 has 3 cells, expected 7"),
    (cli.read_runs_csv, RUNS_HEAD + "LAN,false,0,stitch,0\n",
     "runs line 2 has 5 cells, expected 9"),
    (cli.read_runs_csv, RUNS_HEAD + "LAN,yes,0,stitch,0,1,0.5,0.5,ok\n",
     "runs line 2: expected true/false, got 'yes'"),
    (cli.read_summary_csv, SUMMARY_HEAD + "LAN,yes,0,stitch,3,3,1,0,0.5,0,0.5,0\n",
     "summary line 2: expected true/false, got 'yes'"),
    (cli.read_summary_csv, SUMMARY_HEAD + "LAN,false,0,stitch,3,3,1,0,0.5,0,0.5,0,7\n",
     "summary line 2 has 13 cells, expected 12"),
    (E.report_from_csv, "step,task_id,success_rate,kendall,temporal_alignment\n"
     "100,0,1,0.5,0.5\n100,1,1\n", "report line 3 has 3 cells, expected 5"),
    (E.report_from_csv, "step,task_id,success_rate,kendall,temporal_alignment\n"
     "1e2,0,1,0.5,0.5\n", "report line 2: invalid literal for int()"),
    (read_landscape, "x,y,value\n0.5,0.5\n",
     "landscape line 2 has 2 cells, expected 3"),
], ids=["metrics-short", "runs-short", "runs-bool", "summary-bool", "summary-long",
        "report-short", "report-int", "landscape-short"])
def test_malformed_csv_rows_rejected(read, text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        read(text)


@pytest.mark.parametrize("value", [np.float32(0.1), np.float32(-3.0), np.float32(1e-40),
                                   np.float32("inf"), np.float16(0.1), np.float64(0.1)],
                         ids=["f32-tenth", "f32-int", "f32-subnormal", "f32-inf",
                              "f16-tenth", "f64-tenth"])
def test_numpy_floats_format_as_seventeen_digits(value):
    # np.float32 is not a float: it once went through str and printed '0.1'
    assert E.format_value(value) == f"{float(value):.17g}"


def test_float32_landscape_reads_back_exactly():
    values = np.array([0.1, -2.5, 1e-3], dtype=np.float32)
    grid = SimpleNamespace(xs=np.array([0.5, 1.5, 2.5]), ys=np.zeros(3), values=values)
    text = E.landscape_to_csv(grid)
    assert text.splitlines()[1] == "0.5,0,0.10000000149011612"
    back = np.array([row["value"] for row in read_landscape(text)], dtype=np.float32)
    assert back.tobytes() == values.tobytes()
