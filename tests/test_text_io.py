"""Text I/O: the CSV reader against a one-value-at-a-time oracle, the CSV
and JSON writers against the two rules of their float text, and golden
digests of the files they write."""

import hashlib
import json
import math
import re
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from rfequiv import (KernelSet, MatrixFormatError, load_matrix, save_kernels,
                     synthetic_regression, write_json, write_matrix)
from rfequiv import model
from rfequiv.cli import main
from rfequiv.model import to_json_text

from conftest import EDGE_FLOATS, load_csv_oracle, traced_peak


def _digits(text):
    """The sign, digits and exponent of the decimal number ``text``, with
    trailing zeros dropped: equal for two texts exactly when they spell
    the same decimal number with the same sign."""
    return Decimal(text).normalize().as_tuple()


def _assert_float_texts(texts, values):
    """The writers' two rules for the text of each float value, one value
    at a time and without orjson: the text reads back through ``float`` as
    the value, bit for bit and sign of zero included, and it is the decimal
    number that ``repr`` writes; a non-finite value is ``repr``'s text."""
    values = np.asarray(values, dtype=float).ravel()
    assert len(texts) == values.size
    for text, v in zip(texts, values.tolist()):
        want = repr(v)
        assert text == want or math.isfinite(v) and _digits(text) == _digits(want), (text, v)
    _assert_same_doubles([float(text) for text in texts], values)


def _assert_same_doubles(got, want):
    """``got`` holds ``want``'s doubles bit for bit, a NaN wherever it has one."""
    got, want = np.asarray(got, dtype=float).ravel(), np.asarray(want, dtype=float).ravel()
    assert got.shape == want.shape
    same = (got.view(np.uint64) == want.view(np.uint64)) | (np.isnan(got) & np.isnan(want))
    assert same.all(), (got[~same], want[~same])


def _assert_json_writers(path, a):
    """``to_json_text`` and ``write_json`` of the finite float array ``a``:
    the list route's brackets and commas, and each value's text by
    :func:`_assert_float_texts`."""
    text = to_json_text({"v": a})
    write_json(path, {"v": a})
    assert path.read_bytes() == (text + "\n").encode()
    assert text == to_json_text({"v": a.tolist()})
    body = text[len('{"v":'):-1]
    skeleton = json.dumps(a.tolist(), separators=(",", ":"))
    assert re.sub(r"[^][,]+", "", body) == re.sub(r"[^][,]+", "", skeleton)
    _assert_float_texts([cell for cell in re.split(r"[][,]+", body) if cell], a)
    _assert_same_doubles(json.loads(text)["v"], a)


def _assert_csv_writers(path, m):
    """``write_matrix`` and ``_write_csv`` of the 2-D float array ``m``:
    one line a row and one cell a column, each cell's text by
    :func:`_assert_float_texts`, and ``load_matrix`` reads ``m`` back."""
    write_matrix(path, m)
    text = path.read_text()
    lines = text.split("\n")
    assert lines.pop() == "" and len(lines) == len(m)
    cells = [line.split(",") for line in lines]
    assert all(len(row) == m.shape[1] for row in cells)
    _assert_float_texts([cell for row in cells for cell in row], m)
    if m.size:
        _assert_same_doubles(load_matrix(path), m)
    model._write_csv(path, m, ("a", "b"))
    assert path.read_text() == "a,b\n" + text


def _old_csv(m):
    """A matrix as CSV text at 17 significant digits, as the package wrote
    CSVs before: integers without a point and a negative zero as ``-0``."""
    return "".join(",".join(format(v, ".17g") for v in row) + "\n"
                   for row in np.atleast_2d(m).tolist())


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.sampled_from(EDGE_FLOATS))
SHAPES = st.one_of(array_shapes(min_dims=1, max_dims=2, max_side=6),
                   st.integers(1, 8).map(lambda k: (1, k)),
                   st.integers(1, 8).map(lambda k: (k, 1)))


# ---------------------------------------------------------------------------
# JSON arrays
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, SHAPES, elements=FINITE))
@example(np.array(EDGE_FLOATS))
@example(np.array(EDGE_FLOATS).reshape(1, -1))
@example(np.array(EDGE_FLOATS).reshape(-1, 1))
@example(np.array([[-0.0, -0.0], [-0.5, -0.0]]))
def test_float_array_json_equals_the_per_value_oracle(tmp_path_factory, a):
    _assert_json_writers(tmp_path_factory.mktemp("json") / "r.json", a)


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, SHAPES, elements=FINITE), st.integers(0),
       st.sampled_from([np.nan, np.inf, -np.inf]))
def test_non_finite_array_entry_raises_as_a_list_entry_does(a, where, bad):
    a = a.copy()
    a.flat[where % a.size] = bad
    for v in (a, a.tolist()):
        with pytest.raises(ValueError, match="^non-finite value in JSON report$"):
            to_json_text({"v": v})


@pytest.mark.parametrize("a, text", [
    (np.array([1, -2, 3]), "[1,-2,3]"),
    (np.array([[True, False]]), "[[true,false]]"),
    (np.array([0.1, -0.0], dtype=np.float32), "[0.10000000149011612,-0.0]"),
    (np.zeros((0, 3)), "[]"),
    (np.zeros((2, 0)), "[[],[]]"),
    (np.array(2.5), "2.5"),
    (np.array(-0.0), "-0.0"),
    pytest.param(np.arange(8.0).reshape(2, 2, 2) - 4,
                 "[[[-4.0,-3.0],[-2.0,-1.0]],[[0.0,1.0],[2.0,3.0]]]",
                 id="a7-[[[-4,-3],[-2,-1]],[[0,1],[2,3]]]"),
])
def test_other_arrays_keep_the_list_route(a, text):
    assert to_json_text({"v": a}) == '{"v":' + text + "}"
    assert to_json_text({"v": a}) == to_json_text({"v": a.tolist()})


@pytest.mark.parametrize("v, word", [(np.True_, "true"), (np.False_, "false")])
def test_numpy_bools_are_json_booleans(v, word):
    """A numpy bool scalar is written as the Python bool is, in a dict and
    in a list."""
    assert to_json_text({"a": v}) == '{"a":%s}' % word
    assert to_json_text([v, {"b": [v]}]) == '[%s,{"b":[%s]}]' % (word, word)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def test_csv_separators_are_the_regex_whitespace_class():
    """``str.split()`` and the ``\\s`` of ``re`` split on the same code
    points, over all of Unicode."""
    text = "a".join(map(chr, range(0x110000)))
    assert "".join(text.split()) == re.sub(r"\s", "", text)


# the cells orjson reads as no float, or as another value than float's (-0
# reads as the integer 0), or refuses, and "1]" "[2" which as one row
# "1],[2" would be two: each must read as float reads it or fail as it does
CELLS = st.sampled_from(["0", "-0", "1", "-2.5", "0.1", "+3", ".5", "5.", "1e-310",
                         "1.7976931348623157e308", "1e999", "nan", "-inf", "7_5",
                         "1e", "frog", "0x1", "true", "false", "null", '"1"', "[1]",
                         "{}", "-0.0", "-0e0", "1E5", "18446744073709551616",
                         "9" * 400, "\u0661\u0662", "1]", "[2"])
SEPARATORS = st.sampled_from([",", " ", "\t", ", ", " ,\t", ",,", "\r", "\x0b", "\x0c",
                              "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028",
                              "\u3000", "\u200b", "\ufeff"])
EDGES = st.one_of(st.just(""), SEPARATORS)


@st.composite
def csv_texts(draw):
    """Lines of ``width`` cells mixed with blank lines and lines of any
    width, under random separators, line ends and edges."""
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        count = draw(st.sampled_from([width, width, width, 0, None]))
        if count is None:
            count = draw(st.integers(1, 5))
        cells = draw(st.lists(CELLS, min_size=count, max_size=count))
        line = draw(EDGES)
        for i, cell in enumerate(cells):
            line += (draw(SEPARATORS) if i else "") + cell
        lines.append(line + draw(EDGES) + draw(st.sampled_from(["\n", "\r\n", ""])))
    return "".join(line if line[-1:] == "\n" else line + "\n" for line in lines)


def _outcome(load, path):
    try:
        m = load(path)
    except MatrixFormatError as exc:
        return "error", str(exc)
    return m.shape, m.view(np.uint64).tobytes()


@settings(max_examples=400, deadline=None)
@given(csv_texts())
@example("1,2\n3\t4\n\n5\xa06\r\n")
@example("1\u200b2\n")
@example("1,2\n3,\n")
@example(",\n")
@example(" \u3000\n")
@example("1, ,2\n")
@example("1 2,\n3 4\n")
@example("1],[2\n")  # one line that the one parse would read as two rows
@example("],1,[\n[\n\n]\n")  # one array per line in count, and a number among them
def test_csv_reader_equals_the_regex_oracle(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(load_matrix, path) == _outcome(load_csv_oracle, path)


JSON_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True).map(repr),
    st.integers(-2 ** 70, 2 ** 70).map(str),
    st.sampled_from(["-0", "0", "-0.0", "-0e0", "1E5", "1e-400", "2.5e+3"]))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda width: st.lists(
    st.lists(JSON_NUMBERS, min_size=width, max_size=width), min_size=1,
    max_size=5)), st.sampled_from([",", " ", ", ", "\t"]))
@example([["0.0", "-0"]], ", ")  # a -0 cell after a space
@example([["1e-0", "-0"], ["2.5e-05", "-0.0"]], ",")
def test_csv_reader_reads_json_numbers_as_float_does(tmp_path_factory, rows, sep):
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    path.write_text("".join(sep.join(row) + "\n" for row in rows), encoding="utf-8")
    assert _outcome(load_matrix, path) == _outcome(load_csv_oracle, path)


@pytest.mark.parametrize("text, parsed", [
    ("1.5,2\n-3e-2,4\n", True),
    # the 17-digit text of earlier files, integers and exponents with "-0" in them
    (_old_csv(np.array([[1.0, -2.5e-05, 3e-300], [-0.5, 4.0, 1e+20]])), True),
    ("1.5, 2\n-3e-2, 4\n", True),
    ("".join("%10.4f,%10.4f\n" % row for row in ((1.5, -2), (30, 0.25))), True),
    ("1.5,2 \n\n-3e-2,4\t\n \n", True),
    ("1.5 2\n\n-3e-2\t4\n", False),  # cells split by whitespace alone
    ("1.5\t2\n-3e-2\t4\n", False),
    ("1.5,-0\n3,4\n", False),  # -0 would read as the integer 0
    ("0.0, -0\n3,4\n", False),
    ("1.5,-0 \n3,4\n", False),
    ("1e-0,2\n3,4\n", False),  # an exponent's -0 takes the reference pass too
    ("1.5,+2\n3,4\n", False),
    ("1.5,2\n3,\n", False),
    ("1.5 ,,2\n3 4\n", False),
])
def test_csv_reader_parses_json_numbers_in_one_call(tmp_path, monkeypatch, text,
                                                    parsed):
    path = tmp_path / "m.csv"
    path.write_text(text)
    calls = []
    float_rows = model._float_rows
    monkeypatch.setattr(model, "_float_rows",
                        lambda *args: calls.append(1) or float_rows(*args))
    assert _outcome(load_matrix, path) == _outcome(load_csv_oracle, path)
    assert calls == ([] if parsed else [1])


def test_csv_splits_at_unicode_whitespace_but_not_at_format_characters(tmp_path):
    path = tmp_path / "u.csv"
    path.write_bytes("\x1c1\x1f2\x85 3\xa04\u20285\u30006\n".encode("utf-8"))
    assert load_matrix(path).tolist() == [[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]
    for joiner in ("\u200b", "\ufeff"):
        path.write_bytes(f"1{joiner}2\n".encode("utf-8"))
        with pytest.raises(MatrixFormatError, match="u.csv:1: non-numeric cell"):
            load_matrix(path)


def _verb_files(root):
    """In a new directory ``root``, run estimate-kernels (closed form and
    Monte Carlo), predict, simulate and sweep on one CSV dataset and return
    the bytes of every file written.  X and Xhat are written as 17-digit
    text: X holds halves and integers (+ 0.0 turns each -0.0 into 0.0),
    whose cells orjson reads as ints, and Xhat a -0.0, written as -0, the
    one integer orjson reads as another value than float."""
    ds = synthetic_regression(12, 6, 5, 0.3, seed=8)
    X, Xhat = np.round(ds.X * 4) / 2 + 0.0, ds.Xhat.copy()
    Xhat[1, 2] = -0.0
    root.mkdir()
    data = {name: root / f"{name}.csv" for name in ("X", "Xhat", "y", "yhat")}
    data["X"].write_text(_old_csv(X))
    data["Xhat"].write_text(_old_csv(Xhat))
    for name, value in (("y", ds.y), ("yhat", ds.yhat)):
        write_matrix(data[name], value.reshape(-1, 1))
    design = ["--x", str(data["X"]), "--xhat", str(data["Xhat"])]
    labels = ["--y", str(data["y"]), "--yhat", str(data["yhat"])]
    out = root / "out"
    out.mkdir()
    mc = ["--sigma", "sign", "--phi", "sin", "--samples", "600", "--seed", "3"]
    for argv in (
            ["estimate-kernels", *design, "--out", out / "exact.json"],
            ["estimate-kernels", *design, *mc, "--out", out / "mc.json"],
            ["predict", "--kernels", out / "mc.json", *labels, "--d", "9",
             "--delta", "0.2", "--out", out / "predict.json"],
            ["simulate", *design, *labels, "--d", "9", "--delta", "0.2",
             "--reps", "4", "--out", out / "simulate.json",
             "--csv", out / "simulate.csv"],
            ["sweep", *design, *labels, *mc, "--d-list", "4,9",
             "--delta-list", "0.1,1", "--reps", "3", "--out", out / "sweep.csv"]):
        assert main([str(a) for a in argv]) == 0
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_verbs_write_the_bytes_of_the_per_value_csv_reader(tmp_path, monkeypatch):
    runs, fallbacks = {}, set()
    float_rows = model._float_rows
    monkeypatch.setattr(model, "_float_rows", lambda path, lines: fallbacks.add(
        Path(path).name) or float_rows(path, lines))
    for threads in ("1", "2"):
        monkeypatch.setenv("RF_EQUIV_THREADS", threads)
        for reader in ("shipped", "oracle"):
            with monkeypatch.context() as patch:
                if reader == "oracle":
                    patch.setattr(model, "_load_csv", load_csv_oracle)
                runs[threads, reader] = _verb_files(tmp_path / f"{threads}-{reader}")
    assert fallbacks == {"Xhat.csv"}  # X, y and yhat took the one orjson parse
    assert len(runs["1", "shipped"]) == 6
    for threads in ("1", "2"):
        assert runs[threads, "shipped"] == runs[threads, "oracle"]
    assert runs["1", "shipped"] == runs["2", "shipped"]


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, SHAPES,
              elements=st.one_of(st.floats(allow_subnormal=True),
                                 st.sampled_from(EDGE_FLOATS))))
@example(np.array(EDGE_FLOATS).reshape(-1, 1))
def test_write_matrix_equals_the_per_value_oracle(tmp_path_factory, m):
    _assert_csv_writers(tmp_path_factory.mktemp("csv") / "m.csv", np.atleast_2d(m))


@pytest.mark.parametrize("shape", [(11, 3), (3, 20)], ids=["rows-4-a-block", "row-a-block"])
def test_csv_blocks_equal_the_per_value_oracle(tmp_path, monkeypatch, shape):
    """The writer dumps blocks of at most ``_CSV_CELLS`` cells, or of one
    row; non-finite cells and a negative zero on the rows at the edges of
    the blocks keep their text and their place."""
    monkeypatch.setattr(model, "_CSV_CELLS", 12)
    m = np.random.default_rng(5).standard_normal(shape)
    for row, v in zip((0, 1, 3, 4, 7, 8, -1),
                      (-0.0, np.inf, np.nan, -np.inf, np.nan, -0.0, np.inf)):
        m[row % len(m), row % 3] = v
    _assert_csv_writers(tmp_path / "m.csv", m)


def test_write_matrix_holds_one_block_of_text(tmp_path):
    """A 400 x 400 matrix writes 3.1 MB of text, and the writer holds one
    block of it, not the whole.  The bound was fixed before the
    first run: the whole text and its copy with newlines read 2.34 times
    the file size."""
    m = np.random.default_rng(0).standard_normal((400, 400))
    path = tmp_path / "m.csv"
    peak = traced_peak(lambda: write_matrix(path, m))
    assert peak <= 1.4 * path.stat().st_size


@pytest.mark.parametrize("suffix", [".csv", ".npy"], ids=["csv", "npy"])
def test_write_matrix_refuses_complex_and_3d_arrays(tmp_path, suffix):
    """A complex array would lose its imaginary part and a 3-D one would
    fail inside the writer; both are refused before the file is opened,
    and a 1-D array is still one row."""
    path = tmp_path / f"m{suffix}"
    for M, text in ((np.array([[1 + 2j]]), "the matrix is complex, not real"),
                    (np.zeros((2, 2, 2)), "the matrix is 3-D, not 1-D or 2-D")):
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            write_matrix(path, M)
        assert not path.exists()
    write_matrix(path, np.array([1.5, -2.0]))
    assert load_matrix(path).tolist() == [[1.5, -2.0]]


def test_csv_writes_integers_up_to_2_53_as_themselves(tmp_path):
    """An ``int`` cell of a row of numbers is written as itself, up to 2^53
    and beyond, and a float cell as a float.  Each reads back as the double
    that the 17-digit text of the cell's value read back as."""
    path = tmp_path / "i.csv"
    row = (2 ** 53, -2 ** 53, 2 ** 53 - 1, 2 ** 53 + 1, 10 ** 17 - 1, 3.0)
    model._write_csv(path, [row], ("a", "b", "c", "d", "e", "f"))
    header, line, end = path.read_text().split("\n")
    assert (header, line, end) == ("a,b,c,d,e,f", "9007199254740992,-9007199254740992,"
                                   "9007199254740991,9007199254740993,99999999999999999,"
                                   "3.0", "")
    _assert_same_doubles([float(cell) for cell in line.split(",")],
                         [float(format(v, ".17g")) for v in row])


# ---------------------------------------------------------------------------
# the writers' float text on the inputs of the former integer digit route
# ---------------------------------------------------------------------------

def _neighbours(values, ulps=1):
    """Each value, both signs, and its ``ulps`` nearest doubles either side."""
    out = []
    for v in values:
        lo = hi = v
        for _ in range(ulps):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            out += [lo, hi]
        out.append(v)
    out = np.array(out)
    return np.concatenate([out, -out])


def _log_uniform():
    """10**5 signed values log-uniform over 1e-14..1e17, mixed with 0, -0,
    subnormals and integers."""
    rng = np.random.default_rng(2024)
    x = np.exp(rng.uniform(np.log(1e-14), np.log(1e17), 10 ** 5))
    x *= rng.choice([-1.0, 1.0], x.size)
    x[::97], x[::101], x[::89] = 0.0, -0.0, np.round(x[::89] * 1e-6)
    x[::103] = 5e-324 * rng.integers(1, 10 ** 6, x[::103].size)
    return [x.reshape(-1, 250)]


_PASS = 1 << 12  # the values a pass of the former digit route wrote
WRITER_INPUTS = {
    # every power of ten from 1e-15 to 1e17 and its neighbours; the double
    # nearest 1e-07 lies below it
    "powers-of-ten": lambda: [_neighbours([float(f"1e{j}") for j in range(-15, 18)])[None]],
    # values whose 18th significant digit is an exact 5
    "exact-ties": lambda: [
        np.array([[1000000000000000.25, 1000000000000000.75]]),
        (np.arange(4 * 10 ** 15 - 2001, 4 * 10 ** 15 + 2001, 2.0) / 4).reshape(69, 29),
        np.array([[0.5, 1.5, 2.5, 0.125, 1e15 + 0.5]])],
    # 50 doubles either side of 1e-11 and 1e-10, 2**52 and 2**53, 1e15 and
    # 1e16, the smallest normal double, and 1e-5, 1e-4 and 1
    "route-boundaries": lambda: [_neighbours(
        [1e-11, 1e-10, 2.0 ** 52, 2.0 ** 53, 1e15, 1e16, 2.0 ** -1022, 1e-5, 1e-4, 1.0],
        ulps=50)[None]],
    "log-uniform": _log_uniform,
    # rows that straddled a pass, and a row longer than a pass
    "pass-boundaries": lambda: [
        np.random.default_rng(5).standard_normal((5, _PASS // 3 + 7)) * 1e-6,
        np.random.default_rng(6).standard_normal((1, 2 * _PASS + 3)),
        np.random.default_rng(7).standard_normal((_PASS + 5, 1))],
    "edge-floats": lambda: [np.array([EDGE_FLOATS]), np.array([EDGE_FLOATS]).T],
}


@pytest.mark.parametrize("name", WRITER_INPUTS)
def test_writers_read_back_bit_for_bit_with_repr_digits(tmp_path, name):
    """Every writer of float text, on these inputs and on their transposes
    (which are not C-contiguous), against :func:`_assert_float_texts`."""
    for m in WRITER_INPUTS[name]():
        for a in (m, m.T):
            _assert_json_writers(tmp_path / "r.json", a)
            _assert_csv_writers(tmp_path / "m.csv", a)


# ---------------------------------------------------------------------------
# golden bytes
# ---------------------------------------------------------------------------

def _ratios(shape, a, b, c):
    """``(i*a mod b - b//2) / (i mod c + 10)`` for ``i = 0, 1, ...`` in
    ``shape``: small integers divided elementwise, so each entry is one
    correctly rounded division and the same on every platform."""
    i = np.arange(int(np.prod(shape)))
    return ((i * a % b - b // 2) / (i % c + 10)).reshape(shape)


def _golden_kernels():
    """A 5 + 3 joint matrix with off-diagonal entries below 1 in magnitude and
    8 on the diagonal, PSD by diagonal dominance, with a negative zero and a
    subnormal placed symmetrically."""
    J = _ratios((8, 8), 37, 19, 7)
    lower = np.tril_indices(8, -1)
    J[lower] = J.T[lower]
    np.fill_diagonal(J, 8.0)
    for i, j, v in ((1, 2, -0.0), (0, 6, -0.0), (3, 7, 5e-324)):
        J[i, j] = J[j, i] = v
    return KernelSet(J[:5, :5], J[:5, 5:], J[5:, 5:], 12345, exact=True)


def _golden_report():
    edge = np.array(EDGE_FLOATS)
    return {
        "name": "golden \u00e9\"", "flag": True, "none": None, "count": -3,
        "scalar": np.float64(-0.0), "float": 0.1, "vector": edge,
        "matrix": _ratios((3, 4), 11, 23, 5), "row": _ratios((1, 5), 7, 13, 3),
        "column": _ratios((5, 1), 5, 17, 4), "ints": np.arange(-2, 3),
        "bools": np.array([True, False]),
        "float32": np.array([0.1, -0.0, 3e-40], dtype=np.float32),
        "empty": np.zeros((0, 3)), "zero_d": np.array(2.5),
        "cube": _ratios((2, 2, 2), 3, 9, 2), "list": [1.5, -0.0, [2, 3.25, edge]],
        "tuple": (1, 2.5, False),
        "nested": {"inner": _ratios((2, 3), 13, 29, 6),
                   "negative_zeros": np.array([[-0.0, 1.0], [2.0, -0.0]])},
    }


def _golden_files(tmp_path):
    matrix = _ratios((4, len(EDGE_FLOATS)), 17, 31, 8)
    matrix[0] = EDGE_FLOATS
    save_kernels(_golden_kernels(), tmp_path / "kernels.json")
    write_matrix(tmp_path / "matrix.csv", matrix)
    write_matrix(tmp_path / "column.csv", np.array(EDGE_FLOATS).reshape(-1, 1))
    model._write_csv(tmp_path / "replicates.csv",
                     enumerate(EDGE_FLOATS + [2 ** 53 + 1]), ("replicate", "error"))
    write_json(tmp_path / "report.json", _golden_report())
    return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("kernels.json", "matrix.csv", "column.csv",
                         "replicates.csv", "report.json")}


# SHA-256 of the files in the shortest round-trip text.  Every value in them
# reads back as the 17-digit files that came before held it.  A changed
# digest is a change of the report format: state it in CHANGES.md.
GOLDEN_SHA256 = {
    "kernels.json":
        "98d9b2185b2c8f38130256a666cafa68b9a4e37e8fffcf90a3758f730dd08015",
    "matrix.csv":
        "46323a046331ba19606877b132b60f1c11a1f1b0b45cc936c9e3df5b1d8ffebd",
    "column.csv":
        "d66e888f925b7687b70d84251b97a95f351d04ac2cbd265439b313ca5ac1bdb2",
    "replicates.csv":
        "9ec5733eeba46221d33b7003ffcbddd17fe8c42dd53e3b52ad0be0b3c2d29678",
    "report.json":
        "50409dd34f7b4a17d93f8cdb326bae78a3b640dc45b6fb8b9a975992dc67d8a6",
}


def test_written_files_match_their_golden_digests(tmp_path):
    assert _golden_files(tmp_path) == GOLDEN_SHA256
