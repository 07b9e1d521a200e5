"""Datasets, activations, matrix I/O, seeding, canonical JSON."""

import math
import sys
import threading
import time
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from rfequiv import (
    Activation,
    Dataset,
    KernelSet,
    MatrixFormatError,
    RFConfig,
    build_equiv,
    build_pseudoresolvent,
    empirical_test_error,
    kernel_ridge_error,
    load_matrix,
    solve_subdel,
    synthetic_regression,
    write_matrix,
)
from rfequiv import model
from rfequiv.model import (_parallel_map, apply_activation, derive_seed,
                           substream, to_json_text, worker_count)
from rfequiv.rdel import LinearizationSpec, rf_linearization

from conftest import blas_threads, caller_blas_threads, train_kernels


# ---------------------------------------------------------------------------
# load_matrix / write_matrix
# ---------------------------------------------------------------------------

def test_csv_two_by_two(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3,4\n")
    assert np.array_equal(load_matrix(p), [[1.0, 2.0], [3.0, 4.0]])


def test_csv_column_vector(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("1\n2\n3\n")
    assert load_matrix(p).shape == (3, 1)


def test_csv_accepts_whitespace_separators(tmp_path):
    p = tmp_path / "w.csv"
    p.write_text("1 2\n3\t4\n5, 6\n7 , 8\n")
    assert np.array_equal(load_matrix(p),
                          [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])


@pytest.mark.parametrize("row", ["1,,2", "1,2,", ",1,2", "1, ,2", ","])
def test_csv_empty_cell_rejected(tmp_path, row):
    p = tmp_path / "e.csv"
    p.write_text(f"1,2,3\n{row}\n")
    with pytest.raises(MatrixFormatError, match="e.csv:2: empty cell"):
        load_matrix(p)


def test_csv_ragged_rows_rejected(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("1,2\n3\n")
    with pytest.raises(MatrixFormatError):
        load_matrix(p)


def test_csv_non_numeric_cell_rejected(tmp_path):
    p = tmp_path / "n.csv"
    p.write_text("1,frog\n")
    with pytest.raises(MatrixFormatError):
        load_matrix(p)


def test_npy_reads_fortran_and_big_endian_files_as_native_c_arrays(tmp_path):
    m = np.arange(6.0).reshape(2, 3)
    for name, value in (("c", m), ("fortran", np.asfortranarray(m)),
                        ("big", m.astype(">f8")),
                        ("big-fortran", np.asfortranarray(m.astype(">f8")))):
        p = tmp_path / f"{name}.npy"
        np.save(p, value)
        back = load_matrix(p)
        assert back.dtype == np.dtype("=f8") and back.flags.c_contiguous
        assert np.array_equal(back, m)


def test_npy_bytes_after_the_array_rejected(tmp_path):
    p = tmp_path / "bad.npy"
    np.save(p, np.arange(6.0).reshape(2, 3))
    with open(p, "ab") as fh:
        fh.write(b"\0" * 8)
    with pytest.raises(MatrixFormatError, match="bad.npy: bytes after the array"):
        load_matrix(p)


@settings(max_examples=50, deadline=None)
@given(
    arrays(
        np.float64,
        array_shapes(min_dims=2, max_dims=2, max_side=6),
        elements=st.floats(allow_nan=True, allow_infinity=True,
                           allow_subnormal=True, width=64),
    )
)
@example(np.array([[math.nan, math.inf, -math.inf],
                   [-0.0, 5e-324, -2.2250738585072e-308]]))
def test_npy_round_trip_is_bit_exact(m):
    import tempfile, os

    fd, path = tempfile.mkstemp(suffix=".npy")
    os.close(fd)
    try:
        write_matrix(path, m)
        back = load_matrix(path)
    finally:
        os.unlink(path)
    assert back.shape == m.shape
    assert np.array_equal(back.view(np.uint64), np.asarray(m).view(np.uint64))


def test_csv_write_then_read(tmp_path):
    m = np.array([[1.5, -2.25], [0.0, 1e-30]])
    p = tmp_path / "rt.csv"
    write_matrix(p, m)
    assert np.array_equal(load_matrix(p), m)


# ---------------------------------------------------------------------------
# synthetic_regression
# ---------------------------------------------------------------------------

def test_synthetic_noise_free_labels_lie_in_design_span():
    ds = synthetic_regression(4, 2, 3, 0.0, seed=7)
    # y = X w* exactly, so the least-squares residual of y on X vanishes
    coef, *_ = np.linalg.lstsq(ds.X, ds.y, rcond=None)
    assert np.linalg.norm(ds.X @ coef - ds.y) < 1e-12
    coef_hat, *_ = np.linalg.lstsq(ds.Xhat, ds.yhat, rcond=None)
    assert np.linalg.norm(ds.Xhat @ coef_hat - ds.yhat) < 1e-12
    # both halves share the same teacher vector
    assert np.allclose(ds.Xhat @ coef, ds.yhat, atol=1e-12)


def test_synthetic_deterministic():
    a = synthetic_regression(5, 3, 4, 0.2, seed=42)
    b = synthetic_regression(5, 3, 4, 0.2, seed=42)
    for f in ("X", "Xhat", "y", "yhat"):
        assert np.array_equal(getattr(a, f), getattr(b, f))


def test_synthetic_design_mean_is_clt_small():
    ds = synthetic_regression(100, 100, 100, 0.1, seed=1)
    assert abs(ds.X.mean()) <= 3 / math.sqrt(100 * 100)


def test_synthetic_rejects_bad_dims():
    with pytest.raises(ValueError):
        synthetic_regression(0, 2, 3, 0.1, seed=0)
    with pytest.raises(ValueError):
        synthetic_regression(2, 2, 3, -0.1, seed=0)


# ---------------------------------------------------------------------------
# Dataset / RFConfig / ridge validation
# ---------------------------------------------------------------------------

def test_dataset_rejects_column_mismatch():
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros(2), np.zeros(2))


def test_dataset_rejects_label_length_mismatch():
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(3), np.zeros(2))


def test_dataset_rejects_non_finite():
    x = np.zeros((2, 3))
    x[0, 0] = np.inf
    with pytest.raises(ValueError):
        Dataset(x, np.zeros((2, 3)), np.zeros(2), np.zeros(2))


def test_dataset_dimension_properties():
    ds = synthetic_regression(5, 3, 4, 0.0, seed=0)
    assert (ds.n_train, ds.n_test, ds.n0) == (5, 3, 4)


def test_rfconfig_validation():
    RFConfig(d=1, delta=0.5, n=1, seed=0)
    with pytest.raises(ValueError):
        RFConfig(d=0, delta=0.5, n=1, seed=0)
    with pytest.raises(ValueError):
        RFConfig(d=1, delta=0.0, n=1, seed=0)
    with pytest.raises(ValueError):
        RFConfig(d=1, delta=0.5, n=1, seed=2 ** 64)


@pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, math.inf])
def test_every_ridge_entry_point_rejects_non_positive_or_non_finite(
        toy_kernels, delta):
    A, Ahat = np.eye(2), np.ones((1, 2))
    y, yhat = np.ones(2), np.ones(1)
    calls = [
        lambda: RFConfig(d=1, delta=delta, n=1, seed=0),
        lambda: solve_subdel(train_kernels(np.eye(2)), 2, delta, 1j),
        lambda: build_equiv(toy_kernels, y, yhat, 2, delta),
        lambda: kernel_ridge_error(toy_kernels, y, yhat, 2, delta),
        lambda: rf_linearization(toy_kernels, (2, 2, 1), delta),
        lambda: empirical_test_error(A, Ahat, y, yhat, delta),
        lambda: build_pseudoresolvent(A, Ahat, delta, 1j),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="positive finite"):
            call()


# ---------------------------------------------------------------------------
# Array arguments
# ---------------------------------------------------------------------------

# every site that takes arrays: its call on keyword arrays, and valid ones;
# four train and four test points, so that a two-column label of the right
# size would fill the vector if it were flattened
_K4 = KernelSet(np.eye(4), np.zeros((4, 4)), np.eye(4), 1)
_LABELS = {"y": np.arange(1.0, 5.0), "yhat": np.ones(4)}
_FEATURES = {"A": np.eye(4, 3), "Ahat": np.ones((4, 3))}
ARRAY_SITES = {
    "Dataset": (Dataset, {"X": np.eye(4, 2), "Xhat": np.ones((4, 2)), **_LABELS}),
    "KernelSet": (lambda **k: KernelSet(**k, samples=1),
                  {"K_aa": np.eye(4), "K_ah": np.zeros((4, 4)), "K_hh": np.eye(4)}),
    "LinearizationSpec": (lambda **k: LinearizationSpec(**k, superop=lambda M: 0 * M),
                          {"expectation": np.eye(4),
                           "lambda_mask": np.array([1.0, 0.0, 0.0, 0.0])}),
    "build_equiv": (lambda **k: build_equiv(_K4, **k, d=2, delta=1.0), _LABELS),
    "kernel_ridge_error": (lambda **k: kernel_ridge_error(_K4, **k, d=2, ridge=1.0),
                           _LABELS),
    "empirical_test_error": (lambda **k: empirical_test_error(**k, delta=1.0),
                             {**_FEATURES, **_LABELS}),
    "build_pseudoresolvent": (lambda **k: build_pseudoresolvent(**k, delta=1.0, z=1j),
                              _FEATURES),
}


def _array_faults(value):
    """Faulty variants of the valid array ``value``: a NaN entry; a complex
    entry, whose imaginary part a cast to float would drop; for a matrix,
    its first row as a 1-D array; for a vector, two columns and one entry
    too few."""
    nan = value.copy()
    nan.flat[0] = math.nan
    imaginary = value + 0j
    imaginary.flat[0] += 2j
    faults = {"nan": nan, "complex": imaginary}
    if value.ndim == 2:
        return {**faults, "1d": value[0]}
    return {**faults, "two-column": value.reshape(-1, 2), "short": value[:-1]}


ARRAY_FAULTS = [(site, arg, fault) for site, (_, valid) in ARRAY_SITES.items()
                for arg, value in valid.items() for fault in _array_faults(value)]


@pytest.mark.parametrize("site, arg, fault", ARRAY_FAULTS,
                         ids=["-".join(case) for case in ARRAY_FAULTS])
def test_array_fault_raises_value_error_naming_the_argument(site, arg, fault):
    call, valid = ARRAY_SITES[site]
    call(**valid)
    bad = _array_faults(valid[arg])[fault]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"^{arg} "):
            call(**{**valid, arg: bad})


def _value_or_none(call):
    """``call()``, or None if it raises ``ValueError``; a warning or any
    other exception escapes and fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except ValueError:
            return None


FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([5e-324, -5e-324, 1.7e308, -1.7e308, math.nan, math.inf]),
)


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0,
                                       max_side=3), elements=FLOATS),
       st.sampled_from([0, 0, 1, -1]))
def test_matrix_and_vector_return_their_promise_or_raise_value_error(a, shift):
    finite = bool(np.all(np.isfinite(a)))
    m = _value_or_none(lambda: model._matrix(a, "a"))
    assert (m is not None) == (a.ndim == 2 and a.size > 0 and finite)
    if m is not None:
        assert np.array_equal(m, a) and m.shape == a.shape
    sq = _value_or_none(lambda: model._matrix(a, "a", square=True))
    if sq is not None:
        assert sq.shape == a.shape == a.shape[::-1] and np.all(np.isfinite(sq))
        # every square matrix past the door is symmetric bit for bit
        assert np.array_equal(sq, sq.T)
        assert np.array_equal(sq, a if np.array_equal(a, a.T) else a / 2 + a.T / 2)
    if m is not None and a.shape[0] == a.shape[1]:
        sym = np.triu(a) + np.triu(a, 1).T  # each sum has a zero term
        got = _value_or_none(lambda: model._matrix(sym, "a", square=True))
        assert got is not None and got.tobytes() == sym.tobytes()
    n = a.size + shift
    v = _value_or_none(lambda: model._vector(a, "a", n))
    one_axis = a.ndim == 1 or a.ndim == 2 and 1 in a.shape
    assert (v is not None) == (one_axis and a.size == n and finite)
    if v is not None:
        assert v.shape == (n,) and np.array_equal(v, a.reshape(-1))


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def test_identity_activation():
    out = apply_activation(Activation("identity"), np.array([[-1.0, 2.0]]))
    assert np.array_equal(out, [[-1.0, 2.0]])


def test_sign_activation_zero_maps_to_zero():
    out = apply_activation(Activation("sign"), np.array([[-3.0, 0.0, 5.0]]))
    assert np.array_equal(out, [[-1.0, 0.0, 1.0]])


def test_erf_activation_is_odd_at_zero():
    assert apply_activation(Activation("erf"), np.array([[0.0]]))[0, 0] == 0.0


def _erf_bits(x, monkeypatch):
    """``apply_activation`` erf of ``x`` against ``scipy.special.erf`` bit for
    bit (NaN payloads and the sign of zero too); returns the sizes of the
    arrays that the activation handed to scipy's erf."""
    from scipy import special
    erf, seen = special.erf, []

    def spy(v):
        seen.append(np.size(v))
        return erf(v)

    monkeypatch.setattr(special, "erf", spy)
    got = apply_activation(Activation("erf"), x)
    want = erf(x)
    assert got.shape == want.shape
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(want).view(np.uint64))
    return seen


def test_erf_fast_path_equals_scipy_bit_for_bit(monkeypatch):
    # float64 erf is exactly +-1 from |x| = 5.9216 on; a threshold below
    # that writes +-1 where erf is 1 - 2^-53
    grids = [np.linspace(5.5, 7.0, 200_001), np.linspace(6.0, 60.0, 200_001),
             np.geomspace(60.0, 1e308, 20_001)]
    for grid in grids:
        for x in (grid, -grid):
            assert _erf_bits(x, monkeypatch)[-1] < x.size  # the masked path ran
    edge = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324,
                     1e-310, -2.2e-308])
    for x in (edge, np.r_[edge, np.full(edge.size, 7.5)]):
        _erf_bits(x, monkeypatch)
    # NaN reaches erf on either path, so _features still refuses it
    out = apply_activation(Activation("erf"), np.r_[np.nan, np.full(3, 9.0)])
    assert np.isnan(out[0]) and np.all(out[1:] == 1.0)
    # the masked path runs from half saturated on; below it erf sees all
    small = np.linspace(-1.0, 1.0, 10)
    assert _erf_bits(np.r_[small, np.full(10, -8.0)], monkeypatch) == [10]
    assert _erf_bits(np.r_[small, 0.5, np.full(9, 8.0)], monkeypatch) == [20]
    # views that are not C-contiguous, and a 0-d input
    big = np.linspace(-40.0, 40.0, 60 * 80).reshape(60, 80)
    for x in (big.T, big[::2, 1::3], np.asarray(6.5), np.asarray(-0.0)):
        _erf_bits(x, monkeypatch)


def test_relu_and_sin():
    x = np.array([[-2.0, 0.5]])
    assert np.array_equal(apply_activation(Activation("relu"), x), [[0.0, 0.5]])
    assert np.allclose(apply_activation(Activation("sin"), x), np.sin(x))


def test_custom_table_interpolates():
    a = Activation("custom-table", (-1.0, 0.0, 1.0, 0.0, 1.0, 2.0))
    out = apply_activation(a, np.array([[0.5]]))
    assert out[0, 0] == pytest.approx(1.5)


def test_custom_table_rejects_out_of_grid():
    a = Activation("custom-table", (-1.0, 1.0, 0.0, 2.0))
    with pytest.raises(ValueError):
        apply_activation(a, np.array([[1.5]]))


def test_custom_table_requires_increasing_grid():
    with pytest.raises(ValueError):
        Activation("custom-table", (1.0, -1.0, 0.0, 2.0))


def test_unknown_activation_kind_rejected():
    with pytest.raises(ValueError):
        Activation("tanh")


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["identity", "erf", "sign", "sin", "relu"]),
    m=arrays(
        np.float64,
        array_shapes(min_dims=1, max_dims=3, max_side=5),
        elements=st.floats(-50, 50),
    ),
)
def test_activation_preserves_shape(kind, m):
    assert apply_activation(Activation(kind), m).shape == m.shape


# ---------------------------------------------------------------------------
# Seeding and workers
# ---------------------------------------------------------------------------

def test_substream_is_deterministic_and_label_separated():
    a = substream(7, "alpha", 0).standard_normal(4)
    b = substream(7, "alpha", 0).standard_normal(4)
    c = substream(7, "beta", 0).standard_normal(4)
    d = substream(7, "alpha", 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_derive_seed_is_stable_uint64():
    s = derive_seed(3, "sweep", 2)
    assert s == derive_seed(3, "sweep", 2)
    assert 0 <= s < 2 ** 64
    assert s != derive_seed(3, "sweep", 3)


def test_worker_count_honors_environment(monkeypatch):
    monkeypatch.setenv("RF_EQUIV_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("RF_EQUIV_THREADS", "1")
    assert worker_count() == 1


@pytest.mark.parametrize("value", ["0", "-2", "abc"])
def test_worker_count_refuses_a_count_below_one_or_not_an_integer(
        monkeypatch, value):
    monkeypatch.setenv("RF_EQUIV_THREADS", value)
    with pytest.raises(ValueError, match="RF_EQUIV_THREADS must be a positive "
                                         f"integer, got '{value}'"):
        worker_count()


# ---------------------------------------------------------------------------
# _parallel_map and its single-thread BLAS pin
# ---------------------------------------------------------------------------

def test_blas_controls_find_both_bundled_openblas_builds():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if blas != "scipy-openblas":
        pytest.skip(f"numpy is linked to {blas}, not the bundled OpenBLAS")
    assert len(model._blas_controls()) == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_parallel_map_pins_blas_to_one_thread_then_restores(workers):
    ones = (1,) * len(blas_threads())
    with caller_blas_threads(2):
        inside = list(_parallel_map(lambda i: blas_threads(), 6, workers))
        assert inside == [ones] * 6
        assert blas_threads() == (2,) * len(ones)


@pytest.mark.parametrize("workers", [1, 2])
def test_parallel_map_restores_blas_after_raise_and_close(workers):
    def fn(i):
        if i == 2:
            raise KeyError(i)
        return blas_threads()

    with caller_blas_threads(2):
        caller = blas_threads()
        with pytest.raises(KeyError):
            list(_parallel_map(fn, 5, workers))
        assert blas_threads() == caller
        results = _parallel_map(fn, 5, workers)
        assert next(results) == (1,) * len(caller)
        assert blas_threads() == (1,) * len(caller)  # pinned between results
        results.close()
        assert blas_threads() == caller


@pytest.mark.parametrize("count", [0, 1, 5, 64, 65, 1000])
def test_grouped_map_runs_contiguous_groups_fixed_by_the_count(count,
                                                              monkeypatch):
    # _parallel_map runs at most 64 tasks, each a run of consecutive
    # indices, one index a task up to 64 (the benchmark's 5 Gaussianity
    # pairs are 5 tasks), and the same grouping for any worker count.  Its
    # pool is replaced by one that runs a task when its first result is
    # asked for, so the calls made before a result is yielded are its task's
    class LazyPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            pass

        def submit(self, task, item):
            return types.SimpleNamespace(result=lambda: task(item))

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(model, "ThreadPoolExecutor", LazyPool)
    groupings = []
    for threads in ("1", "2"):
        monkeypatch.setenv("RF_EQUIV_THREADS", threads)
        calls, groups, results = [], [], []
        for result in _parallel_map(lambda i: calls.append(i) or i, count):
            results.append(result)
            done = sum(map(len, groups))
            if len(calls) > done:
                groups.append(calls[done:])
        assert results == list(range(count))
        groupings.append(groups)
    assert groupings[0] == groupings[1]
    groups = groupings[0]
    assert len(groups) <= 64
    assert [i for g in groups for i in g] == list(range(count))
    if count <= 64:
        assert all(len(g) == 1 for g in groups)


@pytest.mark.parametrize("workers", [2, 3])
def test_parallel_map_holds_at_most_its_window_of_finished_results(workers):
    # a caller slower than the pool: at most 2 * workers tasks run ahead of
    # the result the caller is taking, so the finished results that the
    # caller has not yet taken never number more than that window
    lock, finished, held = threading.Lock(), [0], []

    def fn(i):
        with lock:
            finished[0] += 1
        return i

    for taken, result in enumerate(_parallel_map(fn, 64, workers), 1):
        assert result == taken - 1
        time.sleep(0.005)
        with lock:
            held.append(finished[0] - taken)
    assert len(held) == 64 and max(held) <= 2 * workers, held


def test_nested_inline_map_keeps_the_outer_pin():
    # the sweep shape: pooled cells, each running an inline replicate map
    def cell(i):
        inner = list(_parallel_map(lambda j: blas_threads(), 3, workers=1))
        return inner + [blas_threads()]

    with caller_blas_threads(2):
        ones = (1,) * len(blas_threads())
        for seen in _parallel_map(cell, 4, workers=2):
            assert seen == [ones] * 4
            assert blas_threads() == ones
        assert blas_threads() == (2,) * len(ones)


def test_nested_map_runs_inline_on_its_share_of_two_workers():
    # a 2-task map on 2 workers leaves each task a share of 2 // 2 = 1: its
    # own map runs inline on the task's thread and starts no pool thread
    baseline = threading.active_count()
    both = threading.Barrier(2, timeout=30)  # the two tasks run at once
    seen = []

    def square(k):
        seen.append((k, threading.get_ident()))
        return k * k

    def task(i, fail=False):
        both.wait()
        me = threading.get_ident()
        inner = list(_parallel_map(lambda j: square(5 * i + j), 5))
        assert threading.active_count() == baseline + 2
        assert {t for k, t in seen if k // 5 == i} == {me}
        if fail and i:
            raise KeyError(i)
        return inner

    nested = list(_parallel_map(task, 2, workers=2))
    assert threading.active_count() == baseline
    assert len({t for _, t in seen}) == 2
    assert [v for inner in nested for v in inner] == list(
        _parallel_map(square, 10, workers=2))
    assert threading.active_count() == baseline

    both.reset()
    seen.clear()
    with pytest.raises(KeyError):
        list(_parallel_map(lambda i: task(i, fail=True), 2, workers=2))
    assert threading.active_count() == baseline


@pytest.mark.parametrize("cap", [2, 3, 4])
def test_nested_maps_never_run_more_busy_threads_than_the_cap(cap):
    # each task of the outer map takes cap // 2 workers for its own map,
    # so at most cap calls of the innermost function run at once
    lock, busy, peak = threading.Lock(), [0], [0]

    def call(j):
        with lock:
            busy[0] += 1
            peak[0] = max(peak[0], busy[0])
        time.sleep(0.002)
        with lock:
            busy[0] -= 1
        return j

    def task(i):
        return list(_parallel_map(call, 8))

    assert list(_parallel_map(task, 2, workers=cap)) == [list(range(8))] * 2
    assert 1 <= peak[0] <= cap


def test_concurrent_maps_share_one_pin():
    # maps and numpy-only pins (build_equiv's) started from several caller
    # threads: every worker and holder reads one thread, and the last
    # holder to end restores the caller's count
    seen, numpy_seen, done = set(), set(), threading.Event()

    def caller():
        for _ in range(20):
            seen.update(_parallel_map(lambda i: blas_threads(), 4, workers=2))

    def numpy_caller():
        while True:
            with model._SINGLE_THREAD_NUMPY_BLAS:
                numpy_seen.add(blas_threads()[:1])
            if done.is_set():
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with caller_blas_threads(2):
            maps = [threading.Thread(target=caller) for _ in range(4)]
            pins = [threading.Thread(target=numpy_caller) for _ in range(2)]
            for t in maps + pins:
                t.start()
            for t in maps:
                t.join(timeout=60)
            done.set()
            for t in pins:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in maps + pins)
            assert seen == {(1,) * len(blas_threads())}
            assert numpy_seen == {(1,)[:len(blas_threads())]}
            assert blas_threads() == (2,) * len(blas_threads())
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [1, 2])
def test_parallel_map_without_blas_controls_is_unchanged(monkeypatch, workers):
    rng = np.random.default_rng(0)
    mats = [rng.standard_normal((40, 40)) for _ in range(4)]

    def fn(i):
        return (mats[i] @ mats[i].T).tobytes()

    pinned = list(_parallel_map(fn, 4, workers))
    monkeypatch.setattr(model, "_blas_controls", lambda *packages: ())
    assert list(_parallel_map(fn, 4, workers)) == pinned


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------

def test_json_keeps_insertion_order_and_17_digits():
    # 17 significant digits where the double needs them, and no more
    # than it needs elsewhere
    text = to_json_text({"b": 0.1 + 0.2, "a": 2, "c": 1.0 / 3.0})
    assert text == '{"b":0.30000000000000004,"a":2,"c":0.3333333333333333}'


def test_json_rejects_non_finite():
    with pytest.raises(ValueError):
        to_json_text({"x": float("nan")})


def test_json_float_round_trips_losslessly():
    import json as stdlib_json

    for v in (1.0 / 3.0, 1e-308, math.pi, -2.5e17):
        text = to_json_text({"v": v})
        assert stdlib_json.loads(text)["v"] == v


@pytest.mark.parametrize("m", [6, 600])
def test_a_cholesky_factor_with_a_nan_pivot_is_no_certificate(m):
    """numpy's OpenBLAS factorisation passes a NaN pivot without an error;
    an overflow inside the factorisation can make one, and the factor must
    then prove nothing."""
    A = np.eye(m)
    A[5, 3] = A[3, 5] = np.nan
    assert not model._positive_definite(A)
    assert model._positive_definite(np.eye(m))
