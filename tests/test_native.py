"""Tests for the compiled seaweed kernel (:mod:`repro.core.native`).

The kernel must be bit-identical to its oracles: the NumPy iterative engine
and the recursive reference engine for the ⊡ product, the Python patience
loop for the dense-block score table, and the NumPy seam-sweep step for the
streaming sweep.  With the loader forced to fail, every build must fall
back to the NumPy path with identical results.
"""

import contextlib
import logging
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core import (
    Permutation,
    multiply,
    multiply_permutations,
    multiply_permutations_iterative,
    multiply_permutations_reference,
    random_permutation,
    random_subpermutation,
)
from repro.core import native
from repro.core.seaweed import pad_to_permutations, strip_padding
from repro.lis.semilocal import _dense_block_matrix, _patience_scores
from repro.obs.metrics import get_registry
from repro.service import build_lcs_index, build_lis_index
from repro.streaming.aggregator import (
    _NEG_INF,
    _part_slots,
    _sweep_one_part_numpy,
    build_block_product,
)

needs_kernel = pytest.mark.skipif(
    native.kernel() is None, reason="compiled seaweed kernel unavailable (no gcc?)"
)


def _native_product(pa, pb):
    out = native.kernel().multiply(pa.row_to_col, pb.row_to_col)
    return Permutation(out, validate=False)


@needs_kernel
class TestNativeMultiply:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 300), fanin=st.integers(2, 9), seed=st.integers(0, 2**32 - 1))
    def test_matches_both_engines(self, n, fanin, seed):
        rng = np.random.default_rng(seed)
        pa, pb = random_permutation(n, rng), random_permutation(n, rng)
        got = _native_product(pa, pb)
        assert got == multiply_permutations_iterative(pa, pb, fanin=fanin, base_size=4)
        assert got == multiply_permutations_reference(pa, pb, fanin=fanin, base_size=4)
        assert multiply_permutations(pa, pb) == got

    def test_large_odd_size(self):
        rng = np.random.default_rng(4097)
        pa, pb = random_permutation(4097, rng), random_permutation(4097, rng)
        assert _native_product(pa, pb) == multiply_permutations_iterative(pa, pb)

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.tuples(st.integers(0, 24), st.integers(0, 24), st.integers(0, 24)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_subpermutations_through_multiply(self, dims, seed):
        rng = np.random.default_rng(seed)
        n1, n2, n3 = dims
        pa = random_subpermutation(n1, n2, int(rng.integers(0, min(n1, n2) + 1)), rng)
        pb = random_subpermutation(n2, n3, int(rng.integers(0, min(n2, n3) + 1)), rng)
        perm_a, perm_b, info = pad_to_permutations(pa, pb)
        reference = strip_padding(multiply_permutations_reference(perm_a, perm_b), info)
        assert multiply(pa, pb) == reference

    def test_malformed_operand_is_refused(self):
        bad = np.array([0, 0, 1], dtype=np.int64)
        good = np.array([2, 1, 0], dtype=np.int64)
        assert native.kernel().multiply(bad, good) is None
        assert native.kernel().multiply(good, np.array([0, 1, 3])) is None


@needs_kernel
class TestNativePatienceScores:
    @settings(max_examples=80, deadline=None)
    @given(values=st.integers(0, 96).flatmap(
        lambda m: st.lists(st.integers(0, max(m - 1, 0)), min_size=m, max_size=m)
    ))
    def test_matches_python_table_with_ties(self, values):
        compact = np.asarray(values, dtype=np.int64)
        expected = _patience_scores(values, len(values))
        assert np.array_equal(native.kernel().patience_scores(compact), expected)

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(0, 96), seed=st.integers(0, 2**32 - 1))
    def test_dense_block_matches_fallback(self, m, seed):
        rng = np.random.default_rng(seed)
        split = rng.permutation(m).astype(np.int64)
        index = rng.integers(0, max(m // 2, 1), size=m).astype(np.int64)  # tied ranks
        compiled = _dense_block_matrix(split, index)
        with forced_fallback():
            assert _dense_block_matrix(split, index) == compiled


@st.composite
def _sweep_cases(draw):
    """A cover of block products, one part to sweep, and corner rows ``D``.

    Values are strict or non-strict and often duplicated; about half the
    parts are ad-hoc partial leaves (a slice of a run), whose value-interval
    sub-permutations have empty rows.  Parts of size 0 and 1 occur, and the
    rows of ``D`` start at ``_NEG_INF`` left of their corner, as in
    :func:`repro.streaming.aggregator.multi_cover_scores`.
    """
    strict = draw(st.booleans())
    alphabet = draw(st.integers(1, 40))
    sizes = draw(st.lists(st.integers(0, 40), min_size=1, max_size=4))
    parts = []
    arrival = 0
    for size in sizes:
        values = draw(st.lists(st.integers(0, alphabet - 1), min_size=size, max_size=size))
        lo = draw(st.integers(0, size))
        hi = draw(st.integers(lo, size)) if draw(st.booleans()) else size
        arrivals = np.arange(arrival + lo, arrival + hi, dtype=np.int64)
        arrival += size
        parts.append(build_block_product(
            np.asarray(values[lo:hi], dtype=np.float64), -arrivals if strict else arrivals
        ))
    m, slots = _part_slots(parts)
    target = draw(st.integers(0, len(parts) - 1))
    corners = np.arange(m + 1, dtype=np.int64)
    xs = np.asarray(draw(st.lists(st.integers(0, m), min_size=1, max_size=17)), dtype=np.int64)
    D = np.where(corners[None, :] >= xs[:, None], np.int64(0), _NEG_INF)
    # Scores of the parts before the target: non-decreasing along each row.
    bumps = draw(st.lists(st.integers(0, 3), min_size=m + 1, max_size=m + 1))
    D = np.where(D == 0, np.cumsum(np.asarray(bumps, dtype=np.int64))[None, :], D)
    return D, parts[target], slots[target]


@needs_kernel
class TestNativeSeamSweep:
    @settings(max_examples=150, deadline=None)
    @given(case=_sweep_cases())
    def test_matches_numpy_step(self, case):
        D, part, slots = case
        expected = _sweep_one_part_numpy(D.copy(), part, slots)
        got = D.copy()
        native.kernel().seam_sweep(got, part.matrix.row_to_col, slots)
        assert np.array_equal(got, expected)

    def test_kernel_path_builds_no_dense_table(self):
        from repro.streaming import StreamingLIS

        session = StreamingLIS(window=512)
        session.push(np.random.default_rng(3).integers(0, 100, size=600))
        session.lis_length()
        products = list(session.aggregator.store._entries.values())
        assert products and all(product._dense is None for product in products)

    def test_malformed_operands_are_refused(self):
        D = np.zeros((1, 4), dtype=np.int64)
        sweep = native.kernel().seam_sweep
        with pytest.raises(ValueError):
            sweep(D, np.array([0, 1]), np.array([2, 1]))  # slots not increasing
        with pytest.raises(ValueError):
            sweep(D, np.array([0, 1]), np.array([1, 4]))  # slot past the row
        with pytest.raises(ValueError):
            sweep(D, np.array([1, 1]), np.array([0, 1]))  # column used twice
        with pytest.raises(ValueError):
            sweep(D.astype(np.int32), np.array([0]), np.array([0]))


@contextlib.contextmanager
def forced_fallback():
    """Make the loader fail, as on a host without gcc, then restore it."""
    saved = native._KERNEL, native.load_kernel

    def refuse(directory=None):
        raise FileNotFoundError("no C compiler (gcc or cc) on PATH")

    native._KERNEL, native.load_kernel = native._UNTRIED, refuse
    try:
        yield
    finally:
        native._KERNEL, native.load_kernel = saved
        native.kernel_status()  # republish the real state


def _builds(seed=7):
    rng = np.random.default_rng(seed)
    seq = rng.integers(0, 400, size=700)
    s, t = rng.integers(0, 4, size=150), rng.integers(0, 4, size=170)
    return [
        build_lis_index(seq, kind="lis:position"),
        build_lis_index(seq, kind="lis:value", strict=False),
        build_lcs_index(s, t),
    ]


class TestForcedFallback:
    def test_builds_are_identical_without_the_kernel(self, caplog):
        default = _builds()
        with forced_fallback(), caplog.at_level(logging.WARNING, logger="repro.core.native"):
            fallback = _builds()
            assert get_registry().gauge("repro_native_kernel").value() == 0
        warnings = [r.getMessage() for r in caplog.records if "unavailable" in r.getMessage()]
        assert len(warnings) == 1 and "no C compiler" in warnings[0]
        assert all(index.provenance["kernel"] == "numpy" for index in fallback)
        kernel_name = "native" if native.kernel() is not None else "numpy"
        assert all(index.provenance["kernel"] == kernel_name for index in default)
        for a, b in zip(fallback, default):
            assert a.fingerprint == b.fingerprint
            assert a.semilocal.matrix == b.semilocal.matrix


@pytest.mark.skipif(shutil.which("gcc") is None and shutil.which("cc") is None,
                    reason="no C compiler")
def test_concurrent_builds_into_one_cache_dir(tmp_path):
    cache = tmp_path / "kernels"
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    script = (
        "import sys; from repro.core.native import load_kernel; "
        "k = load_kernel(sys.argv[1]); "
        "import numpy as np; out = k.multiply(np.array([1, 0]), np.array([1, 0])); "
        "print(k.path, out.tolist())"
    )
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script, str(cache)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
        )
        for _ in range(2)
    ]
    outputs = [proc.communicate(timeout=120) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], outputs
    paths = {out.split()[0] for out, _ in outputs}
    assert len(paths) == 1
    assert all(out.strip().endswith("[1, 0]") for out, _ in outputs)  # sticky braid
    assert [p.name for p in cache.iterdir()] == [os.path.basename(paths.pop())]
