"""Tests for the sequential LIS algorithms (patience, DP, semi-local seaweed)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lis import (
    lis_length,
    lis_length_dp,
    lis_length_seaweed,
    lis_sequence,
    longest_nondecreasing_length,
    rank_transform,
    subsegment_matrix,
    value_interval_matrix,
)
from repro.core import native
from repro.lis.dp_baseline import lis_of_all_substrings, lis_of_value_ranges
from repro.lis.semilocal import _build_recursive
from repro.lis.patience import lds_length
from repro.workloads import (
    block_sorted_sequence,
    decreasing_sequence,
    duplicate_heavy_sequence,
    planted_lis_sequence,
    random_permutation_sequence,
)


class TestPatience:
    def test_known_cases(self):
        assert lis_length([]) == 0
        assert lis_length([5]) == 1
        assert lis_length([1, 2, 3]) == 3
        assert lis_length([3, 2, 1]) == 1
        assert lis_length([2, 1, 3, 0, 4]) == 3
        assert lis_length([1, 1, 1]) == 1
        assert longest_nondecreasing_length([1, 1, 1]) == 3

    def test_matches_dp(self, rng):
        for _ in range(20):
            n = int(rng.integers(0, 40))
            seq = rng.integers(0, 12, size=n)
            assert lis_length(seq) == lis_length_dp(seq)
            assert longest_nondecreasing_length(seq) == lis_length_dp(seq, strict=False)

    def test_certificate_is_valid(self, rng):
        for _ in range(20):
            seq = list(rng.integers(0, 30, size=int(rng.integers(1, 40))))
            cert = lis_sequence(seq)
            assert len(cert) == lis_length(seq)
            assert all(cert[i] < cert[i + 1] for i in range(len(cert) - 1))
            # The certificate must be a subsequence of the input.
            it = iter(seq)
            assert all(any(x == value for x in it) for value in cert)

    def test_lds(self):
        assert lds_length([3, 2, 1]) == 3
        assert lds_length([1, 2, 3]) == 1


class TestRankTransform:
    def test_permutation_output(self, rng):
        seq = rng.integers(0, 10, size=25)
        ranks = rank_transform(seq)
        assert sorted(ranks.tolist()) == list(range(25))

    def test_preserves_strict_lis(self, rng):
        for _ in range(20):
            seq = rng.integers(0, 8, size=int(rng.integers(1, 30)))
            assert lis_length(rank_transform(seq, strict=True)) == lis_length(seq)

    def test_preserves_nondecreasing_lis(self, rng):
        for _ in range(20):
            seq = rng.integers(0, 8, size=int(rng.integers(1, 30)))
            assert lis_length(rank_transform(seq, strict=False)) == longest_nondecreasing_length(seq)


class TestSeaweedLIS:
    def test_matches_patience_on_workloads(self):
        workloads = [
            random_permutation_sequence(150, seed=1),
            planted_lis_sequence(120, 40, seed=2),
            block_sorted_sequence(100, 10, seed=3),
            decreasing_sequence(80),
            duplicate_heavy_sequence(130, 9, seed=4),
            np.arange(60),
        ]
        for seq in workloads:
            assert lis_length_seaweed(seq) == lis_length(seq)

    def test_empty_sequence(self):
        assert lis_length_seaweed([]) == 0

    def test_matrix_point_count(self, rng):
        seq = random_permutation_sequence(60, seed=7)
        sl = value_interval_matrix(seq)
        assert sl.matrix.num_nonzeros == 60 - lis_length(seq)
        assert sl.lis_length() == lis_length(seq)

    def test_value_interval_queries(self, rng):
        seq = random_permutation_sequence(18, seed=8)
        sl = value_interval_matrix(seq)
        oracle = lis_of_value_ranges(seq)
        for x in range(19):
            for y in range(x, 19):
                assert sl.query_rank_interval(x, y) == oracle[x, y]

    def test_subsegment_queries(self, rng):
        seq = random_permutation_sequence(18, seed=9)
        sl = subsegment_matrix(seq)
        oracle = lis_of_all_substrings(seq)
        for i in range(19):
            for j in range(i, 19):
                assert sl.query_substring(i, j) == oracle[i, j]

    def test_kind_mismatch_raises(self):
        seq = random_permutation_sequence(10, seed=1)
        with pytest.raises(ValueError):
            value_interval_matrix(seq).query_substring(0, 5)
        with pytest.raises(ValueError):
            subsegment_matrix(seq).query_rank_interval(0, 5)

    def test_dense_block_size_does_not_change_result(self, monkeypatch):
        seq = random_permutation_sequence(90, seed=11)
        built = value_interval_matrix(seq).matrix  # the kernel build when it has loaded
        ranks = rank_transform(seq)
        positions = np.arange(len(ranks), dtype=np.int64)
        monkeypatch.setattr(native, "kernel", lambda: None)  # the NumPy oracle
        a = _build_recursive(positions, ranks, dense_block_size=1)[0]
        b = _build_recursive(positions, ranks, dense_block_size=32)[0]
        c = _build_recursive(positions, ranks, dense_block_size=256)[0]
        assert a == b == c
        assert a == built


@settings(max_examples=50, deadline=None)
@given(
    seq=st.lists(st.integers(min_value=0, max_value=30), min_size=0, max_size=60),
)
def test_seaweed_lis_matches_patience_property(seq):
    """Property: the seaweed LIS equals patience sorting for arbitrary inputs."""
    assert lis_length_seaweed(seq) == lis_length(seq)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), n=st.integers(min_value=1, max_value=22))
def test_semilocal_subsegment_property(seed, n):
    """Property: every subsegment query equals the brute-force LIS."""
    rng = np.random.default_rng(seed)
    seq = rng.permutation(n)
    sl = subsegment_matrix(seq)
    oracle = lis_of_all_substrings(seq)
    for i in range(0, n + 1, max(1, n // 4)):
        for j in range(i, n + 1, max(1, n // 4)):
            assert sl.query_substring(i, j) == oracle[i, j]
