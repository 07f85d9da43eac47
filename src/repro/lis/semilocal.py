"""Semi-local LIS via (sub)unit-Monge matrix multiplication.

This is the sequential form of the decomposition behind Theorem 1.3 and
Corollaries 1.3.2/1.3.3 of the paper: the LIS problem decomposes into O(n)
subunit-Monge products along a divide-and-conquer tree.

Two symmetric semi-local objects are built, both represented as a
sub-permutation matrix ``P`` whose distribution matrix ``K = PΣ`` encodes LIS
values (the correspondence ``score = span - K`` of Tiskin's framework):

* **value-interval matrix** (``kind='value'``): split the sequence by
  *position*, index the matrix by *value ranks*.  ``K(x, y)`` gives the LIS of
  the elements whose rank lies in ``[x, y)`` as ``(y - x) - K(x, y)``.
* **subsegment matrix** (``kind='position'``): split the sequence by *value*,
  index the matrix by *positions*.  ``K(i, j)`` gives the LIS of the
  subsegment ``A[i:j]`` as ``(j - i) - K(i, j)`` — the semi-local LIS of
  Corollary 1.3.2.

Both use the same combine: if a block is split into a "first" part ``F`` and a
"second" part ``S`` (by position for the value variant, by value for the
position variant), the block's score satisfies

    ``T_block(x, y) = max_v ( T_F(x, v) + T_S(v, y) )``

which under ``K = span - T`` is exactly the (min,+) product, i.e. ``⊡`` of the
embedded sub-permutation matrices.  Every block keeps its matrix over its own
compacted index universe ("relabeling" in the paper / CHS23), so the total
size per divide-and-conquer level is O(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from ..core import native
from ..core.combine import ColoredPointSet
from ..core.permutation import SubPermutation
from ..core.seaweed import multiply

__all__ = [
    "rank_transform",
    "embed_into_universe",
    "validate_intervals",
    "SemiLocalLIS",
    "value_interval_matrix",
    "subsegment_matrix",
    "lis_length_seaweed",
]

MultiplyFn = Callable[[SubPermutation, SubPermutation], SubPermutation]


def rank_transform(sequence: Sequence[float], *, strict: bool = True) -> np.ndarray:
    """Map a sequence to a permutation of ``0..n-1`` preserving the LIS.

    For ``strict=True`` equal values receive decreasing ranks (so that two
    equal values can never both appear in an increasing subsequence of the
    ranks); for ``strict=False`` they receive increasing ranks, which turns
    the longest *non-decreasing* subsequence of the input into the longest
    strictly increasing subsequence of the ranks.
    """
    values = np.asarray(sequence)
    n = len(values)
    positions = np.arange(n)
    if strict:
        order = np.lexsort((-positions, values))
    else:
        order = np.lexsort((positions, values))
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n, dtype=np.int64)
    return ranks


def embed_into_universe(
    matrix: SubPermutation, slots: np.ndarray, universe: int
) -> SubPermutation:
    """Expand a compacted block matrix into a larger index universe.

    ``slots[t]`` is the parent coordinate of the block's ``t``-th coordinate
    (``slots`` must be strictly increasing).  Block points are re-indexed
    through ``slots``; every parent coordinate not present in ``slots``
    receives a diagonal point, which encodes "this value/position does not
    occur in the block, so it contributes span 1 and score 0" — the padding
    ("relabeling") step of the paper's Theorem 1.3 proof.
    """
    slots = np.asarray(slots, dtype=np.int64)
    if matrix.n_rows != len(slots) or matrix.n_cols != len(slots):
        raise ValueError("slots must have one entry per block coordinate")
    rows, cols = matrix.points()
    mapped_rows = slots[rows]
    mapped_cols = slots[cols]
    # Complement of the occupied slots via boolean-mask scatter (this sits on
    # the streaming hot path; the old setdiff1d sorted the universe per call).
    occupied = np.zeros(universe, dtype=bool)
    occupied[slots] = True
    missing = np.flatnonzero(~occupied)
    all_rows = np.concatenate([mapped_rows, missing])
    all_cols = np.concatenate([mapped_cols, missing])
    return SubPermutation.from_points(all_rows, all_cols, universe, universe, validate=False)


def validate_intervals(
    i: np.ndarray, j: np.ndarray, upper: int, what: str = "interval"
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised bounds check for batches of half-open query windows.

    Every window must satisfy ``0 <= i <= j <= upper``.  Raises a
    :class:`ValueError` naming the first offending window — without this,
    negative indices would silently wrap through NumPy fancy indexing and
    return a plausible-looking wrong answer.  Returns the validated arrays as
    ``int64`` (shapes must match or broadcast to each other).
    """
    i = np.atleast_1d(np.asarray(i, dtype=np.int64))
    j = np.atleast_1d(np.asarray(j, dtype=np.int64))
    if i.shape != j.shape:
        try:
            i, j = np.broadcast_arrays(i, j)
            i, j = np.ascontiguousarray(i), np.ascontiguousarray(j)
        except ValueError:
            raise ValueError(
                f"{what} endpoint arrays have incompatible shapes {i.shape} and {j.shape}"
            ) from None
    bad = (i < 0) | (j > upper) | (i > j)
    if np.any(bad):
        first = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"invalid {what} ({int(i[first])}, {int(j[first])}) at batch position "
            f"{first}: windows must satisfy 0 <= i <= j <= {upper}"
        )
    return i, j


#: Blocks of at most this many elements use the direct dense construction.
DENSE_BLOCK_SIZE = 96


def _patience_scores(compact: Sequence[int], m: int) -> np.ndarray:
    """The dense score table ``T[x, y] = #{tails < y}`` of the patience passes.

    For every left endpoint ``x``, a patience pass over ``compact`` (keeping
    only values ``>= x``) produces the array of minimal tails.  This loop is
    the oracle of the compiled ``repro_patience_scores`` kernel.
    """
    import bisect

    scores = np.zeros((m + 1, m + 1), dtype=np.int64)
    grid = np.arange(m + 1, dtype=np.int64)
    for x in range(m + 1):
        tails: list = []
        for value in compact:
            if value < x:
                continue
            pos = bisect.bisect_left(tails, value)
            if pos == len(tails):
                tails.append(value)
            else:
                tails[pos] = value
        scores[x, :] = np.searchsorted(np.asarray(tails, dtype=np.int64), grid, side="left")
    return scores


def _dense_block_matrix(split_coords: np.ndarray, index_coords: np.ndarray) -> SubPermutation:
    """Directly build the block matrix of a small block.

    For every left endpoint ``x``, a patience pass over the block's elements
    (in split order, keeping only index values ``>= x``) produces the array of
    minimal tails; the semi-local score is then ``T(x, y) = #{tails < y}``
    (compiled kernel when loaded, else :func:`_patience_scores`).  The block
    matrix is recovered from the dense score table by finite differences of
    ``K = span - T``.
    """
    m = len(index_coords)
    order = np.argsort(split_coords, kind="stable")
    # Compact the index coordinates of the block to 0..m-1.
    sorted_idx = np.sort(index_coords)
    compact = np.searchsorted(sorted_idx, index_coords[order])

    compiled = native.kernel()
    if compiled is not None:
        scores = compiled.patience_scores(compact)
    else:
        scores = _patience_scores(compact.tolist(), m)

    grid = np.arange(m + 1, dtype=np.int64)
    span = grid[None, :] - grid[:, None]
    dist = np.where(span > 0, span - scores, 0)
    density = dist[:-1, 1:] - dist[:-1, :-1] - dist[1:, 1:] + dist[1:, :-1]
    rows, cols = np.nonzero(density)
    return SubPermutation.from_points(rows, cols, m, m, validate=False)


def _build_recursive(
    split_coords: np.ndarray,
    index_coords: np.ndarray,
    multiply_fn: MultiplyFn,
    dense_block_size: int = DENSE_BLOCK_SIZE,
) -> SubPermutation:
    """Recursive divide-and-conquer over the split coordinate.

    Returns the block matrix over the block's *compacted* index universe
    (coordinate ``t`` of the matrix is the ``t``-th smallest index value of
    the block).
    """
    m = len(index_coords)
    if m <= 1:
        return SubPermutation.empty(m, m)
    if m <= dense_block_size:
        return _dense_block_matrix(split_coords, index_coords)
    order = np.argsort(split_coords, kind="stable")
    index_by_split = index_coords[order]
    split_sorted = split_coords[order]
    mid = m // 2

    first_idx = index_by_split[:mid]
    second_idx = index_by_split[mid:]
    first_mat = _build_recursive(
        split_sorted[:mid], first_idx, multiply_fn, dense_block_size
    )
    second_mat = _build_recursive(
        split_sorted[mid:], second_idx, multiply_fn, dense_block_size
    )

    parent_sorted = np.sort(index_coords)
    first_slots = np.searchsorted(parent_sorted, np.sort(first_idx))
    second_slots = np.searchsorted(parent_sorted, np.sort(second_idx))
    first_emb = embed_into_universe(first_mat, first_slots, m)
    second_emb = embed_into_universe(second_mat, second_slots, m)
    return multiply_fn(first_emb, second_emb)


@dataclass
class SemiLocalLIS:
    """A semi-local LIS object backed by a sub-permutation matrix.

    Attributes
    ----------
    matrix:
        The ``n x n`` sub-permutation whose distribution matrix encodes the
        scores.
    kind:
        ``'value'`` (matrix indexed by value ranks) or ``'position'`` (matrix
        indexed by sequence positions).
    length:
        The sequence length ``n``.
    """

    matrix: SubPermutation
    kind: str
    length: int

    def __post_init__(self) -> None:
        rows, cols = self.matrix.points()
        colors = np.zeros(len(rows), dtype=np.int64)
        self._points = ColoredPointSet(
            rows, cols, colors, 1, self.matrix.n_rows, self.matrix.n_cols
        )

    # -------------------------------------------------------------- queries
    def distribution(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Vectorised evaluation of ``K(x, y) = PΣ(x, y)``."""
        x = np.atleast_1d(np.asarray(x, dtype=np.int64))
        y = np.atleast_1d(np.asarray(y, dtype=np.int64))
        return self._points.sigma(x, y)

    def score(self, x, y) -> np.ndarray:
        """Semi-local LIS score for interval(s) ``[x, y)`` (vectorised)."""
        x_arr = np.atleast_1d(np.asarray(x, dtype=np.int64))
        y_arr = np.atleast_1d(np.asarray(y, dtype=np.int64))
        span = y_arr - x_arr
        values = span - self.distribution(x_arr, y_arr)
        values = np.where(span <= 0, 0, values)
        if np.isscalar(x) and np.isscalar(y):
            return int(values[0])
        return values

    def lis_length(self) -> int:
        """The global LIS length of the underlying sequence."""
        return self.length - self.matrix.num_nonzeros

    @property
    def nbytes(self) -> int:
        """Resident bytes of the matrix plus its query structure (cache sizing)."""
        return int(self.matrix.row_to_col.nbytes) + int(self._points.nbytes)

    # Batch queries -----------------------------------------------------------
    def query_rank_intervals(self, x, y) -> np.ndarray:
        """Vectorised :meth:`query_rank_interval` over batches of windows.

        One call answers the whole batch through the dominance-count
        structure of the underlying :class:`ColoredPointSet`; invalid windows
        (negative, reversed or past the universe) raise :class:`ValueError`
        instead of wrapping.
        """
        if self.kind != "value":
            raise ValueError("rank-interval queries need kind='value'")
        x, y = validate_intervals(x, y, self.length, what="rank interval")
        return self.score(x, y)

    def query_substrings(self, i, j) -> np.ndarray:
        """Vectorised :meth:`query_substring` over batches of windows."""
        if self.kind != "position":
            raise ValueError("substring queries need kind='position'")
        i, j = validate_intervals(i, j, self.length, what="substring window")
        return self.score(i, j)

    # Convenience aliases -----------------------------------------------------
    def query_rank_interval(self, x: int, y: int) -> int:
        """LIS using only elements whose rank is in ``[x, y)`` (value kind)."""
        return int(self.query_rank_intervals(x, y)[0])

    def query_substring(self, i: int, j: int) -> int:
        """LIS of the subsegment ``A[i:j]`` (position kind, Corollary 1.3.2)."""
        return int(self.query_substrings(i, j)[0])


def value_interval_matrix(
    sequence: Sequence[float],
    *,
    strict: bool = True,
    dense_block_size: int = DENSE_BLOCK_SIZE,
) -> SemiLocalLIS:
    """Semi-local LIS matrix indexed by value ranks (split by position)."""
    ranks = rank_transform(sequence, strict=strict)
    positions = np.arange(len(ranks), dtype=np.int64)
    matrix = _build_recursive(positions, ranks, multiply, dense_block_size)
    return SemiLocalLIS(matrix=matrix, kind="value", length=len(ranks))


def subsegment_matrix(
    sequence: Sequence[float],
    *,
    strict: bool = True,
    dense_block_size: int = DENSE_BLOCK_SIZE,
) -> SemiLocalLIS:
    """Semi-local LIS matrix indexed by positions (split by value).

    Supports ``query_substring(i, j)`` — the semi-local LIS of
    Corollary 1.3.2.
    """
    ranks = rank_transform(sequence, strict=strict)
    positions = np.arange(len(ranks), dtype=np.int64)
    matrix = _build_recursive(ranks, positions, multiply, dense_block_size)
    return SemiLocalLIS(matrix=matrix, kind="position", length=len(ranks))


def lis_length_seaweed(sequence: Sequence[float], *, strict: bool = True) -> int:
    """LIS length computed through the seaweed decomposition (Theorem 1.3)."""
    if len(sequence) == 0:
        return 0
    return value_interval_matrix(sequence, strict=strict).lis_length()
