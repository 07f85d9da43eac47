"""Sequential (sub)unit-Monge multiplication in Tiskin's seaweed framework.

The entry point is :func:`multiply`, which accepts arbitrary sub-permutation
matrices.  Two engines implement the full-permutation product:

* the **compiled kernel** (``_seaweed.c``, loaded by
  :mod:`repro.core.native`): the split of the paper's Section 3.1 at fan-in
  2, recursing down to single points, merged bottom-up by an O(m) staircase
  walk (Lemma 3.2 at ``H = 2``; the C source's header describes it).  This
  is what :func:`multiply_permutations` runs.
* the **reference** (:func:`multiply_permutations_reference`): the paper's
  recursive divide-and-conquer — split ``P_A`` into ``H`` column blocks and
  ``P_B`` into ``H`` row blocks (the maps ``M_A``/``M_B``), recurse, and merge
  with the generic colored combine engine of :mod:`repro.core.combine`
  (Lemmas 3.1-3.10).  :func:`multiply_permutations` falls back to it when
  the kernel is unavailable (no gcc, a failed build or load), and it is the
  kernel's oracle.  Its ``fanin``/``base_size`` keywords exist for the
  oracle tests; no other layer sets them.

Both engines are bit-identical on every input (the (sub)unit-Monge product
is unique); ``tests/test_native.py`` and ``tests/test_seaweed.py`` pin that
identity against the reference and the dense oracle.

Sub-permutation inputs are first padded to full permutations exactly as in
the paper's Section 4.1 and the padding is stripped from the result
afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import native
from .combine import combine_colored
from .dense import multiply_dense
from .permutation import EMPTY, Permutation, SubPermutation
from ..obs.metrics import get_registry

# Recorded once per multiply, whichever engine runs (never per recursion level).
_MULTIPLIES = get_registry().counter(
    "repro_multiply_total", "⊡ products run in this process"
)

__all__ = [
    "BlockSplit",
    "split_into_blocks",
    "expand_block_results",
    "multiply_permutations",
    "multiply_permutations_reference",
    "pad_to_permutations",
    "strip_padding",
    "multiply",
]

#: Below this size the dense oracle is at least as fast as the recursion.
DEFAULT_BASE_SIZE = 64


@dataclass
class BlockSplit:
    """The result of splitting a ``(P_A, P_B)`` pair into ``H`` subproblems.

    Attributes
    ----------
    a_blocks, b_blocks:
        The compacted square permutations ``P'_{A,q}`` and ``P'_{B,q}``.
    row_maps:
        ``row_maps[q][r_local]`` is the parent row of local row ``r_local`` of
        subproblem ``q`` (the inverse mapping ``M_A^{-1}`` of the paper).
    col_maps:
        ``col_maps[q][c_local]`` is the parent column of local column
        ``c_local`` of subproblem ``q`` (``M_B^{-1}``).
    boundaries:
        Column boundaries of ``P_A`` / row boundaries of ``P_B`` used for the
        split (length ``H + 1``).
    """

    a_blocks: List[Permutation]
    b_blocks: List[Permutation]
    row_maps: List[np.ndarray]
    col_maps: List[np.ndarray]
    boundaries: np.ndarray

    @property
    def num_blocks(self) -> int:
        return len(self.a_blocks)


def block_boundaries(n: int, num_blocks: int) -> np.ndarray:
    """Near-equal integer boundaries ``0 = b_0 <= ... <= b_H = n``."""
    return np.linspace(0, n, num_blocks + 1).round().astype(np.int64)


def split_into_blocks(pa: Permutation, pb: Permutation, num_blocks: int) -> BlockSplit:
    """Split ``P_A`` by columns and ``P_B`` by rows into ``num_blocks`` pairs."""
    n = pa.size
    if pb.size != n:
        raise ValueError("operands must have the same size")
    bounds = block_boundaries(n, num_blocks)

    a_row_to_col = np.asarray(pa.row_to_col)
    b_row_to_col = np.asarray(pb.row_to_col)

    a_blocks: List[Permutation] = []
    b_blocks: List[Permutation] = []
    row_maps: List[np.ndarray] = []
    col_maps: List[np.ndarray] = []

    for q in range(num_blocks):
        lo, hi = int(bounds[q]), int(bounds[q + 1])
        # --- columns [lo, hi) of P_A; compact empty rows --------------------
        mask_a = (a_row_to_col >= lo) & (a_row_to_col < hi)
        rows_q = np.flatnonzero(mask_a).astype(np.int64)  # sorted parent rows
        local_a = a_row_to_col[rows_q] - lo
        a_blocks.append(Permutation(local_a, validate=False))
        row_maps.append(rows_q)
        # --- rows [lo, hi) of P_B; compact empty columns --------------------
        cols_block = b_row_to_col[lo:hi]
        cols_sorted = np.sort(cols_block)
        local_b = np.searchsorted(cols_sorted, cols_block)
        b_blocks.append(Permutation(local_b.astype(np.int64), validate=False))
        col_maps.append(cols_sorted.astype(np.int64))

    return BlockSplit(a_blocks, b_blocks, row_maps, col_maps, bounds)


def expand_block_results(
    block_results: Sequence[SubPermutation],
    split: BlockSplit,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand ``P'_{C,q}`` back to parent coordinates as colored points.

    Returns ``(rows, cols, colors)`` parallel arrays describing the union of
    the expanded sub-results ``P_{C,q}`` (the colored permutation of §3.2).
    """
    all_rows: List[np.ndarray] = []
    all_cols: List[np.ndarray] = []
    all_colors: List[np.ndarray] = []
    for q, result in enumerate(block_results):
        local_rows, local_cols = result.points()
        all_rows.append(split.row_maps[q][local_rows])
        all_cols.append(split.col_maps[q][local_cols])
        all_colors.append(np.full(len(local_rows), q, dtype=np.int64))
    if not all_rows:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    return (
        np.concatenate(all_rows),
        np.concatenate(all_cols),
        np.concatenate(all_colors),
    )


# --------------------------------------------------------------------------
# The recursive reference engine (fallback and correctness oracle)
# --------------------------------------------------------------------------

def multiply_permutations_reference(
    pa: Permutation,
    pb: Permutation,
    *,
    fanin: int = 2,
    base_size: int = DEFAULT_BASE_SIZE,
) -> Permutation:
    """``P_A ⊡ P_B`` by the paper's recursive divide-and-conquer (§3.1).

    Split ``P_A`` into ``fanin`` column blocks and ``P_B`` into ``fanin`` row
    blocks, recurse, and merge the expanded sub-results with the generic
    colored combine engine; instances of at most ``max(base_size, fanin)``
    points go to the dense oracle.  This is the fallback of
    :func:`multiply_permutations` and the oracle of the compiled kernel.
    """
    if fanin < 2:
        raise ValueError("fanin must be at least 2")
    n = pa.size
    if pb.size != n:
        raise ValueError("operands must have the same size")
    if n == 0:
        return Permutation(np.empty(0, dtype=np.int64), validate=False)
    if n <= max(base_size, fanin):
        return multiply_dense(pa, pb).as_permutation()

    num_blocks = min(fanin, n)
    split = split_into_blocks(pa, pb, num_blocks)
    block_results = [
        multiply_permutations_reference(a_blk, b_blk, fanin=fanin, base_size=base_size)
        for a_blk, b_blk in zip(split.a_blocks, split.b_blocks)
    ]
    rows, cols, colors = expand_block_results(block_results, split)
    return combine_colored(rows, cols, colors, num_blocks, n, n).as_permutation()


def multiply_permutations(pa: Permutation, pb: Permutation) -> Permutation:
    """``P_A ⊡ P_B`` for full permutation matrices of equal size.

    Runs the compiled kernel when it has loaded, otherwise
    :func:`multiply_permutations_reference` at its defaults.  Both engines
    return the same product (the (sub)unit-Monge product is unique).  Each
    call adds one to ``repro_multiply_total``, whichever engine runs.
    """
    compiled = native.kernel()
    out = None
    if compiled is not None and pa.size == pb.size:
        out = compiled.multiply(pa.row_to_col, pb.row_to_col)
    if out is None:
        product = multiply_permutations_reference(pa, pb)
    else:
        product = Permutation(out, validate=False)
    _MULTIPLIES.inc()
    return product


# --------------------------------------------------------------------------
# Sub-permutation handling (paper Section 4.1, Theorem 1.2)
# --------------------------------------------------------------------------

@dataclass
class PaddingInfo:
    """Book-keeping needed to strip the Section 4.1 padding from a product."""

    kept_rows_a: np.ndarray  # rows of P_A that were nonzero
    kept_cols_b: np.ndarray  # columns of P_B that were nonzero
    n_rows: int  # original row count of P_A
    n_cols: int  # original column count of P_B
    inner: int  # n2, the padded square size
    num_kept_rows: int
    num_kept_cols: int


def pad_to_permutations(
    pa: SubPermutation, pb: SubPermutation
) -> Tuple[Permutation, Permutation, PaddingInfo]:
    """Pad sub-permutations to full ``n2 x n2`` permutations (paper §4.1)."""
    if pa.n_cols != pb.n_rows:
        raise ValueError(f"inner dimensions do not match: {pa.shape} x {pb.shape}")
    n2 = pa.n_cols

    # Drop zero rows of P_A and zero columns of P_B (they stay zero in P_C).
    kept_rows_a = pa.nonzero_rows()
    a_cols = np.asarray(pa.row_to_col)[kept_rows_a]
    kept_cols_b = pb.nonzero_cols()
    b_col_to_row = pb.col_to_row()
    b_rows = b_col_to_row[kept_cols_b]

    n1p = len(kept_rows_a)
    n3p = len(kept_cols_b)

    # Extend P_A with n2 - n1' rows in front, covering its empty columns
    # (boolean-mask scatter: the complement of a_cols without a sort/merge).
    occupied_a = np.zeros(n2, dtype=bool)
    occupied_a[a_cols] = True
    empty_cols_a = np.flatnonzero(~occupied_a)
    padded_a = np.concatenate([empty_cols_a, a_cols]).astype(np.int64)
    perm_a = Permutation(padded_a, validate=False)

    # Extend P_B with n2 - n3' columns at the back, covering its empty rows.
    padded_b = np.full(n2, EMPTY, dtype=np.int64)
    padded_b[b_rows] = np.arange(n3p, dtype=np.int64)
    empty_rows_b = np.flatnonzero(padded_b == EMPTY)
    padded_b[empty_rows_b] = n3p + np.arange(len(empty_rows_b), dtype=np.int64)
    perm_b = Permutation(padded_b, validate=False)

    info = PaddingInfo(
        kept_rows_a=kept_rows_a,
        kept_cols_b=kept_cols_b,
        n_rows=pa.n_rows,
        n_cols=pb.n_cols,
        inner=n2,
        num_kept_rows=n1p,
        num_kept_cols=n3p,
    )
    return perm_a, perm_b, info


def strip_padding(product: Permutation, info: PaddingInfo) -> SubPermutation:
    """Extract ``P_A ⊡ P_B`` from the padded product (paper §4.1)."""
    rows, cols = product.points()
    offset = info.inner - info.num_kept_rows
    mask = (rows >= offset) & (cols < info.num_kept_cols)
    out_rows = info.kept_rows_a[rows[mask] - offset]
    out_cols = info.kept_cols_b[cols[mask]]
    return SubPermutation.from_points(
        out_rows, out_cols, info.n_rows, info.n_cols, validate=True
    )


def multiply(pa: SubPermutation, pb: SubPermutation) -> SubPermutation:
    """Implicit (sub)unit-Monge multiplication ``P_A ⊡ P_B`` (Theorems 1.1/1.2).

    Accepts arbitrary (possibly rectangular) sub-permutation matrices; full
    square permutations skip the padding step.
    """
    if (
        isinstance(pa, SubPermutation)
        and isinstance(pb, SubPermutation)
        and pa.n_rows == pa.n_cols == pb.n_rows == pb.n_cols
        and pa.is_full_permutation()
        and pb.is_full_permutation()
    ):
        return multiply_permutations(pa.as_permutation(), pb.as_permutation())
    perm_a, perm_b, info = pad_to_permutations(pa, pb)
    return strip_padding(multiply_permutations(perm_a, perm_b), info)
