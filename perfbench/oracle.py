"""Independent answers for every request the benchmark sends.

Nothing here touches the seaweed machinery the server uses: LIS answers come
from patience sorting and LCS answers from the quadratic dynamic programme.
"""

from __future__ import annotations

import bisect
from typing import Sequence

import numpy as np


def lis_length(values: Sequence) -> int:
    """Length of the longest strictly increasing subsequence (patience sorting)."""
    tails: list = []
    for value in values:
        pos = bisect.bisect_left(tails, value)
        if pos == len(tails):
            tails.append(value)
        else:
            tails[pos] = value
    return len(tails)


def strict_ranks(values: Sequence) -> list:
    """Ranks ``0..n-1`` under which strict LIS of ``values`` is LIS of the ranks.

    Equal values get decreasing ranks by position, so two of them can never
    both sit in an increasing run of ranks.
    """
    order = sorted(range(len(values)), key=lambda p: (values[p], -p))
    ranks = [0] * len(values)
    for rank, position in enumerate(order):
        ranks[position] = rank
    return ranks


def rank_interval_lis(ranks: Sequence[int], x: int, y: int) -> int:
    """LIS of the elements whose rank lies in ``[x, y)``."""
    return lis_length([r for r in ranks if x <= r < y])


def lcs_length(s: Sequence, t: Sequence) -> int:
    """LCS of ``s`` and ``t`` by the row-by-row dynamic programme."""
    s = np.asarray(s)
    t = np.asarray(t)
    row = np.zeros(len(t) + 1, dtype=np.int64)
    for symbol in s:
        # diag[j] = previous row at j-1 plus one where the symbols match.
        candidate = np.maximum(row[1:], np.where(t == symbol, row[:-1] + 1, 0))
        # Left-to-right max closes the row[j-1] dependency.
        row[1:] = np.maximum.accumulate(candidate)
    return int(row[-1])
