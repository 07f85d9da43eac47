"""Corollary 1.3.3: semi-local LCS via the seaweed framework.

``LCS(S, T[i:j])`` equals the strict LIS of the Hunt–Szymanski match sequence
restricted to the pairs whose ``T``-position lies in ``[i, j)``.  The match
pairs are ordered by ``(i, -j)``, so that restriction is precisely a
*value-interval* query on the semi-local LIS matrix of the match sequence —
the object built by :func:`repro.lis.semilocal.value_interval_matrix` (or its
MPC counterpart).  This module wraps that correspondence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..lis.semilocal import SemiLocalLIS, validate_intervals, value_interval_matrix
from ..lis.mpc_lis import mpc_lis_matrix
from ..mpc.cluster import MPCCluster
from ..mpc_monge.constant_round import MongeMPCConfig
from .hunt_szymanski import match_pairs

__all__ = ["SemiLocalLCS", "semilocal_lcs", "mpc_semilocal_lcs"]


@dataclass
class SemiLocalLCS:
    """Answers ``LCS(S, T[i:j])`` for every subsegment of ``T``."""

    semilocal: SemiLocalLIS
    #: Sorted (by the match order) T-positions of the match pairs.
    match_positions: np.ndarray
    t_length: int

    def query_batch(self, i, j) -> np.ndarray:
        """Vectorised ``LCS(S, T[i:j])`` over batches of subsegment windows.

        Bounds are checked for the whole batch at once (invalid windows raise
        :class:`ValueError` rather than wrapping through negative indexing).
        Match pairs whose T-position lies in ``[i, j)`` occupy a contiguous
        rank range of the value universe (values are the positions themselves,
        ranked by the strict-LIS tie-break), so the batch reduces to one
        vectorised rank-interval evaluation over the dominance-count
        structure.
        """
        i, j = validate_intervals(i, j, self.t_length, what="subsegment")
        lo = np.searchsorted(self.match_positions, i, side="left")
        hi = np.searchsorted(self.match_positions, j, side="left")
        return self.semilocal.score(lo, hi)

    def query(self, i: int, j: int) -> int:
        """``LCS(S, T[i:j])``."""
        return int(self.query_batch(i, j)[0])

    def lcs_length(self) -> int:
        """``LCS(S, T)`` (the full-string query)."""
        return self.query(0, self.t_length)

    @property
    def nbytes(self) -> int:
        """Resident bytes (semi-local matrix + match positions; cache sizing)."""
        return int(self.semilocal.nbytes) + int(self.match_positions.nbytes)


def _build(matches: np.ndarray, t_length: int, semilocal: SemiLocalLIS) -> SemiLocalLCS:
    return SemiLocalLCS(
        semilocal=semilocal,
        match_positions=np.sort(matches),
        t_length=t_length,
    )


def semilocal_lcs(s: Sequence, t: Sequence) -> SemiLocalLCS:
    """Sequential semi-local LCS of ``S`` versus all subsegments of ``T``."""
    pairs = match_pairs(s, t)
    matches = pairs[:, 1] if len(pairs) else np.empty(0, dtype=np.int64)
    semilocal = value_interval_matrix(matches, strict=True)
    return _build(matches, len(t), semilocal)


def mpc_semilocal_lcs(
    cluster: MPCCluster,
    s: Sequence,
    t: Sequence,
    config: Optional[MongeMPCConfig] = None,
) -> SemiLocalLCS:
    """Semi-local LCS in O(log n) MPC rounds (Corollary 1.3.3)."""
    pairs = match_pairs(s, t)
    matches = pairs[:, 1] if len(pairs) else np.empty(0, dtype=np.int64)
    result = mpc_lis_matrix(cluster, matches, config, strict=True, kind="value")
    return _build(matches, len(t), result.semilocal)
