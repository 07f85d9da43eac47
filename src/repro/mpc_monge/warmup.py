"""The warm-up O(log n)-round multiplication (paper §1.4).

The warm-up algorithm is the binary (fan-in 2) instantiation of the same
split / recurse / combine skeleton: every level merges two subproblems in O(1)
rounds, and the recursion depth is ``Θ(log n)``, so the whole multiplication
takes ``Θ(log n)`` rounds.  It is used both as a pedagogical stepping stone
and as the intermediate baseline in the round-complexity benchmarks.
"""

from __future__ import annotations

from typing import Optional

from ..core.permutation import Permutation
from ..mpc.cluster import MPCCluster
from .constant_round import MongeMPCConfig, mpc_multiply

__all__ = ["mpc_multiply_warmup", "warmup_config"]


def warmup_config(base: Optional[MongeMPCConfig] = None) -> MongeMPCConfig:
    """A configuration with fan-in 2 (everything else as in the main algorithm)."""
    base = base or MongeMPCConfig()
    return MongeMPCConfig(
        fanin=2,
        tree_arity=base.tree_arity,
        grid_size=base.grid_size,
        local_threshold=base.local_threshold,
        backend=base.backend,
    )


def mpc_multiply_warmup(
    cluster: MPCCluster,
    pa: Permutation,
    pb: Permutation,
    config: Optional[MongeMPCConfig] = None,
) -> Permutation:
    """Multiply two permutation matrices with the O(log n)-round warm-up."""
    return mpc_multiply(cluster, pa, pb, warmup_config(config))
