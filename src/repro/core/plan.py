"""Execution plans for the sequential multiply engine.

A :class:`MultiplyPlan` bundles the tuning knobs of the core (sub)unit-Monge
multiplication — the split fan-in ``H``, the dense-oracle crossover
``base_size``, the dense distribution-table budget of the combine engine and
the engine selection (the allocation-lean iterative scheduler vs the retained
recursive reference) — into one hashable, picklable value that can be threaded
through every layer that bottoms out in ``multiply``: the semi-local LIS/LCS
builders, the streaming aggregator, the service index builds and the MPC
sequential fallbacks.

Plans are *mechanics only*: every plan produces bit-identical products (the
(sub)unit-Monge product is unique), so callers may tune freely without
affecting answers, fingerprints or recorded artifacts.

:func:`auto_plan` calibrates the crossover parameters once per process by
timing a small grid of candidate plans on a fixed workload, mirroring how the
paper picks ``H`` from the machine parameters; ``python -m repro perf`` and
the ``--plan auto`` CLI knob use it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "DEFAULT_FANIN",
    "DEFAULT_BASE_SIZE",
    "DEFAULT_DENSE_TABLE_LIMIT",
    "ENGINES",
    "MultiplyPlan",
    "PlanLike",
    "auto_plan",
    "resolve_plan",
    "clear_auto_plan_cache",
]

#: Default split fan-in ``H`` of the sequential engine.
DEFAULT_FANIN = 2

#: Default dense-oracle crossover (instances of at most this size go dense).
DEFAULT_BASE_SIZE = 32

#: Default dense distribution-table budget of the combine engine (cells).
DEFAULT_DENSE_TABLE_LIMIT = 1 << 22

#: The selectable multiply engines.
ENGINES = ("iterative", "reference")


@dataclass(frozen=True)
class MultiplyPlan:
    """Tuning knobs of the sequential multiply hot path (mechanics only).

    Attributes
    ----------
    fanin:
        Split fan-in ``H`` (number of column/row blocks per level).
    base_size:
        Instances of at most this size are handed to the dense oracle.
    dense_table_limit:
        Cell budget for the combine engine's dense distribution tables
        (reference engine and generic colored combines only).
    engine:
        ``'iterative'`` (the allocation-lean bottom-up scheduler) or
        ``'reference'`` (the retained recursive oracle).
    """

    fanin: int = DEFAULT_FANIN
    base_size: int = DEFAULT_BASE_SIZE
    dense_table_limit: int = DEFAULT_DENSE_TABLE_LIMIT
    engine: str = "iterative"

    def __post_init__(self) -> None:
        if self.fanin < 2:
            raise ValueError(f"plan fanin must be at least 2, got {self.fanin}")
        if self.base_size < 1:
            raise ValueError(f"plan base_size must be positive, got {self.base_size}")
        if self.dense_table_limit < 0:
            raise ValueError(
                f"plan dense_table_limit must be non-negative, got {self.dense_table_limit}"
            )
        if self.engine not in ENGINES:
            raise ValueError(f"plan engine must be one of {ENGINES}, got {self.engine!r}")

    def with_overrides(
        self, fanin: Optional[int] = None, base_size: Optional[int] = None
    ) -> "MultiplyPlan":
        """This plan with explicit knobs substituted (``None`` keeps a field)."""
        updates = {}
        if fanin is not None:
            updates["fanin"] = int(fanin)
        if base_size is not None:
            updates["base_size"] = int(base_size)
        return replace(self, **updates) if updates else self

    def multiply_fn(self) -> Callable:
        """A picklable ``(pa, pb) -> product`` closure running this plan.

        Suitable as the ``multiply_fn`` of the semi-local builders and the
        streaming aggregator (process backends pickle it).
        """
        import functools

        from .seaweed import multiply

        return functools.partial(multiply, plan=self)

    def describe(self) -> dict:
        """JSON-safe view (recorded in perf artifacts and provenance)."""
        return {
            "fanin": int(self.fanin),
            "base_size": int(self.base_size),
            "dense_table_limit": int(self.dense_table_limit),
            "engine": self.engine,
        }


#: Candidate grid probed by :func:`auto_plan` (fanin, base_size).
_AUTO_CANDIDATES: Tuple[Tuple[int, int], ...] = (
    (2, 16),
    (2, 32),
    (2, 64),
    (4, 32),
    (4, 64),
)

#: The process-wide calibration result (one measurement per machine/process).
_AUTO_CACHE: Optional[MultiplyPlan] = None


def clear_auto_plan_cache() -> None:
    """Forget the process-wide calibration (tests and re-calibration)."""
    global _AUTO_CACHE
    _AUTO_CACHE = None


def auto_plan(
    *,
    calibration_size: int = 1024,
    repeats: int = 1,
    candidates: Optional[Sequence[Tuple[int, int]]] = None,
    force: bool = False,
) -> MultiplyPlan:
    """Calibrate the iterative engine's crossover knobs on this machine.

    Times one full-permutation multiply of a fixed seeded workload for every
    candidate ``(fanin, base_size)`` pair and returns the fastest as a
    :class:`MultiplyPlan`.  The result is cached for the process (the paper's
    "pick H once from the machine parameters" step); pass ``force=True`` to
    re-measure.
    """
    global _AUTO_CACHE
    if _AUTO_CACHE is not None and not force and candidates is None:
        return _AUTO_CACHE

    import numpy as np

    from .permutation import random_permutation
    # The knobs tune the NumPy engine only (the compiled kernel ignores
    # them), so that is the engine timed.
    from .seaweed import multiply_permutations_iterative

    rng = np.random.default_rng(20240)
    pa = random_permutation(int(calibration_size), rng)
    pb = random_permutation(int(calibration_size), rng)

    grid = list(candidates) if candidates is not None else list(_AUTO_CANDIDATES)
    timed: List[Tuple[float, MultiplyPlan]] = []
    for fanin, base_size in grid:
        plan = MultiplyPlan(fanin=int(fanin), base_size=int(base_size))
        best = float("inf")
        for _ in range(max(1, int(repeats))):
            started = time.perf_counter()
            multiply_permutations_iterative(pa, pb, plan)
            best = min(best, time.perf_counter() - started)
        timed.append((best, plan))
    winner = min(timed, key=lambda pair: pair[0])[1]
    if candidates is None:
        _AUTO_CACHE = winner
    return winner


def resolve_plan(
    plan: "Union[None, str, MultiplyPlan]" = None,
    *,
    fanin: Optional[int] = None,
    base_size: Optional[int] = None,
) -> MultiplyPlan:
    """Resolve CLI-style knobs into a concrete plan.

    ``plan`` may be ``None`` (defaults), a :class:`MultiplyPlan`, or one of
    the strings ``'default'`` / ``'auto'``.  Explicit ``fanin``/``base_size``
    override the resolved plan's fields.
    """
    if plan is None or plan == "default":
        resolved = MultiplyPlan()
    elif plan == "auto":
        resolved = auto_plan()
    elif isinstance(plan, MultiplyPlan):
        resolved = plan
    else:
        raise ValueError(
            f"plan must be a MultiplyPlan, 'default' or 'auto', got {plan!r}"
        )
    return resolved.with_overrides(fanin=fanin, base_size=base_size)


#: Accepted ``plan`` argument shape across the library's call sites.
PlanLike = Union[None, str, MultiplyPlan]
