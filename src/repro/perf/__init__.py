"""The perf subsystem: core-hot-path micro-benchmarks plus a regression gate.

``python -m repro perf`` runs the fixed case grid of :mod:`repro.perf.bench`
(the served multiply and the recursive reference at two sizes, a semi-local
build, a streaming tick, a warm service batch), writes the
schema-v1 ``results/perf_core.json`` artifact, and checks it against the
recorded baseline with the tolerance rules of :mod:`repro.perf.regression`.
"""

from .bench import (
    HEADLINE_MULTIPLY_N,
    PerfCase,
    calibrate_cpu,
    perf_cases,
    run_perf,
)
from .regression import (
    DEFAULT_SPEEDUP_FLOOR,
    DEFAULT_TOLERANCE,
    check_speedup,
    compare_documents,
    format_report,
)

__all__ = [
    "HEADLINE_MULTIPLY_N",
    "PerfCase",
    "calibrate_cpu",
    "perf_cases",
    "run_perf",
    "DEFAULT_SPEEDUP_FLOOR",
    "DEFAULT_TOLERANCE",
    "check_speedup",
    "compare_documents",
    "format_report",
]
