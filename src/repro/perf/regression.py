"""The perf regression gate: compare a run against the recorded baseline.

The comparison is tolerance-based over the *cpu-normalised* timings (seconds
divided by the run's own calibration-kernel seconds, see
:func:`repro.perf.bench.calibrate_cpu`), so a faster or slower machine does
not trip the gate — only a genuinely slower code path does.  Points are
matched by their identifying params (``case``/``group``/sizes); cases present
in only one document are reported but never fail the check, so the grid can
grow without invalidating old baselines.  A comparison that matches no case
at all fails: it would otherwise pass without checking anything.

The headline speedup claim (the served multiply ≥ ``floor`` times the
recursive reference) is checked separately from the artifact's ``perf``
section via :func:`check_speedup`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "DEFAULT_TOLERANCE",
    "DEFAULT_SPEEDUP_FLOOR",
    "compare_documents",
    "check_speedup",
    "format_report",
]

#: A case regresses when its normalized timing exceeds the baseline's by
#: more than this factor.  Generous on purpose: CI machines are noisy and
#: the normalisation only cancels speed differences to first order.
DEFAULT_TOLERANCE = 2.5

#: The served multiply must beat the recursive reference by this factor.
DEFAULT_SPEEDUP_FLOOR = 3.0


def _point_key(point: Dict[str, Any]) -> Tuple:
    params = point.get("params", {})
    return tuple(sorted((str(k), repr(v)) for k, v in params.items()))


def _normalized_points(document: Dict[str, Any]) -> Dict[Tuple, Dict[str, Any]]:
    out: Dict[Tuple, Dict[str, Any]] = {}
    for point in document.get("points", []):
        metrics = point.get("metrics", {})
        if "normalized" in metrics:
            out[_point_key(point)] = point
    return out


def compare_documents(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Dict[str, Any]:
    """Compare two perf artifacts; returns a JSON-safe report.

    ``report['ok']`` is false iff at least one matched case regressed beyond
    ``tolerance`` or no case matched.  Cases missing on either side are
    listed informationally.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    current_points = _normalized_points(current)
    baseline_points = _normalized_points(baseline)

    regressions: List[Dict[str, Any]] = []
    improvements: List[Dict[str, Any]] = []
    checked = 0
    for key, point in current_points.items():
        base = baseline_points.get(key)
        if base is None:
            continue
        checked += 1
        now = float(point["metrics"]["normalized"])
        then = float(base["metrics"]["normalized"])
        if then <= 0:
            continue
        ratio = now / then
        entry = {
            "case": point["params"].get("case"),
            "params": point["params"],
            "normalized_now": now,
            "normalized_baseline": then,
            "ratio": ratio,
        }
        if ratio > tolerance:
            regressions.append(entry)
        elif ratio < 1.0 / tolerance:
            improvements.append(entry)

    only_current = sorted(
        str(current_points[key]["params"].get("case"))
        for key in current_points.keys() - baseline_points.keys()
    )
    only_baseline = sorted(
        str(baseline_points[key]["params"].get("case"))
        for key in baseline_points.keys() - current_points.keys()
    )
    return {
        "ok": checked > 0 and not regressions,
        "tolerance": float(tolerance),
        "checked": checked,
        "regressions": regressions,
        "improvements": improvements,
        "only_in_current": only_current,
        "only_in_baseline": only_baseline,
    }


def check_speedup(
    document: Dict[str, Any], *, floor: float = DEFAULT_SPEEDUP_FLOOR
) -> Optional[str]:
    """``None`` when the recorded headline speedup clears ``floor``.

    Returns a human-readable failure message otherwise (also when the
    document carries no speedup — a perf artifact must prove the claim).
    """
    perf = document.get("perf", {})
    speedup = perf.get("multiply_speedup_vs_reference")
    if speedup is None:
        return "artifact records no multiply_speedup_vs_reference"
    if float(speedup) < float(floor):
        return (
            f"served multiply speedup {float(speedup):.2f}x is below the "
            f"required {float(floor):.2f}x floor (headline n={perf.get('headline_n')})"
        )
    return None


def format_report(report: Dict[str, Any]) -> str:
    """One-paragraph text rendering of a :func:`compare_documents` report."""
    if report["ok"]:
        verdict = "OK"
    elif report["regressions"]:
        verdict = f"{len(report['regressions'])} REGRESSION(S)"
    else:
        verdict = "FAILED: no case matches the baseline"
    lines = [
        f"perf regression check: {report['checked']} cases compared "
        f"(tolerance {report['tolerance']:.2f}x) -> {verdict}"
    ]
    for entry in report["regressions"]:
        lines.append(
            f"  REGRESSED {entry['case']}: {entry['normalized_now']:.3f} vs "
            f"baseline {entry['normalized_baseline']:.3f} "
            f"({entry['ratio']:.2f}x, normalized units)"
        )
    for entry in report["improvements"]:
        lines.append(
            f"  improved {entry['case']}: {entry['ratio']:.2f}x of baseline"
        )
    if report["only_in_current"]:
        lines.append(f"  new cases (not in baseline): {', '.join(report['only_in_current'])}")
    if report["only_in_baseline"]:
        lines.append(f"  baseline-only cases: {', '.join(report['only_in_baseline'])}")
    return "\n".join(lines)
