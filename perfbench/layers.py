"""Per-layer metrics of a traced run: span self times plus ``/stats`` deltas.

A span's self time is its duration minus the part of its interval that its
child spans cover.  Only spans that start inside the measured window count,
so set-up builds stay out.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
from collections import defaultdict
from typing import Any, Dict, List, Sequence

from loadgen import Sample, percentile

_QUIET_PATHS = ("/stats", "/healthz")


class Span:
    __slots__ = ("name", "start", "end", "key", "parent", "attrs", "self_time")

    def __init__(self, pid: int, record: Sequence[Any]) -> None:
        self.name, self.start, self.end, sid, parent, self.attrs = record
        self.key = (pid, sid)
        self.parent = (pid, parent) if parent else None
        self.self_time = self.end - self.start

    @property
    def duration(self) -> float:
        return self.end - self.start


def load_spans(directory: str) -> List[Span]:
    spans = []
    for path in glob.glob(os.path.join(directory, "spans-*.json")):
        pid = int(os.path.basename(path)[len("spans-") : -len(".json")])
        with open(path) as fh:
            spans.extend(Span(pid, record) for record in json.load(fh))
    _assign_self_times(spans)
    return spans


def covered(start: float, end: float, intervals: Sequence[Sequence[float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _assign_self_times(spans: List[Span]) -> None:
    children: Dict[Any, List[Sequence[float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    for span in spans:
        span.self_time = span.duration - covered(span.start, span.end, children.get(span.key, ()))


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _delta(after: Dict[str, Any], before: Dict[str, Any], *path: str) -> float:
    for key in path:
        after, before = after.get(key, {}), before.get(key, {})
    return float(after or 0) - float(before or 0)


def layer_metrics(
    spans: List[Span],
    window: Sequence[float],
    samples: List[Sample],
    open_samples: List[Sample],
    before: Dict[str, Any],
    after: Dict[str, Any],
    push_replies: List[Dict[str, Any]],
    overhead_ratio: float,
) -> Dict[str, float]:
    """Every per-layer metric of one traced measuring window, by name."""
    t0, t1 = window
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        if t0 <= span.start <= t1:
            if span.name == "server.handle" and span.attrs.get("path") in _QUIET_PATHS:
                continue
            by_name[span.name].append(span)
    requests = max(1, len(samples))

    def p50(name: str) -> float:
        durations = [s.duration for s in by_name[name]]
        return _ms(statistics.median(durations)) if durations else 0.0

    def mean_self(name: str) -> float:
        selves = [s.self_time for s in by_name[name]]
        return _ms(statistics.fmean(selves)) if selves else 0.0

    service_before = before["service"]
    service_after = after["service"]
    lookups = _delta(service_after, service_before, "cache", "hits") + _delta(
        service_after, service_before, "cache", "misses"
    )
    passes = _delta(after, before, "coalescing", "passes")
    received = _delta(after, before, "requests", "received")
    queue_count = _delta(after, before, "timings", "queue_wait", "count")
    queue_total = _delta(after, before, "timings", "queue_wait", "total_seconds")

    handles = by_name["server.handle"]
    sent_to_done = [s.done - s.sent for s in samples if s.status]
    transport = (
        statistics.fmean(sent_to_done) - statistics.fmean(s.duration for s in handles)
        if sent_to_done and handles
        else 0.0
    )

    hop = imbalance = degraded = 0.0
    if service_after.get("sharded"):
        sub_batches = sum(
            _delta(a, b, "sub_batches")
            for a, b in zip(service_after["per_shard"], service_before["per_shard"])
        )
        exec_total = _delta(service_after, service_before, "router_timings", "shard_exec", "total_seconds")
        worker_busy = _delta(service_after, service_before, "query_seconds") + _delta(
            service_after, service_before, "build_seconds"
        )
        hop = (exec_total - worker_busy) / sub_batches if sub_batches else 0.0
        routed = [
            a - b
            for a, b in zip(
                service_after["load"]["per_shard_requests"], service_before["load"]["per_shard_requests"]
            )
        ]
        imbalance = max(routed) / statistics.fmean(routed) if sum(routed) else 0.0
        served = _delta(service_after, service_before, "requests_served")
        degraded = (
            _delta(service_after, service_before, "resilience", "degraded_requests") / served
            if served
            else 0.0
        )

    ticks = multiplies = blocks = 0
    if len(push_replies) > 1:
        by_session = defaultdict(list)
        for reply in push_replies:
            by_session[reply["id"]].append(reply)
        for replies in by_session.values():
            first, last = replies[0], replies[-1]
            ticks += last["ticks"] - first["ticks"]
            multiplies += last["multiplies"] - first["multiplies"]
            blocks += last["blocks_built"] - first["blocks_built"]

    lags = [s.lag for s in open_samples]
    lcs_builds = by_name["lcs.build"]
    return {
        "core.multiply.calls_per_req": len(by_name["core.multiply"]) / requests,
        "core.multiply.self_ms_per_req": _ms(sum(s.self_time for s in by_name["core.multiply"])) / requests,
        "lis.build.p50_ms": p50("lis.build"),
        "lis.build.self_ms": mean_self("lis.build"),
        "lcs.build.p50_ms": p50("lcs.build"),
        "lcs.match_points_per_req": sum(s.attrs.get("match_points", 0) for s in lcs_builds) / requests,
        "service.submit.p50_ms": p50("service.submit"),
        "service.submit.self_ms": mean_self("service.submit"),
        "service.index_query.p50_ms": p50("service.index_query"),
        "service.cache.hit_ratio": _delta(service_after, service_before, "cache", "hits") / lookups
        if lookups
        else 0.0,
        "service.cache.evictions_per_req": _delta(service_after, service_before, "cache", "evictions")
        / requests,
        "server.handle.p50_ms": p50("server.handle"),
        "server.handle.self_ms": mean_self("server.handle"),
        "server.queue_wait.mean_ms": _ms(queue_total / queue_count) if queue_count else 0.0,
        "server.coalesce.merged_ratio": _delta(after, before, "coalescing", "merged_passes") / passes
        if passes
        else 0.0,
        "server.rejected_ratio": _delta(after, before, "requests", "rejected") / received
        if received
        else 0.0,
        "transport.self_ms": _ms(transport),
        "sharding.submit.p50_ms": p50("sharding.submit"),
        "sharding.hop_ms": _ms(hop),
        "sharding.imbalance": imbalance,
        "sharding.retries": _delta(service_after, service_before, "retries"),
        "sharding.restarts": _delta(service_after, service_before, "restarts"),
        "sharding.degraded_ratio": degraded,
        "streaming.push.p50_ms": p50("streaming.push"),
        "streaming.lis_length.p50_ms": p50("streaming.lis_length"),
        "streaming.multiplies_per_tick": multiplies / ticks if ticks else 0.0,
        "streaming.blocks_built_per_tick": blocks / ticks if ticks else 0.0,
        "loadgen.lag_p99_ms": _ms(percentile(lags, 99)),
        "loadgen.lag_max_ms": _ms(max(lags, default=0.0)),
        "bench.tracing_overhead_ratio": overhead_ratio,
    }
