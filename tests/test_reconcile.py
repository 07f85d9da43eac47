"""Property test: every ``/stats`` count equals its ``/metrics`` series.

Hypothesis generates v2 batches — mixed ops over inline and named targets,
``refresh`` entries, malformed entries, plus one batch larger than
``max_inflight`` — and drives them through :meth:`ServerCore.handle` in one
event loop, over a plain :class:`QueryService` and over an in-process
:class:`ShardRouter`.  Answers must equal a serial ``QueryService`` oracle,
errors must stay with the request that caused them, and each count on
``/stats`` must equal the series ``/metrics`` renders for it.  That holds for
the service layer too: over the router, each shard's cache and service series
sum to the ``/stats`` totals; over a plain service, which shares the process
series with every other live service, the two move by the same amount.
"""

from __future__ import annotations

import asyncio
import functools
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.obs.metrics import parse_prometheus_text
from repro.server import ServerCore
from repro.service import IndexCache, QueryService, ShardRouter, parse_requests_document

MAX_INFLIGHT = 8

_MALFORMED = (
    {"op": "no_such_op", "workload": "random", "n": 32},
    {"op": "lis_length"},
    {"op": "lcs_length", "workload": "random", "n": 32, "seed": 1},
    {"op": "substring_query", "workload": "random", "n": 32, "seed": 1},
    {"op": "refresh", "sequence": [1, 2, 3]},
    "not an object",
)


@st.composite
def _sequence_target(draw):
    if draw(st.booleans()):
        n = draw(st.sampled_from((32, 48)))
        return {"workload": "random", "n": n, "seed": draw(st.integers(1, 2))}, n
    values = draw(st.lists(st.integers(0, 9), min_size=1, max_size=12))
    return {"sequence": values}, len(values)


@st.composite
def _pair_target(draw):
    if draw(st.booleans()):
        return {"string_workload": "correlated_pair", "n": 24, "seed": draw(st.integers(3, 4))}, 24
    s = draw(st.lists(st.integers(0, 3), min_size=1, max_size=8))
    t = draw(st.lists(st.integers(0, 3), min_size=1, max_size=8))
    return {"s": s, "t": t}, len(t)


@st.composite
def _entry(draw):
    op = draw(
        st.sampled_from(
            ("lis_length", "lcs_length", "substring_query", "rank_interval_query",
             "window_sweep", "refresh", "malformed")
        )
    )
    if op == "malformed":
        return draw(st.sampled_from(_MALFORMED))
    pair = op == "lcs_length" or (op == "substring_query" and draw(st.booleans()))
    target, length = draw(_pair_target() if pair else _sequence_target())
    entry = {"op": op, **target}
    if not pair and draw(st.booleans()):
        entry["strict"] = False
    if op in ("substring_query", "rank_interval_query"):
        lo = draw(st.integers(0, length))
        hi = draw(st.integers(lo, length))
        entry.update({"i": lo, "j": hi} if op == "substring_query" else {"x": lo, "y": hi})
    elif op == "window_sweep":
        entry["width"] = draw(st.integers(1, length))
        entry["step"] = draw(st.integers(1, 3))
    elif op == "refresh":
        entry["append"] = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4))
    return entry


_batches = st.lists(st.lists(_entry(), min_size=1, max_size=MAX_INFLIGHT), min_size=1, max_size=4)


@functools.lru_cache(maxsize=None)
def _oracle_answer(entry_json: str):
    """The serial answer to one well-formed entry (``None`` if malformed)."""
    try:
        _, requests = parse_requests_document({"requests": [json.loads(entry_json)]})
    except ValueError:
        return None
    return _ORACLE.submit(requests).outcomes[0].result


_ORACLE = QueryService(cache=IndexCache())


def _well_formed(entry) -> bool:
    return _oracle_answer(json.dumps(entry, sort_keys=True)) is not None


async def _drive(service, batches, oversize):
    """Replies, plus ``(stats, parsed /metrics)`` before the last batch and at the end."""
    core = ServerCore(service, max_inflight=MAX_INFLIGHT)
    await core.startup()

    async def scrape():
        _, _, stats = await core.handle("GET", "/stats", b"")
        _, _, metrics = await core.handle("GET", "/metrics", b"")
        return json.loads(stats), parse_prometheus_text(metrics.decode())

    try:
        replies, before = [], None
        for position, batch in enumerate(batches + [oversize]):
            if position == len(batches) - 1:
                before = await scrape()
            body = json.dumps({"version": 2, "requests": batch}).encode()
            status, _, payload = await core.handle("POST", "/v2/batch", body)
            replies.append((status, json.loads(payload)))
        return replies, before, await scrape()
    finally:
        await core.shutdown()


def _series(parsed, name, **labels):
    return parsed.get(name, {}).get(tuple(sorted((k, str(v)) for k, v in labels.items())), 0.0)


def _labelled_total(parsed, name):
    return sum(parsed.get(name, {}).values())


def _assert_timing(summary, parsed, name, **labels):
    assert summary["count"] == _series(parsed, name + "_count", **labels), name
    assert summary["total_seconds"] == _series(parsed, name + "_sum", **labels), name


def _assert_reconciled(stats, parsed):
    requests = stats["requests"]
    for key, name in (
        ("received", "repro_server_requests_received_total"),
        ("answered", "repro_server_requests_answered_total"),
        ("failed", "repro_server_requests_failed_total"),
        ("parse_errors", "repro_server_parse_errors_total"),
        ("deadline_expired", "repro_server_deadline_expired_total"),
        ("degraded", "repro_server_degraded_answers_total"),
    ):
        assert requests[key] == _series(parsed, name), key
    assert requests["rejected"] == _labelled_total(parsed, "repro_server_rejections_total")
    assert stats["internal_errors"] == _series(parsed, "repro_server_internal_errors_total")
    coalescing = stats["coalescing"]
    for key in ("passes", "merged_passes", "coalesced_requests", "failed_passes"):
        assert coalescing[key] == _series(parsed, f"repro_server_{key}_total"), key
    for event in ("started", "done", "failed"):
        assert stats["builds"][event] == _series(parsed, "repro_server_builds_total", event=event)
    timings = stats["timings"]
    _assert_timing(timings["queue_wait"], parsed, "repro_server_queue_wait_seconds")
    _assert_timing(timings["answer"], parsed, "repro_server_answer_seconds")
    _assert_timing(timings["build_wait"], parsed, "repro_server_build_wait_seconds")

    service = stats["service"]
    if not service.get("sharded"):
        return
    for shard, doc in enumerate(service["per_shard"]):
        assert doc["requests_routed"] == _series(parsed, "repro_shard_requests_total", shard=shard)
        assert service["load"]["per_shard_requests"][shard] == doc["requests_routed"]
        assert doc["sub_batches"] == _series(parsed, "repro_shard_sub_batches_total", shard=shard)
        assert doc["restarts"] == _series(parsed, "repro_shard_restarts_total", shard=shard)
    assert service["batches_served"] == _series(parsed, "repro_router_batches_total")
    assert service["requests_served"] == _series(parsed, "repro_router_requests_total")
    assert service["retries"] == _series(parsed, "repro_shard_retries_total")
    resilience = service["resilience"]
    assert resilience["hangs"] == _labelled_total(parsed, "repro_shard_hangs_total")
    assert resilience["degraded_requests"] == _labelled_total(
        parsed, "repro_degraded_requests_total"
    )
    router_timings = service["router_timings"]
    _assert_timing(router_timings["queue_wait"], parsed, "repro_shard_queue_wait_seconds")
    shard_exec = router_timings["shard_exec"]
    assert shard_exec["count"] == _series(
        parsed, "repro_shard_pipe_seconds_count", cmd="submit"
    ) + _series(parsed, "repro_shard_pipe_seconds_count", cmd="ensure")


#: ``/stats`` service-layer key path -> the ``/metrics`` series it reads.
_SERVICE_SERIES = (
    (("cache", "hits"), "repro_cache_lookups_total", {"result": "hit"}),
    (("cache", "misses"), "repro_cache_lookups_total", {"result": "miss"}),
    (("cache", "evictions"), "repro_cache_evictions_total", {}),
    (("indexes_built",), "repro_index_builds_total", {}),
    (("build_seconds",), "repro_index_build_seconds_sum", {}),
    (("query_seconds",), "repro_query_pass_seconds_sum", {}),
)


def _service_value(service, path):
    for key in path:
        service = service[key]
    return service


def _samples_total(parsed, name, labels, sharded):
    """Sum of ``name``'s samples carrying ``labels`` (and a shard label, if sharded)."""
    wanted = {(key, str(value)) for key, value in labels.items()}
    return sum(
        value
        for key, value in parsed.get(name, {}).items()
        if wanted <= set(key) and (not sharded or "shard" in dict(key))
    )


def _assert_service_reconciled(before, after, sharded):
    (stats_before, parsed_before), (stats_after, parsed_after) = before, after
    for path, name, labels in _SERVICE_SERIES:
        observed = _service_value(stats_after["service"], path)
        if sharded:
            assert observed == _samples_total(parsed_after, name, labels, True), path
            continue
        # Every live service in the process adds to the unlabelled series, so
        # compare how far each side moved across the last batch.
        moved = observed - _service_value(stats_before["service"], path)
        metric_moved = _samples_total(parsed_after, name, labels, False) - _samples_total(
            parsed_before, name, labels, False
        )
        assert moved == pytest.approx(metric_moved, abs=1e-9), path


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(batches=_batches, sharded=st.booleans())
def test_stats_reconcile_with_metrics_and_answers_match_oracle(batches, sharded):
    oversize = [{"op": "lis_length", "sequence": [k, 1, 2]} for k in range(MAX_INFLIGHT + 1)]
    service = (
        ShardRouter(2, force_serial=True) if sharded else QueryService(cache=IndexCache())
    )
    replies, before, (stats, parsed) = asyncio.run(_drive(service, batches, oversize))

    for batch, (status, reply) in zip(batches, replies):
        assert status == 200, reply
        assert len(reply["results"]) == len(batch)
        for entry, result in zip(batch, reply["results"]):
            if _well_formed(entry):
                assert result["status"] == "ok", (entry, result)
                assert result["result"] == _oracle_answer(json.dumps(entry, sort_keys=True))
            else:
                assert result["status"] == "error" and "error" in result
    status, reply = replies[-1]
    assert status == 400 and "max-inflight" in reply["error"]

    sent = sum(len(batch) for batch in batches)
    malformed = sum(1 for batch in batches for entry in batch if not _well_formed(entry))
    requests = stats["requests"]
    assert requests["received"] == sent + len(oversize)
    assert requests["rejected"] == len(oversize)
    assert requests["parse_errors"] == malformed
    assert requests["answered"] == sent - malformed
    assert requests["failed"] == malformed
    _assert_reconciled(stats, parsed)
    _assert_service_reconciled(before, (stats, parsed), sharded)
