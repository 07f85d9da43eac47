"""Run the ``repro`` CLI with span recorders around each serving layer.

    PYTHONPATH=src PERFBENCH_SPANS=<dir> python perfbench/traced_serve.py serve-http ...

Each recorder notes (name, start, end, id, parent id, attributes) in memory;
every process writes its spans to ``<dir>/spans-<pid>.json`` when it exits.
Shard workers are forked from the server, so they inherit the recorders and
register their own exit-time write.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import multiprocessing.util
import os
import sys
import time

import repro.core.seaweed
import repro.service.index
import repro.service.serving
from repro.experiments import cli
from repro.server.core import ServerCore
from repro.service.index import SemiLocalIndex
from repro.service.serving import QueryService
from repro.service.sharding import ShardRouter
from repro.streaming import StreamingLIS

_SPANS: list = []
_IDS = itertools.count(1)
_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=0)


def _recorded(name, fn, attrs=None):
    """Wrap ``fn`` so that each call records one span (coroutines too)."""
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            parent, sid = _CURRENT.get(), next(_IDS)
            token = _CURRENT.set(sid)
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                _CURRENT.reset(token)
                extra = attrs(args, None) if attrs else {}
                _SPANS.append((name, start, time.perf_counter(), sid, parent, extra))

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent, sid = _CURRENT.get(), next(_IDS)
        token = _CURRENT.set(sid)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            _CURRENT.reset(token)
            extra = attrs(args, result) if attrs else {}
            _SPANS.append((name, start, time.perf_counter(), sid, parent, extra))

    return wrapper


def _write_spans() -> None:
    directory = os.environ["PERFBENCH_SPANS"]
    with open(os.path.join(directory, f"spans-{os.getpid()}.json"), "w") as fh:
        json.dump(_SPANS, fh)


class _ForkHook:
    """Clears the inherited spans in a forked worker and schedules its write."""


_FORK_HOOK = _ForkHook()


def _after_fork(_hook) -> None:
    del _SPANS[:]
    multiprocessing.util.Finalize(None, _write_spans, exitpriority=100)


def install() -> None:
    ServerCore.handle = _recorded(
        "server.handle", ServerCore.handle, lambda args, _: {"path": args[2]}
    )
    QueryService.submit = _recorded("service.submit", QueryService.submit)
    ShardRouter.submit = _recorded("sharding.submit", ShardRouter.submit)
    for method in ("query_substrings", "query_rank_intervals"):
        setattr(
            SemiLocalIndex,
            method,
            _recorded("service.index_query", getattr(SemiLocalIndex, method)),
        )
    build_lis = _recorded("lis.build", repro.service.index.build_lis_index)
    build_lcs = _recorded(
        "lcs.build",
        repro.service.index.build_lcs_index,
        lambda _, index: {"match_points": len(index.match_positions) if index is not None else 0},
    )
    for module in (repro.service.index, repro.service.serving):
        module.build_lis_index = build_lis
        module.build_lcs_index = build_lcs
    repro.core.seaweed.multiply_permutations = _recorded(
        "core.multiply", repro.core.seaweed.multiply_permutations
    )
    StreamingLIS.push = _recorded("streaming.push", StreamingLIS.push)
    StreamingLIS.lis_length = _recorded("streaming.lis_length", StreamingLIS.lis_length)
    multiprocessing.util.register_after_fork(_FORK_HOOK, _after_fork)


if __name__ == "__main__":
    install()
    try:
        status = cli.main(sys.argv[1:])
    finally:
        _write_spans()
    sys.exit(status)
