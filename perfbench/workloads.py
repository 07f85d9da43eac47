"""The four served workloads: request documents, priming and oracle checks.

Every document is a function of ``--seed`` alone; the server sees only the
documents.  Answers are checked after the timed loops against
:mod:`oracle`, and a wrong answer counts as a failed request.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

import oracle
from loadgen import Sample, closed_loop, http_post, open_loop
from repro.workloads.registry import make_sequence, make_string_pair

LIS_N = 2048
LCS_N = 256
LIS_WORKLOADS = ("random", "near_sorted", "duplicate_heavy")
SCHEMA = {"schema": "repro.service.requests", "version": 2}
#: At most ``nproc`` generator threads and connections on the 2-core host.
CLIENTS = 2


def _batch(requests: List[Dict[str, Any]]) -> bytes:
    return json.dumps({**SCHEMA, "requests": requests}).encode()


def _results(sample: Sample) -> List[Any]:
    return [entry.get("result") for entry in json.loads(sample.body)["results"]]


class _Oracle:
    """Memoised inputs and whole-input answers of named targets."""

    def __init__(self) -> None:
        self._seq: Dict[Tuple[str, int], list] = {}
        self._ranks: Dict[Tuple[str, int], list] = {}
        self._lcs: Dict[int, int] = {}

    def sequence(self, workload: str, seed: int) -> list:
        key = (workload, seed)
        if key not in self._seq:
            self._seq[key] = make_sequence(workload, LIS_N, seed=seed).tolist()
        return self._seq[key]

    def ranks(self, workload: str, seed: int) -> list:
        key = (workload, seed)
        if key not in self._ranks:
            self._ranks[key] = oracle.strict_ranks(self.sequence(workload, seed))
        return self._ranks[key]

    def lcs(self, seed: int) -> int:
        if seed not in self._lcs:
            s, t = make_string_pair("correlated_pair", LCS_N, seed=seed)
            self._lcs[seed] = oracle.lcs_length(s, t)
        return self._lcs[seed]

    def expected(self, request: Dict[str, Any]) -> Any:
        op = request["op"]
        if op == "lcs_length":
            return self.lcs(request["seed"])
        workload, seed = request["workload"], request["seed"]
        if op == "lis_length":
            return oracle.lis_length(self.sequence(workload, seed))
        if op == "substring_query":
            seq = self.sequence(workload, seed)
            return [oracle.lis_length(seq[i:j]) for i, j in zip(request["i"], request["j"])]
        if op == "rank_interval_query":
            return oracle.rank_interval_lis(self.ranks(workload, seed), request["x"], request["y"])
        raise ValueError(f"no oracle for op {op!r}")


def _lis_target(workload: str, seed: int) -> Dict[str, Any]:
    return {"workload": workload, "n": LIS_N, "seed": int(seed)}


def _lcs_target(seed: int) -> Dict[str, Any]:
    return {"string_workload": "correlated_pair", "n": LCS_N, "seed": int(seed)}


def _check_batches(samples: Sequence[Sample], docs: Sequence[List[Dict[str, Any]]], answers) -> None:
    """Mark each 200 answer that differs from the oracle as wrong."""
    for sample in samples:
        if sample.status != 200:
            continue
        requests = docs[sample.doc_index]
        try:
            got = _results(sample)
        except (ValueError, KeyError, TypeError):
            sample.correct = False
            continue
        sample.correct = got == [answers(request) for request in requests]


class Phases:
    """What one measured run produced."""

    def __init__(self) -> None:
        #: Open-loop samples (the query workloads only).
        self.open: List[Sample] = []
        #: Closed-loop samples and their wall time (throughput).
        self.closed: List[Sample] = []
        self.closed_seconds = 0.0
        #: Client-observed replies of session pushes (stream-slide only).
        self.push_replies: List[Dict[str, Any]] = []

    @property
    def latency(self) -> List[Sample]:
        """The samples whose latency defines p50 and the tail."""
        return self.open or self.closed

    @property
    def samples(self) -> List[Sample]:
        return self.open + self.closed


class QueryMix:
    """``query-warm`` / ``query-sharded``: warm v2 batches against prebuilt indexes."""

    TAIL = 96
    #: Open-loop offered rate.  The unsharded closed-loop capacity measured
    #: 117 to 300 rps on the shared 2-core host as its load varied, and the
    #: sharded one 92 to 230 rps; at this rate no slow spell grows a backlog.
    RATE = 40.0
    POOL = 128

    def __init__(self, seed: int, shards: int) -> None:
        self.shards = shards
        # The indexed corpus is fixed and the seed drives the traffic, so
        # the seed cannot move how the indexes spread over the shards.
        self.lis_targets = [_lis_target(workload, s) for workload in LIS_WORKLOADS for s in (0, 1)]
        self.lcs_targets = [_lcs_target(s) for s in (0, 1)]
        rng = np.random.default_rng([seed, 1])
        self.docs = [self._document(rng) for _ in range(self.POOL)]
        self.bodies = [_batch(doc) for doc in self.docs]
        self.oracle = _Oracle()
        self.answers: Dict[str, Any] = {}

    def server_args(self) -> List[str]:
        return ["--shards", str(self.shards)] if self.shards else []

    def _document(self, rng) -> List[Dict[str, Any]]:
        a = self.lis_targets[rng.integers(len(self.lis_targets))]
        b = self.lis_targets[rng.integers(len(self.lis_targets))]
        c = self.lcs_targets[rng.integers(len(self.lcs_targets))]
        i = rng.integers(0, LIS_N, size=8)
        j = rng.integers(0, LIS_N + 1, size=8)
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        x, y = sorted(int(v) for v in rng.integers(0, LIS_N + 1, size=2))
        return [
            {"op": "lis_length", **a},
            {"op": "substring_query", **a, "i": lo.tolist(), "j": hi.tolist()},
            {"op": "rank_interval_query", **b, "x": x, "y": y},
            {"op": "lcs_length", **c},
        ]

    def expected(self, request: Dict[str, Any]) -> Any:
        key = json.dumps(request, sort_keys=True)
        if key not in self.answers:
            self.answers[key] = self.oracle.expected(request)
        return self.answers[key]

    def prepare(self) -> None:
        """Compute every pool answer before the first server starts."""
        for doc in self.docs:
            for request in doc:
                self.expected(request)

    def prime(self, server) -> None:
        """Build every index the traffic uses: one batch touching each of them."""
        requests = [{"op": "lis_length", **t} for t in self.lis_targets]
        requests += [{"op": "rank_interval_query", **t, "x": 0, "y": LIS_N} for t in self.lis_targets]
        requests += [{"op": "lcs_length", **t} for t in self.lcs_targets]
        status, body = http_post(server.host, server.port, "/v2/batch", _batch(requests))
        sample = Sample(0, 0.0, 0.0, 0.0, status, body)
        _check_batches([sample], [requests], self.expected)
        if not sample.ok:
            raise RuntimeError(f"priming batch failed (status {status})")

    def measure(self, server, seconds: float) -> Phases:
        def send(k: int):
            return http_post(server.host, server.port, "/v2/batch", self.bodies[k % self.POOL])

        phases = Phases()
        count = int(self.RATE * seconds / 2)
        phases.open = open_loop(send, self.RATE, count, CLIENTS)
        started = time.perf_counter()
        # Closed-loop clients walk the pool from different offsets.
        senders = [
            (lambda k, c=c: send(k * CLIENTS + c + count)) for c in range(CLIENTS)
        ]
        per_client = closed_loop(senders, seconds / 2)
        phases.closed_seconds = time.perf_counter() - started
        for c, samples in enumerate(per_client):
            for sample in samples:
                sample.doc_index = sample.doc_index * CLIENTS + c + count
            phases.closed.extend(samples)
        docs = {s.doc_index: self.docs[s.doc_index % self.POOL] for s in phases.samples}
        _check_batches(phases.samples, docs, self.expected)
        return phases


class BuildCold:
    """``build-cold``: every request names a fresh target, so every request builds.

    It is served through two shards, which puts the sharding layer on a
    workload whose figures hold steady: one build at a time keeps one worker
    busy, where warm queries through shards need both cores at once.
    """

    TAIL = 75
    SHARDS = 2
    #: A cache per shard small enough that the run fills it and evicts.
    CACHE_BYTES = 4 << 20

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.oracle = _Oracle()

    def server_args(self) -> List[str]:
        return ["--shards", str(self.SHARDS), "--cache-bytes", str(self.CACHE_BYTES)]

    def document(self, k: int) -> List[Dict[str, Any]]:
        target_seed = self.seed * 1_000_000 + k
        if k % 4 == 3:
            return [{"op": "lcs_length", **_lcs_target(target_seed)}]
        target = _lis_target(LIS_WORKLOADS[k % 4], target_seed)
        if k % 8 < 4:
            return [{"op": "lis_length", **target}]
        x, y = sorted(int(v) for v in np.random.default_rng([self.seed, k]).integers(0, LIS_N + 1, size=2))
        return [{"op": "rank_interval_query", **target, "x": x, "y": y}]

    def prepare(self) -> None:
        pass

    def prime(self, server) -> None:
        pass

    def measure(self, server, seconds: float) -> Phases:
        def send(k: int):
            return http_post(server.host, server.port, "/v2/batch", _batch(self.document(k)))

        phases = Phases()
        started = time.perf_counter()
        (phases.closed,) = closed_loop([send], seconds)
        phases.closed_seconds = time.perf_counter() - started
        _check_batches(
            phases.closed,
            {s.doc_index: self.document(s.doc_index) for s in phases.closed},
            self.oracle.expected,
        )
        return phases


class StreamSlide:
    """``stream-slide``: two LIS sessions sliding a 4096 window by 64 per push."""

    TAIL = 98
    WINDOW = 4096
    SLIDE = 64

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.sessions: List[str] = []
        self.initial_answers: List[int] = []

    def server_args(self) -> List[str]:
        return []

    def _symbols(self, client: int, k: int) -> List[int]:
        """Push ``k`` of ``client`` (``k = -1`` is the priming window)."""
        size = self.WINDOW if k < 0 else self.SLIDE
        rng = np.random.default_rng([self.seed, client, k + 1])
        return rng.integers(0, 1000, size=size).tolist()

    def prepare(self) -> None:
        self.initial_answers = [oracle.lis_length(self._symbols(c, -1)) for c in range(CLIENTS)]

    def prime(self, server) -> None:
        self.sessions = []
        for c in range(CLIENTS):
            doc = {"kind": "lis", "window": self.WINDOW, "push": self._symbols(c, -1)}
            status, body = http_post(server.host, server.port, "/sessions", json.dumps(doc).encode())
            if status != 200 or json.loads(body)["answer"] != self.initial_answers[c]:
                raise RuntimeError(f"priming session {c} failed (status {status})")
            self.sessions.append(json.loads(body)["id"])

    def measure(self, server, seconds: float) -> Phases:
        def sender(c: int):
            path = f"/sessions/{self.sessions[c]}/push"
            return lambda k: http_post(
                server.host, server.port, path, json.dumps({"symbols": self._symbols(c, k)}).encode()
            )

        phases = Phases()
        started = time.perf_counter()
        per_client = closed_loop([sender(c) for c in range(CLIENTS)], seconds)
        phases.closed_seconds = time.perf_counter() - started
        for c, samples in enumerate(per_client):
            window = deque(self._symbols(c, -1), maxlen=self.WINDOW)
            for sample in samples:
                window.extend(self._symbols(c, sample.doc_index))
                if sample.status != 200:
                    continue
                reply = json.loads(sample.body)
                sample.correct = reply.get("answer") == oracle.lis_length(window)
                phases.push_replies.append(reply)
            phases.closed.extend(samples)
        return phases


WORKLOADS = {
    "query-warm": lambda seed: QueryMix(seed, shards=0),
    "query-sharded": lambda seed: QueryMix(seed, shards=2),
    "build-cold": BuildCold,
    "stream-slide": StreamSlide,
}
