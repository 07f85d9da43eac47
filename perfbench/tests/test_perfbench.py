"""Tests of the benchmark's own arithmetic, oracles and document generation.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import oracle  # noqa: E402
from layers import covered  # noqa: E402
from loadgen import Sample, open_loop, percentile, tail_percentile  # noqa: E402
from workloads import BuildCold, QueryMix, StreamSlide, _check_batches  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_open_loop_times_from_due_and_separates_generator_lag():
    clock = FakeClock()
    service = {0: 0.25}  # request 0 stalls the server for 250 ms

    def send(k):
        clock.now += service.get(k, 0.01)
        return 200, b""

    samples = open_loop(send, rate=10.0, count=4, threads=1, clock=clock, sleep=clock.sleep, start=0.0)
    assert [s.due for s in samples] == pytest.approx([0.0, 0.1, 0.2, 0.3])
    # Request 1 was due at 0.1 but could only leave at 0.25, behind the stall:
    # its latency counts that wait, its lag does not (the thread was busy).
    assert samples[1].sent == pytest.approx(0.25)
    assert samples[1].latency == pytest.approx(0.16)
    assert samples[1].lag == pytest.approx(0.0)
    assert samples[2].latency == pytest.approx(0.07)
    # Request 3 found the thread idle and slept until it was due.
    assert samples[3].sent == pytest.approx(0.3)
    assert samples[3].latency == pytest.approx(0.01)


def test_open_loop_lag_counts_a_late_generator():
    clock = FakeClock()

    def late_sleep(seconds):
        clock.now += seconds + 0.004  # the generator oversleeps by 4 ms

    def send(k):
        clock.now += 0.001
        return 200, b""

    samples = open_loop(send, rate=10.0, count=3, threads=1, clock=clock, sleep=late_sleep, start=0.0)
    assert [s.lag for s in samples[1:]] == pytest.approx([0.004, 0.004])
    assert samples[1].latency == pytest.approx(0.005)


def test_failed_request_latency_is_infinite():
    refused = Sample(0, 0.0, 0.0, 0.01, 429, b"")
    wrong = Sample(1, 0.0, 0.0, 0.01, 200, b"", correct=False)
    assert math.isinf(refused.latency) and math.isinf(wrong.latency)
    assert percentile([1.0, math.inf, 2.0], 50) == 2.0
    assert math.isinf(percentile([1.0, math.inf, 2.0], 90))


@pytest.mark.parametrize(
    "count, expected", [(1500, 99), (1000, 99), (999, 98), (100, 90), (83, 87), (10, 0)]
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([], 50) == 0.0


def _answer_body(mix, doc):
    return json.dumps({"results": [{"result": mix.expected(r)} for r in doc]}).encode()


def test_injected_wrong_answer_is_caught():
    mix = QueryMix(seed=5, shards=0)
    doc = mix.docs[0]
    good = Sample(0, 0.0, 0.0, 0.001, 200, _answer_body(mix, doc))
    answers = json.loads(_answer_body(mix, doc))
    answers["results"][1]["result"][3] += 1
    bad = Sample(0, 0.0, 0.0, 0.001, 200, json.dumps(answers).encode())
    garbled = Sample(0, 0.0, 0.0, 0.001, 200, b"not json")
    _check_batches([good, bad, garbled], [doc], mix.expected)
    assert good.ok
    assert not bad.ok and not bad.correct and math.isinf(bad.latency)
    assert not garbled.correct


def test_seed_reproduces_identical_documents():
    assert QueryMix(seed=7, shards=0).bodies == QueryMix(seed=7, shards=2).bodies
    assert QueryMix(seed=7, shards=0).bodies != QueryMix(seed=8, shards=0).bodies
    assert [BuildCold(7).document(k) for k in range(16)] == [BuildCold(7).document(k) for k in range(16)]
    assert BuildCold(7).document(0) != BuildCold(8).document(0)
    assert StreamSlide(7)._symbols(1, 5) == StreamSlide(7)._symbols(1, 5)
    assert StreamSlide(7)._symbols(0, 5) != StreamSlide(7)._symbols(1, 5)


def test_build_cold_targets_are_fresh_and_a_quarter_lcs():
    docs = [BuildCold(3).document(k)[0] for k in range(64)]
    seeds = [doc["seed"] for doc in docs]
    assert len(set(seeds)) == len(seeds)
    assert sum(doc["op"] == "lcs_length" for doc in docs) == 16


def _lis_quadratic(values):
    best = []
    for k, v in enumerate(values):
        best.append(1 + max((best[p] for p in range(k) if values[p] < v), default=0))
    return max(best, default=0)


def _lcs_table(s, t):
    table = [[0] * (len(t) + 1) for _ in range(len(s) + 1)]
    for a in range(1, len(s) + 1):
        for b in range(1, len(t) + 1):
            if s[a - 1] == t[b - 1]:
                table[a][b] = table[a - 1][b - 1] + 1
            else:
                table[a][b] = max(table[a - 1][b], table[a][b - 1])
    return table[-1][-1]


def test_oracles_agree_with_quadratic_references():
    import random

    rng = random.Random(0)
    for _ in range(50):
        values = [rng.randrange(6) for _ in range(rng.randrange(0, 30))]
        assert oracle.lis_length(values) == _lis_quadratic(values)
        ranks = oracle.strict_ranks(values)
        x, y = sorted(rng.randrange(len(values) + 1) for _ in range(2))
        chosen = [values[p] for p in range(len(values)) if x <= ranks[p] < y]
        assert oracle.rank_interval_lis(ranks, x, y) == _lis_quadratic(chosen)
        s = [rng.randrange(4) for _ in range(rng.randrange(0, 20))]
        t = [rng.randrange(4) for _ in range(rng.randrange(0, 20))]
        assert oracle.lcs_length(s, t) == _lcs_table(s, t)


def test_covered_merges_overlapping_children():
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)]) == pytest.approx(5.0)
    assert covered(0.0, 10.0, []) == 0.0
