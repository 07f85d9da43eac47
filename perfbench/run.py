"""The repository benchmark: served workloads against a real ``serve-http``.

    python3 perfbench/run.py --workload query-warm --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each run starts a fresh server process,
drives one workload against it from this process (at most two generator
threads and connections), checks every answer against an independent oracle
and prints, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload twice, on a plain server and on one launched through
``traced_serve.py``, and reports the per-layer metrics of the traced half
plus the ratio of the two medians.  ``--workload all`` runs every workload
in turn.  The exit code is 1 when any answer differs from its oracle.

Why these workloads, and why the MPC simulator is not one, is in README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
from typing import Any, Dict, List, Tuple

from layers import layer_metrics, load_spans
from loadgen import percentile
from server import Server

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Servers started per run; ``setup_s`` is their median set-up time.
SETUPS = 3
#: A failed, refused or wrong request's latency (+inf) as written in the JSON.
FAILED_LATENCY_MS = 1e12
#: Generator lateness above which a run's latencies say more about the
#: generator than about the server.
LAG_WARN_MS = 5.0


def _spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the metric names and units this run reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _latencies_ms(samples) -> List[float]:
    return [sample.latency * 1000.0 for sample in samples]


def _start(workload, launcher=None, env=None):
    started = time.perf_counter()
    server = Server(ROOT, workload.server_args(), launcher=launcher, env=env)
    try:
        workload.prime(server)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


def _counts(samples) -> Tuple[int, int, bool]:
    attempted = len(samples)
    failed = sum(1 for sample in samples if not sample.ok)
    correct = all(sample.correct for sample in samples)
    return attempted, failed, correct


def _warn(name: str, workload, phases) -> None:
    lags = [sample.lag * 1000.0 for sample in phases.open]
    if lags and percentile(lags, 99) > LAG_WARN_MS:
        print(f"warning: {name}: generator lag p99 {percentile(lags, 99):.2f} ms", file=sys.stderr)
    beyond = len(phases.latency) * (100 - workload.TAIL) / 100.0
    if beyond < 10:
        print(
            f"warning: {name}: only {beyond:.1f} samples beyond p{workload.TAIL}",
            file=sys.stderr,
        )


def end_to_end(name: str, workload, seconds: float) -> Dict[str, Any]:
    setups = []
    for attempt in range(SETUPS):
        server, setup = _start(workload)
        setups.append(setup)
        if attempt < SETUPS - 1:
            server.stop()
    try:
        phases = workload.measure(server, seconds)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    _warn(name, workload, phases)
    latencies = _latencies_ms(phases.latency)
    attempted, failed, correct = _counts(phases.samples)
    completed = sum(1 for sample in phases.closed if sample.ok)
    # The tail is printed but not gated: on a shared 2-core host its
    # run-to-run spread is wider than any bound the benchmark may set.
    tail = percentile(latencies, workload.TAIL)
    print(f"{name:14s} {'latency_tail_ms':34s} {min(tail, FAILED_LATENCY_MS):14.4f} ms "
          f"(p{workload.TAIL} of {len(latencies)}, not gated)")
    values = {
        "latency_p50_ms": percentile(latencies, 50),
        "throughput_rps": completed / phases.closed_seconds,
        "success_share": 1.0 - failed / attempted,
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setups),
    }
    return _result(correct, attempted, failed, values, _spec()["end_to_end"])


def traced(name: str, workload, seconds: float) -> Dict[str, Any]:
    half = seconds / 2.0

    server, _ = _start(workload)
    try:
        plain = workload.measure(server, half)
    finally:
        server.stop()

    span_dir = os.path.join(ROOT, ".perfbench", str(os.getpid()))
    os.makedirs(span_dir)
    try:
        server, _ = _start(
            workload,
            launcher=os.path.join(HERE, "traced_serve.py"),
            env={"PERFBENCH_SPANS": span_dir},
        )
        try:
            before = server.stats()
            window_start = time.perf_counter()
            phases = workload.measure(server, half)
            window = (window_start, time.perf_counter())
            after = server.stats()
        finally:
            server.stop()
        spans = load_spans(span_dir)
    finally:
        shutil.rmtree(span_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(span_dir))
        except OSError:
            pass  # another run's spans are still there

    overhead = percentile(_latencies_ms(phases.latency), 50) / percentile(
        _latencies_ms(plain.latency), 50
    )
    values = layer_metrics(
        spans,
        window,
        phases.samples,
        phases.open,
        before,
        after,
        phases.push_replies,
        overhead,
    )
    attempted, failed, correct = _counts(plain.samples + phases.samples)
    return _result(correct, attempted, failed, values, _spec()["per_layer"])


def _result(correct, attempted, failed, values, metrics_spec) -> Dict[str, Any]:
    metrics = {}
    for metric in metrics_spec:
        value = values[metric["name"]]
        metrics[metric["name"]] = {
            "value": value if math.isfinite(value) else FAILED_LATENCY_MS,
            "unit": metric["unit"],
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A shell that starts this in the background ignores SIGINT; the servers
    # would inherit that and ignore the signal that shuts them down cleanly.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no repro package under {src}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from {list(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2

    status = 0
    for name in names:
        workload = WORKLOADS[name](args.seed)
        workload.prepare()
        run = traced if args.trace else end_to_end
        result = run(name, workload, args.seconds)
        for key, metric in result["metrics"].items():
            print(f"{name:14s} {key:34s} {metric['value']:14.4f} {metric['unit']}")
        print(json.dumps(result), flush=True)
        if not result["correct"]:
            print(f"error: {name}: an answer differs from its oracle", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
