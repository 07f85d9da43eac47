"""Open- and closed-loop request generators, owned by the benchmark.

Each loop takes a ``send(doc_index) -> (status, body)`` callable and
records one :class:`Sample` per request.  The clock and the sleep are
parameters so the timing arithmetic can be checked on a fake clock.

In the open loop, request ``k`` is due at ``start + k / rate``.  Its latency
is counted from that due time, so a stall also delays every request queued
behind it.  Generator lag is the part of the send delay that is the
generator's own fault: how late a thread sent a request after it was free
to.  Time a thread spent blocked on an earlier reply is the server's and is
not counted as lag.
"""

from __future__ import annotations

import math
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

Send = Callable[[int], Tuple[int, bytes]]


@dataclass
class Sample:
    """One request as the generator saw it (times from the loop's clock)."""

    doc_index: int
    due: float
    sent: float
    done: float
    status: int
    body: bytes
    #: Seconds the request left later than the thread was free to send it.
    lag: float = 0.0
    #: Cleared after the run when the answer differs from the oracle.
    correct: bool = True

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.correct

    @property
    def latency(self) -> float:
        """Seconds from due to done; +inf for a failed, refused or wrong request."""
        return self.done - self.due if self.ok else math.inf


def open_loop(
    send: Send,
    rate: float,
    count: int,
    threads: int,
    *,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    start: Optional[float] = None,
) -> List[Sample]:
    """Send ``count`` requests on a fixed schedule of ``rate`` per second."""
    start = clock() if start is None else start
    lock = threading.Lock()
    samples: List[Optional[Sample]] = [None] * count
    next_index = [0]

    def worker() -> None:
        while True:
            with lock:
                k = next_index[0]
                if k >= count:
                    return
                next_index[0] = k + 1
            due = start + k / rate
            free = clock()
            if free < due:
                sleep(due - free)
            sent = clock()
            status, body = send(k)
            samples[k] = Sample(k, due, sent, clock(), status, body, lag=sent - max(due, free))

    _run_threads(worker, threads)
    return [sample for sample in samples if sample is not None]


def closed_loop(
    send_for_client: Sequence[Send],
    seconds: float,
    *,
    clock: Callable[[], float] = time.perf_counter,
) -> List[List[Sample]]:
    """Each client sends its next request as soon as its last one completes.

    Returns one sample list per client; a client's ``doc_index`` counts its
    own requests.  The latency of a closed-loop request runs from its send.
    """
    end = clock() + seconds
    per_client: List[List[Sample]] = [[] for _ in send_for_client]

    def client(c: int) -> None:
        send = send_for_client[c]
        k = 0
        while clock() < end:
            sent = clock()
            status, body = send(k)
            per_client[c].append(Sample(k, sent, sent, clock(), status, body))
            k += 1

    threads = [threading.Thread(target=client, args=(c,)) for c in range(len(send_for_client))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return per_client


def _run_threads(target: Callable[[], None], count: int) -> None:
    if count == 1:
        target()
        return
    threads = [threading.Thread(target=target) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def tail_percentile(sample_count: int) -> int:
    """The highest whole percentile with at least ten samples beyond it."""
    for q in range(99, 0, -1):
        if sample_count * (100 - q) / 100.0 >= 10.0 - 1e-9:
            return q
    return 0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failures) sort last."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def http_post(host: str, port: int, path: str, body: bytes, timeout: float = 60.0) -> Tuple[int, bytes]:
    """One ``Connection: close`` POST; status 0 on a transport error."""
    request = (
        f"POST {path} HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode("latin-1") + body
    return _exchange(host, port, request, timeout)


def http_get(host: str, port: int, path: str, timeout: float = 60.0) -> Tuple[int, bytes]:
    request = f"GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n".encode("latin-1")
    return _exchange(host, port, request, timeout)


def _exchange(host: str, port: int, request: bytes, timeout: float) -> Tuple[int, bytes]:
    try:
        with socket.create_connection((host, port), timeout=timeout) as sock:
            sock.sendall(request)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
    except OSError:
        return 0, b""
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    try:
        status = int(head.split(b" ", 2)[1])
    except (IndexError, ValueError):
        return 0, b""
    return status, body
