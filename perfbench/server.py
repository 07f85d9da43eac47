"""Start, probe and stop one ``repro serve-http`` process.

Every workload run gets a fresh server process: the ``repro.obs`` registry is
process-global, so counters would pile up across servers sharing a process.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from loadgen import http_get

_LISTENING = re.compile(r"listening on http://([^:]+):(\d+)")


class Server:
    """A ``serve-http`` child process, bound to an ephemeral port.

    ``launcher`` is the Python file that runs the CLI; the default runs
    ``python -m repro`` itself, the traced run passes its span-recording
    launcher.
    """

    def __init__(
        self,
        root: str,
        args: Sequence[str],
        *,
        launcher: Optional[str] = None,
        env: Optional[Dict[str, str]] = None,
    ) -> None:
        child_env = dict(os.environ)
        child_env["PYTHONPATH"] = os.path.join(root, "src")
        child_env.update(env or {})
        entry = [launcher] if launcher else ["-m", "repro"]
        command = [sys.executable, *entry, "serve-http", "--port", "0", *args]
        self.spawned = time.perf_counter()
        # A session of its own lets stop() reap shard workers left behind by a
        # server that had to be killed.
        self.process = subprocess.Popen(
            command,
            cwd=root,
            env=child_env,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        line = self.process.stdout.readline()
        match = _LISTENING.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line.strip()!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        status, _ = http_get(self.host, self.port, "/healthz")
        if status != 200:
            self.stop()
            raise RuntimeError(f"/healthz answered {status}")

    def stats(self) -> Dict[str, Any]:
        status, body = http_get(self.host, self.port, "/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(body)

    def pids(self) -> List[int]:
        """The server process and its shard workers."""
        pids = [self.process.pid]
        for task in os.listdir(f"/proc/{self.process.pid}/task"):
            try:
                with open(f"/proc/{self.process.pid}/task/{task}/children") as fh:
                    pids.extend(int(pid) for pid in fh.read().split())
            except FileNotFoundError:
                continue  # the thread ended while we listed
        return pids

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the server and its shard workers."""
        total_kb = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except FileNotFoundError:
                continue
        return total_kb / 1024.0

    def stop(self) -> None:
        """Interrupt the server (a clean shutdown), then reap its process group."""
        workers = self.pids()[1:] if self.process.poll() is None else []
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.communicate()
        else:
            self.process.communicate()
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        # Shard workers are the server's children, not ours: wait until
        # they are gone from /proc.
        deadline = time.perf_counter() + 10.0
        while any(_alive(pid) for pid in workers):
            if time.perf_counter() > deadline:
                raise RuntimeError(f"shard workers {workers} outlived their server")
            time.sleep(0.01)


def _alive(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False
