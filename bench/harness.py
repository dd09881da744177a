"""Server processes and the closed-loop HTTP client.

One server per workload, in the default ``repro serve`` configuration
(threaded front end, coalescer on, no pool), on ``--port 0``.  One
persistent HTTP/1.1 connection sends the next request only after the
previous response has been read in full (closed loop), after a short
random pause that keeps send times out of phase with the kernel tick
(see :class:`Client`).
"""

from __future__ import annotations

import http.client
import os
import random
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from plans import Request, Workload, Write, setup_requests

SERVING = re.compile(rb"serving PXDBs on http://[^:]+:(\d+)")
START_TIMEOUT = 60.0
STOP_TIMEOUT = 15.0
REQUEST_TIMEOUT = 120.0


@dataclass
class Outcome:
    """What one request got back: status (None when the request never
    completed), body, latency from send to full body read, and the
    transport error, if any."""

    status: int | None
    body: bytes
    seconds: float
    error: str | None = None


def write_file(path: Path, content: str) -> None:
    """Replace ``path`` atomically, as an editor saving the file would."""
    temporary = path.with_name(path.name + ".tmp")
    temporary.write_text(content)
    os.replace(temporary, path)


def write_inputs(workload: Workload, inputs: Path) -> None:
    inputs.mkdir(parents=True, exist_ok=True)
    for name, content in workload.files.items():
        write_file(inputs / name, content)


class Server:
    """One ``python -m repro serve`` process; the caller must :meth:`stop` it."""

    def __init__(self, root: Path, workload: Workload, inputs: Path, log: Path):
        self.argv = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        for name, pdocument, constraints in workload.dbs:
            self.argv += ["--db", f"{name}={inputs / pdocument}:{inputs / constraints}"]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.root = root
        self.workload = workload
        self.log = log
        self.process: subprocess.Popen | None = None
        self.leftover = False

    def start(self) -> int:
        """Spawn and wait until the server announces its port."""
        self.log.parent.mkdir(parents=True, exist_ok=True)
        with open(self.log, "wb") as handle:
            self.process = subprocess.Popen(
                self.argv, cwd=self.root, env=self.env,
                stdin=subprocess.DEVNULL, stdout=handle, stderr=handle,
            )
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            match = SERVING.search(self.log.read_bytes())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                tail = self.log.read_text(errors="replace")[-2000:]
                raise RuntimeError(f"server did not start:\n{tail}")
            time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) in MiB."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM, then wait; a server that outlives the wait is killed
        and recorded as a leftover, which fails the run."""
        process = self.process
        if process is None or process.returncode is not None:
            return
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.leftover = True
            process.kill()
            process.wait()


class Client:
    """A persistent HTTP/1.1 connection (reopened after a transport error).

    With ``think`` set, each request waits a random 0-``THINK`` seconds
    before it is sent.  The threaded server sends headers and body in two
    segments, so every response waits for the client's delayed ACK, which
    fires on a kernel tick (4 ms here).  A client that sends the moment a
    response arrives stays in phase with that tick and every latency lands
    on the tick grid; the random wait spreads send times across the tick,
    so medians move smoothly with the work done instead of in tick steps.
    """

    THINK = 0.005

    def __init__(self, port: int):
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT
        )
        self.think: random.Random | None = None
        self.thought = 0.0

    def get(self, path: str) -> Outcome:
        if self.think is not None:
            start = time.perf_counter()
            time.sleep(self.think.uniform(0.0, self.THINK))
            self.thought += time.perf_counter() - start
        start = time.perf_counter()
        try:
            self.connection.request("GET", path)
            response = self.connection.getresponse()
            body = response.read()
        except (OSError, http.client.HTTPException) as error:
            self.connection.close()
            return Outcome(None, b"", time.perf_counter() - start,
                           f"{type(error).__name__}: {error}")
        return Outcome(response.status, body, time.perf_counter() - start)

    def close(self) -> None:
        self.connection.close()


def cold_start(server: Server) -> tuple[float, Client, list]:
    """Spawn the server and ask every database for Pr(P |= C) once.
    Returns the seconds from spawn to the last answer, the open client
    and the (request, outcome) pairs."""
    start = time.perf_counter()
    client = Client(server.start())
    answered = [(request, client.get(request.path()))
                for request in setup_requests(server.workload)]
    return time.perf_counter() - start, client, answered


def run_phase(workload: Workload, client: Client, inputs: Path, seconds: float):
    """Send whole rounds until the next one would end past ``seconds``
    (at least one round).  Returns the executed steps, each paired with
    its outcome (None for a write), and the phase's wall time."""
    executed: list[tuple[Request | Write, Outcome | None]] = []
    start = time.perf_counter()
    done = 0
    for steps in workload.rounds():
        for step in steps:
            if isinstance(step, Write):
                write_file(inputs / step.name, step.content)
                executed.append((step, None))
            else:
                executed.append((step, client.get(step.path())))
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > seconds:
            return executed, elapsed
