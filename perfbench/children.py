"""Start, watch and stop the product processes the benchmark drives."""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Set
from urllib.parse import urlsplit

#: How long a child may take to print its ready line and pass /healthz.
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 15.0


def child_env(src_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    # Fault injection must never leak into a measurement.
    for name in ("PIGEON_FAULTS", "PIGEON_FAULT_LOG"):
        env.pop(name, None)
    return env


def peak_rss_mb(pid: int) -> float:
    """The process's resident-set high-water mark (VmHWM)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM missing for pid {pid}")


def http_get(url: str, path: str, timeout: float = 10.0) -> tuple:
    parts = urlsplit(url)
    connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        connection.close()


class Children:
    """Every process the benchmark starts; all are stopped on exit.

    Use as a context manager: leaving the block by any path (return,
    exception, SIGTERM turned into SystemExit) terminates and reaps every
    child still running.
    """

    def __init__(self, env: dict) -> None:
        self.env = env
        self.running: List[subprocess.Popen] = []

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *_exc) -> None:
        for proc in list(self.running):
            self.stop(proc)

    def start(
        self,
        argv: List[str],
        stdout_path: str,
        stderr_path: str,
        cpus: Optional[Set[int]] = None,
    ) -> subprocess.Popen:
        """Start a child, optionally confined to ``cpus``."""
        pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            proc = subprocess.Popen(
                argv,
                stdout=out,
                stderr=err,
                stdin=subprocess.DEVNULL,
                env=self.env,
                preexec_fn=pin,
            )
        self.running.append(proc)
        return proc

    def run(self, argv: List[str], stdout_path: str, stderr_path: str, timeout: float) -> None:
        """Run a child to completion; raise with its stderr if it fails."""
        proc = self.start(argv, stdout_path, stderr_path)
        try:
            code = proc.wait(timeout=timeout)
        finally:
            self.stop(proc)
        if code != 0:
            raise RuntimeError(
                f"{' '.join(argv[:3])} exited {code}:\n{_tail(stderr_path)}"
            )

    def stop(self, proc: subprocess.Popen) -> None:
        """SIGTERM (the servers drain on it), then SIGKILL; always reaped."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc in self.running:
            self.running.remove(proc)


def _tail(path: str, lines: int = 20) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as handle:
            return "".join(handle.readlines()[-lines:])
    except OSError:
        return ""


@dataclass
class Server:
    proc: subprocess.Popen
    url: str
    setup_s: float


def spawn_server(
    children: Children,
    argv: List[str],
    log_prefix: str,
    healthy: Callable[[dict], bool],
    cpus: Optional[Set[int]] = None,
) -> Server:
    """Start a server on an ephemeral port; return once ``/healthz`` passes.

    ``setup_s`` runs from the spawn to the first healthy ``/healthz``.
    """
    started = time.perf_counter()
    stdout_path, stderr_path = f"{log_prefix}.out", f"{log_prefix}.err"
    proc = children.start(argv, stdout_path, stderr_path, cpus)
    deadline = started + START_TIMEOUT_S
    url: Optional[str] = None
    while True:
        if proc.poll() is not None:
            raise RuntimeError(
                f"server exited {proc.returncode} before it was ready:\n"
                f"{_tail(stderr_path)}"
            )
        if time.perf_counter() > deadline:
            children.stop(proc)
            raise RuntimeError(f"server not healthy within {START_TIMEOUT_S} s")
        if url is None:
            url = _ready_url(stdout_path)
        if url is not None:
            try:
                status, payload = http_get(url, "/healthz", timeout=2.0)
            except OSError:
                status, payload = 0, {}
            if status == 200 and healthy(payload):
                return Server(proc, url, time.perf_counter() - started)
        time.sleep(0.005)


def _ready_url(stdout_path: str) -> Optional[str]:
    with open(stdout_path, encoding="utf-8", errors="replace") as handle:
        for line in handle:
            try:
                message = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(message, dict) and message.get("ready"):
                return message["url"]
    return None
