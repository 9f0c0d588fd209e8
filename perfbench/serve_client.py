"""The ``serve`` workload's daemon lifecycle and closed-loop client.

The daemon starts the way users start it, ``python -m repro serve
--data-dir <fresh dir> --port 0``, with every other setting at its
default; a traced run starts it through ``serve_launcher.py`` instead.
The client holds two connections in a closed loop: each POSTs the next
job of the seeded cycle, long-polls ``GET /v1/jobs/<id>?wait=`` until
the job is terminal, checks the answer, and only then sends its next
job.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "serve_launcher.py")
CONNECTIONS = 2
POLL_WAIT_SECONDS = 30
BOOT_TIMEOUT = 60.0
DRAIN_TIMEOUT = 60.0
TERMINAL = ("completed", "failed", "cancelled")


class BenchError(RuntimeError):
    """A failure that leaves nothing to measure."""


def _call(host: str, port: int, method: str, path: str,
          body: Optional[bytes] = None) -> Tuple[int, Dict]:
    connection = http.client.HTTPConnection(host, port, timeout=120)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        data = response.read()
        return response.status, (json.loads(data) if data else {})
    finally:
        connection.close()


class Daemon:
    """One ``repro serve`` process on a fresh data dir."""

    def __init__(self, root: str, env: Dict[str, str], run_dir: str,
                 trace_out: Optional[str] = None):
        self.data_dir = tempfile.mkdtemp(prefix="serve-", dir=run_dir)
        self.spawned = time.monotonic()
        if trace_out:
            argv = [sys.executable, LAUNCHER, "--trace-out", trace_out,
                    "--spawned-at", repr(self.spawned), "--"]
        else:
            argv = [sys.executable, "-m", "repro"]
        argv += ["serve", "--data-dir", self.data_dir, "--port", "0"]
        self.log_path = self.data_dir + ".log"
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT)
        self.host, self.port = "", 0
        self.exit_code: Optional[int] = None
        self.maxrss_kb = 0

    def log_tail(self) -> str:
        try:
            with open(self.log_path, "rb") as handle:
                return handle.read()[-2000:].decode("utf-8", "replace")
        except OSError:
            return ""

    def wait_ready(self) -> None:
        """Until ``endpoint.json`` names this pid and /readyz is 200."""
        endpoint = os.path.join(self.data_dir, "endpoint.json")
        deadline = self.spawned + BOOT_TIMEOUT
        while True:
            if self.process.poll() is not None:
                raise BenchError("daemon exited %s during boot:\n%s"
                                 % (self.process.returncode,
                                    self.log_tail()))
            if time.monotonic() > deadline:
                raise BenchError("daemon not ready after %gs"
                                 % BOOT_TIMEOUT)
            try:
                with open(endpoint, encoding="utf-8") as handle:
                    record = json.load(handle)
            except (OSError, ValueError):
                time.sleep(0.005)
                continue
            if record.get("pid") == self.process.pid:
                self.host, self.port = record["host"], record["port"]
                break
            time.sleep(0.005)
        while True:
            try:
                status, _ = _call(self.host, self.port, "GET", "/readyz")
            except OSError:
                status = 0
            if status == 200:
                return
            if time.monotonic() > deadline:
                raise BenchError("/readyz not 200 after %gs"
                                 % BOOT_TIMEOUT)
            time.sleep(0.005)

    def stop(self) -> int:
        """SIGTERM, wait for the drain, reap; returns the exit code."""
        if self.exit_code is not None:
            return self.exit_code
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + DRAIN_TIMEOUT
        status = None
        while status is None:
            pid, raw, usage = os.wait4(self.process.pid, os.WNOHANG)
            if pid:
                status = os.waitstatus_to_exitcode(raw)
                self.maxrss_kb = usage.ru_maxrss
            elif time.monotonic() > deadline:
                self.process.kill()
            else:
                time.sleep(0.01)
        self.process.returncode = self.exit_code = status
        return status

    def remove(self) -> None:
        shutil.rmtree(self.data_dir, ignore_errors=True)
        try:
            os.remove(self.log_path)
        except OSError:
            pass


def run_job(daemon: Daemon, key: str, body: bytes,
            expected: Dict) -> Dict:
    """One closed-loop operation: POST, long-poll, check."""
    op: Dict = {"key": key, "id": None, "shed": False}
    op["start"] = time.monotonic()
    try:
        status, reply = _call(daemon.host, daemon.port, "POST",
                              "/v1/jobs", body)
        op["submitted"] = time.monotonic()
        if status == 429:
            op["shed"] = True
            op["reason"] = "shed (429)"
        elif status != 202:
            op["reason"] = "POST %d: %s" % (status, reply.get("error"))
        else:
            op["id"] = reply["id"]
            path = "/v1/jobs/%s?wait=%d" % (op["id"], POLL_WAIT_SECONDS)
            while True:
                status, job = _call(daemon.host, daemon.port, "GET", path)
                if status != 200 or job.get("state") in TERMINAL:
                    break
            if status != 200:
                op["reason"] = "GET %d" % status
            else:
                op["reason"] = workloads.check_serve_answer(
                    expected.get(key), job)
    except (OSError, ValueError, http.client.HTTPException) as exc:
        op["reason"] = "%s: %s" % (type(exc).__name__, exc)
    op["end"] = time.monotonic()
    op.setdefault("submitted", op["end"])
    return op


def closed_loop(daemon: Daemon, seed: int, seconds: float,
                specs: Tuple[str, str], expected: Dict) -> Tuple[
                    List[Dict], float, float]:
    """``CONNECTIONS`` clients sharing one seeded request sequence."""
    bodies = {key: json.dumps(workloads.serve_payload(key, specs))
              .encode("utf-8")
              for key in workloads.cycle_keys("serve")}
    sequence = workloads.schedule("serve", seed)
    lock = threading.Lock()
    ops: List[Dict] = []
    start = time.monotonic()
    deadline = start + seconds

    def client() -> None:
        while time.monotonic() < deadline:
            with lock:
                _, key = next(sequence)
            op = run_job(daemon, key, bodies[key], expected)
            with lock:
                ops.append(op)

    threads = [threading.Thread(target=client, name="client-%d" % index)
               for index in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return ops, start, deadline


def warm_up(daemon: Daemon, specs: Tuple[str, str],
            expected: Dict) -> Dict:
    """Boot to the first completed app-tier job: the set-up time."""
    daemon.wait_ready()
    key = workloads.warmup_key("serve")
    body = json.dumps(workloads.serve_payload(key, specs)).encode("utf-8")
    op = run_job(daemon, key, body, expected)
    op["setup_s"] = op["end"] - daemon.spawned
    return op
