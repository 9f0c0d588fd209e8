"""Soak: the daemon as a real subprocess under overload and crashes.

Three scenarios, each against ``repro serve`` booted with
``subprocess.Popen``:

* a 3x-overload storm must shed (429) without corrupting state, and
  every *accepted* job must still complete;
* ``kill -9`` mid-job followed by a restart must finish every
  accepted job exactly once (one terminal journal line per id);
* SIGTERM must drain gracefully and exit 0.

Set ``SERVE_SOAK_SECONDS`` to scale the storm up in CI; the default
keeps the module in unit-test time.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.serve.loadgen import ClientFaultPlan, LoadPlan, run

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   os.pardir, os.pardir, "src")

#: Scale knob for CI soaks; the default is a smoke-sized run.
SOAK_SECONDS = float(os.environ.get("SERVE_SOAK_SECONDS", "0"))


def start_daemon(data_dir, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--data-dir", str(data_dir), "--port", "0", "--no-fsync",
         "--allow-test-faults"] + list(extra),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, text=True)
    endpoint_path = os.path.join(str(data_dir), "endpoint.json")
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise AssertionError(
                "daemon died during boot:\n%s" % process.stderr.read())
        try:
            with open(endpoint_path, encoding="utf-8") as handle:
                record = json.load(handle)
            # A crashed daemon leaves its stale advertisement behind;
            # only trust the file once *this* process wrote it.
            if record.get("pid") == process.pid:
                return process, record["url"]
        except (OSError, ValueError, KeyError):
            pass
        time.sleep(0.05)
    process.kill()
    raise AssertionError("daemon never advertised its endpoint")


def stop_daemon(process, expect_code=0, grace=30.0):
    process.send_signal(signal.SIGTERM)
    try:
        stdout, stderr = process.communicate(timeout=grace)
    except subprocess.TimeoutExpired:
        process.kill()
        raise AssertionError("daemon ignored SIGTERM")
    assert process.returncode == expect_code, \
        "exit %d != %d\nstdout: %s\nstderr: %s" % (
            process.returncode, expect_code, stdout, stderr)
    return stdout


def get_json(url, path):
    parts = url.split("://", 1)[1]
    host, port = parts.split(":")
    connection = http.client.HTTPConnection(host, int(port),
                                            timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def journal_events(data_dir):
    events = []
    with open(os.path.join(str(data_dir), "jobs.jsonl"),
              encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                events.append(json.loads(line))
    return events


@pytest.fixture
def data_dir(tmp_path):
    return tmp_path / "serve-data"


class TestOverloadBurst:
    def test_storm_sheds_and_accepted_jobs_complete(self, data_dir):
        # Capacity: 1 worker + 2 queue slots.  The storm is 3x that.
        process, url = start_daemon(data_dir, "--workers", "1",
                                    "--queue-limit", "2")
        try:
            requests = 9 + int(SOAK_SECONDS * 4)
            plan = LoadPlan(requests=requests, interval=0.0,
                            storm_at=0, storm_size=requests,
                            delay_seconds=0.4, wait_seconds=120.0,
                            seed=11)
            report = run(url, plan, ClientFaultPlan())
            assert report.sent == requests
            assert report.shed >= 1, report.to_dict()
            assert report.accepted, report.to_dict()
            assert report.client_errors == 0
            assert (len(report.accepted) + report.shed
                    == report.sent)
            # Exactly the accepted jobs reached a terminal state --
            # all completed, none lost in the storm.
            assert set(report.outcomes) == set(report.accepted)
            assert set(report.outcomes.values()) == {"completed"}

            status, health = get_json(url, "/healthz")
            assert status == 200
            assert health["status"] == "ok"
            assert health["jobs"].get("completed") \
                == len(report.accepted)
            status, metrics = get_json(url, "/metricz")
            assert metrics["counters"]["serve.shed"] == report.shed
        finally:
            stdout = stop_daemon(process)
        assert "drained; exiting 0" in stdout


class TestCrashRecovery:
    def test_kill9_then_restart_is_exactly_once(self, data_dir):
        process, url = start_daemon(data_dir, "--workers", "1")
        accepted = []
        try:
            plan = LoadPlan(requests=3, interval=0.0,
                            delay_seconds=1.5, seed=5)
            report = run(url, plan, ClientFaultPlan())
            accepted = list(report.accepted)
            assert len(accepted) == 3
            # Wait until the first job is actually mid-flight.
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                _, listing = get_json(url, "/v1/jobs")
                states = {job["id"]: job["state"]
                          for job in listing["jobs"]}
                if "running" in states.values():
                    break
                time.sleep(0.05)
            assert "running" in states.values()
        finally:
            process.kill()          # SIGKILL: no drain, no journal fix
            process.wait(timeout=30)

        # The torn daemon journaled accepts (and maybe a start), but
        # no terminal events.
        events = journal_events(data_dir)
        assert {e["event"] for e in events} <= {"accepted", "started"}

        process, url = start_daemon(data_dir, "--workers", "1")
        try:
            _, metrics = get_json(url, "/metricz")
            assert metrics["counters"]["serve.recovered"] == 3
            for job_id in accepted:
                status, job = get_json(
                    url, "/v1/jobs/%s?wait=60" % job_id)
                assert status == 200
                assert job["state"] == "completed", job
            # The job that was mid-flight when the daemon died shows
            # its second attempt.
            _, listing = get_json(url, "/v1/jobs")
            assert max(job["attempts"]
                       for job in listing["jobs"]) == 2
        finally:
            stop_daemon(process)

        # Exactly-once: one terminal journal line per accepted id.
        terminal = {}
        for event in journal_events(data_dir):
            if event["event"] in ("completed", "failed", "cancelled"):
                terminal[event["id"]] = \
                    terminal.get(event["id"], 0) + 1
        assert terminal == {job_id: 1 for job_id in accepted}


class TestGracefulDrain:
    def test_sigterm_drains_and_exits_zero(self, data_dir):
        process, url = start_daemon(data_dir)
        status, body = get_json(url, "/readyz")
        assert status == 200 and body["ready"] is True
        stdout = stop_daemon(process)
        assert "drained; exiting 0" in stdout
        # The endpoint advertisement is withdrawn on the way out.
        assert not os.path.exists(
            os.path.join(str(data_dir), "endpoint.json"))

    def test_sigterm_requeues_running_job(self, data_dir):
        process, url = start_daemon(data_dir, "--workers", "1")
        try:
            plan = LoadPlan(requests=1, delay_seconds=30.0, seed=3)
            report = run(url, plan, ClientFaultPlan())
            job_id = report.accepted[0]
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                _, job = get_json(url, "/v1/jobs/%s" % job_id)
                if job["state"] == "running":
                    break
                time.sleep(0.05)
            assert job["state"] == "running"
        finally:
            stdout = stop_daemon(process)
        assert "drained; exiting 0" in stdout
        # The running search was parked, not lost: it replays queued.
        events = journal_events(data_dir)
        assert any(event["event"] == "requeued" for event in events)
