"""Shared fixtures for the serve suite.

Everything runs against the tiny model from
:func:`repro.serve.loadgen.tiny_specs` on the daemon's default engine
with ``fsync`` off -- fast enough that full submit-to-completion
round trips are unit-test material.  ``test_soak.py`` is the only module
that boots real subprocesses.
"""

import time

import pytest

from repro.serve.config import ServeConfig
from repro.serve.httpd import DesignDaemon
from repro.serve.loadgen import tiny_specs
from repro.serve.service import DesignService


@pytest.fixture(scope="session")
def tiny_payload():
    """A valid POST /v1/jobs body (fresh copy per use via dict())."""
    infrastructure, service = tiny_specs()
    return {
        "infrastructure": infrastructure,
        "service": service,
        "requirements": {
            "kind": "service",
            "throughput": 150.0,
            "max_annual_downtime_minutes": 1000.0,
        },
    }


def make_config(tmp_path, **overrides):
    defaults = dict(
        data_dir=str(tmp_path / "data"),
        workers=1,
        queue_limit=4,
        fsync=False,
        allow_test_faults=True,
        wait_budget=60.0,
        drain_grace=15.0,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


@pytest.fixture
def make_service(tmp_path):
    """Factory for DesignService instances; drains them on teardown."""
    services = []

    def factory(**overrides):
        service = DesignService(make_config(tmp_path, **overrides))
        services.append(service)
        return service

    yield factory
    for service in services:
        service.drain(grace=10.0)


@pytest.fixture
def make_daemon(tmp_path):
    """Factory for started in-process daemons; shut down on teardown."""
    daemons = []

    def factory(**overrides):
        daemon = DesignDaemon(make_config(tmp_path, **overrides))
        daemon.start()
        daemons.append(daemon)
        return daemon

    yield factory
    for daemon in daemons:
        daemon.shutdown()


def wait_until(predicate, timeout=10.0, interval=0.02):
    """Poll until ``predicate()`` is truthy; returns its last value."""
    deadline = time.monotonic() + timeout
    value = predicate()
    while not value and time.monotonic() < deadline:
        time.sleep(interval)
        value = predicate()
    return value
