"""Daemon settings must be finite.

NaN passes every ``<= 0`` check and +inf most of them.  Accepted, they
broke the daemon at run time: socket timeouts raise in every handler,
requests without a deadline answer 400, shedding and task timeouts
never fire and the watcher spins.  So the config refuses them, and the
CLI exits 1 before a daemon boots.
"""

import io
import math

import pytest

import repro.serve
from repro.cli import main
from repro.errors import AvedError
from repro.parallel.executor import ParallelPolicy
from repro.serve.config import ServeConfig

#: A valid watching config, so the watch fields are checked where
#: they are used.
WATCHED = dict(data_dir="state", watch_telemetry=("stream.jsonl",),
               watch_tier="application", watch_load=800.0,
               watch_downtime_minutes=100.0, watch_paper=True)

SERVE_FIELDS = ("wait_budget", "initial_service_estimate",
                "default_deadline", "max_deadline", "task_timeout",
                "drain_grace", "io_timeout", "watch_load",
                "watch_downtime_minutes", "watch_interval")


def serve_config(field, value):
    return ServeConfig(**dict(WATCHED, **{field: value}))


def parallel_policy(field, value):
    return ParallelPolicy(**{field: value})


CASES = [pytest.param(serve_config, field, id="ServeConfig.%s" % field)
         for field in SERVE_FIELDS]
CASES.append(pytest.param(parallel_policy, "task_timeout",
                          id="ParallelPolicy.task_timeout"))


@pytest.mark.parametrize("value", [math.nan, math.inf],
                         ids=["nan", "inf"])
@pytest.mark.parametrize("build, field", CASES)
def test_non_finite_setting_is_refused(build, field, value):
    with pytest.raises(AvedError, match=field):
        build(field, value)


@pytest.mark.parametrize("argv", [
    ["serve", "--data-dir", "{d}", "--io-timeout", "nan"],
    ["serve", "--data-dir", "{d}", "--default-deadline", "nan"],
    ["serve", "--data-dir", "{d}", "--wait-budget", "inf"],
    ["map", "serve", "--map", "{d}/map.json", "--data-dir", "{d}",
     "--io-timeout", "inf"],
    ["design", "--paper-ecommerce", "--app-tier-only", "--load", "1000",
     "--downtime", "100m", "--jobs", "2", "--task-timeout", "nan"],
], ids=["serve-io-timeout", "serve-default-deadline",
        "serve-wait-budget", "map-serve-io-timeout",
        "design-task-timeout"])
def test_cli_exits_1_with_the_message(tmp_path, monkeypatch, argv):
    def refuse_to_boot(config):
        raise AssertionError("daemon booted with %r" % (config,))

    monkeypatch.setattr(repro.serve, "DesignDaemon", refuse_to_boot)
    out = io.StringIO()
    code = main([arg.format(d=tmp_path) for arg in argv], out=out)
    assert code == 1
    assert "finite" in out.getvalue()
