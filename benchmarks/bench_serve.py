"""Design-service throughput and overload behavior.

Three measurements against an in-process :class:`DesignService` on
the loadgen's tiny model (markov engine, fsync off):

* **throughput** -- accepted jobs designed per second end to end
  (journal append, worker dispatch, full Aved design, terminal
  journal line), at 1 and 2 workers;
* **shed latency** -- how fast the admission path refuses work once
  the queue is full (the 429 path must stay cheap under a storm);
* **drain time** -- SIGTERM-equivalent graceful drain with a running
  search (cancel, checkpoint, requeue, flush).

The serve layer's promise is operational, not numerical, so the
assertions are about behavior (everything accepted completes; a
drain parks the running job) with generous wall-clock bounds.
"""

import time

from repro.serve.config import ServeConfig
from repro.serve.loadgen import tiny_specs
from repro.serve.service import DesignService

from .conftest import write_bench_json, write_report

JOBS = 24
SMOKE_JOBS = 6
SHED_PROBES = 2000
SMOKE_SHED_PROBES = 200


def make_service(tmp_path, name, **overrides):
    defaults = dict(
        data_dir=str(tmp_path / name), workers=1, queue_limit=4096,
        wait_budget=1e9, fsync=False,
        allow_test_faults=True, drain_grace=30.0)
    defaults.update(overrides)
    return DesignService(ServeConfig(**defaults))


def payload():
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


def measure_throughput(tmp_path, workers, jobs):
    service = make_service(tmp_path, "throughput-%d" % workers,
                           workers=workers)
    body = payload()
    try:
        service.start()
        started = time.perf_counter()
        accepted = []
        for _ in range(jobs):
            job, shed = service.submit(dict(body))
            assert shed is None
            accepted.append(job)
        for job in accepted:
            finished = service.wait(job.id, timeout=300.0)
            assert finished.state == "completed", finished.to_dict()
        elapsed = time.perf_counter() - started
    finally:
        service.drain(grace=30.0)
    return jobs / elapsed, elapsed


def measure_shed_latency(tmp_path, probes):
    # One queued job fills the queue; every probe after that takes
    # the pure admission-refusal path.
    service = make_service(tmp_path, "shed", queue_limit=1)
    body = payload()
    job, shed = service.submit(dict(body))    # workers never started
    assert job is not None and shed is None
    started = time.perf_counter()
    for _ in range(probes):
        job, shed = service.submit(dict(body))
        assert job is None and shed.reason == "queue-full"
    elapsed = time.perf_counter() - started
    service.drain(grace=5.0)
    return elapsed / probes


def measure_drain(tmp_path):
    service = make_service(tmp_path, "drain")
    body = payload()
    body["test_fault"] = {"delay_seconds": 30}
    service.start()
    job, _ = service.submit(body)
    deadline = time.monotonic() + 15.0
    while (service.get(job.id).state != "running"
           and time.monotonic() < deadline):
        time.sleep(0.01)
    started = time.perf_counter()
    clean = service.drain()
    elapsed = time.perf_counter() - started
    assert clean
    assert service.get(job.id).state == "queued"    # parked, not lost
    return elapsed


def test_bench_serve(tmp_path, smoke):
    jobs = SMOKE_JOBS if smoke else JOBS
    probes = SMOKE_SHED_PROBES if smoke else SHED_PROBES
    rate_1, elapsed_1 = measure_throughput(tmp_path, 1, jobs)
    rate_2, elapsed_2 = measure_throughput(tmp_path, 2, jobs)
    shed_seconds = measure_shed_latency(tmp_path, probes)
    drain_seconds = measure_drain(tmp_path)

    lines = [
        "design service on the tiny model (markov, fsync off)",
        "",
        "throughput, 1 worker : %6.1f designs/s (%d jobs in %.2fs)"
        % (rate_1, jobs, elapsed_1),
        "throughput, 2 workers: %6.1f designs/s (%d jobs in %.2fs)"
        % (rate_2, jobs, elapsed_2),
        "shed latency         : %8.1f us per refused request"
        % (shed_seconds * 1e6),
        "graceful drain       : %6.3f s (running search parked)"
        % drain_seconds,
    ]
    write_report("serve.txt", "\n".join(lines))
    write_bench_json(
        "serve",
        {
            "throughput_per_s": {"workers_1": rate_1,
                                 "workers_2": rate_2},
            "shed_latency_us": shed_seconds * 1e6,
            "drain_seconds": drain_seconds,
            "jobs": jobs,
            "shed_probes": probes,
        },
        meta={"engine": "markov", "model": "tiny"},
        smoke=smoke)

    # Behavioral floor, not a performance gate: the shed path must be
    # orders of magnitude cheaper than a design, and drain must not
    # eat the whole grace budget waiting on a cancelled search.
    assert shed_seconds < 0.01
    assert drain_seconds < 10.0
