"""Run one workload of the benchmark once and print its metrics.

    python3 perfbench/run.py --workload design --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it measures the program under
``src/`` there, in fresh processes, and exits non-zero without a result
when there is none.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` makes a separate traced run and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds diagnostics (host, versions, noise probes, failures).
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional

import serve_client
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "cli_worker.py")
RUN_DIR = os.path.join(ROOT, ".bench_run")

#: Fresh starts per untraced run; ``setup_s`` is their median.
SETUP_STARTS = 5
#: Seconds a child may take beyond the window before it is killed.
CHILD_GRACE = 60.0
PROBE_ITERATIONS = 1_000_000
CYCLE_RESAMPLES = 2000

END_TO_END = (("setup_s", "s"), ("throughput", "1/s"),
              ("latency_s.p50", "s"), ("latency_s.p90", "s"),
              ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("import.self_s", "s"), ("op.wall_s", "s"),
    ("unattributed.self_s", "s"),
    ("spec.calls", "count"), ("spec.self_s", "s"),
    ("lint.calls", "count"), ("lint.self_s", "s"),
    ("prune.certificates", "count"), ("prune.self_s", "s"),
    ("prune.probes", "count"), ("prune.skipped", "count"),
    ("prune.skipped_per_probe", "ratio"),
    ("search.candidates", "count"), ("search.cost_pruned", "count"),
    ("search.job_evals", "count"), ("search.solves_per_candidate", "ratio"),
    ("search.self_s", "s"),
    ("evaluation.tier_model.calls", "count"),
    ("evaluation.tier_model.self_s", "s"),
    ("evaluation.tier_cost.calls", "count"),
    ("evaluation.tier_cost.self_s", "s"),
    ("evaluation.job_time.calls", "count"),
    ("evaluation.job_time.self_s", "s"),
    ("markov.calls", "count"), ("markov.modes", "count"),
    ("markov.chain_states", "count"), ("markov.self_s", "s"),
    ("lapack.calls", "count"), ("lapack.mean_n", "rows"),
    ("lapack.max_n", "rows"), ("lapack.self_s", "s"),
    ("batch.wavefronts", "count"), ("batch.members", "count"),
    ("batch.lapack_calls", "count"), ("batch.self_s", "s"),
    ("cache.gets", "count"), ("cache.hits", "count"), ("cache.self_s", "s"),
    ("combine.calls", "count"), ("combine.self_s", "s"),
    ("serve.submit_s", "s"), ("serve.queue_wait_s", "s"),
    ("serve.run_s", "s"), ("serve.journal_s", "s"),
    ("serve.result_s", "s"), ("serve.shed", "count"),
    ("serve.failed", "count"),
    ("fallback.calls", "count"), ("fallback.degraded", "count"),
    ("fallback.self_s", "s"),
    ("checkpoint.saves", "count"), ("checkpoint.self_s", "s"),
    ("parallel.calls", "count"), ("parallel.self_s", "s"),
    ("io.fsync_calls", "count"), ("io.fsync_s", "s"),
    ("serialize.self_s", "s"),
    ("gc.collections", "count"), ("gc.pause_s", "s"),
    ("host.cpu_probe_rate", "1/s"), ("trace.overhead", "ratio"),
    ("trace.absent_layers", "count"),
)


class Run:
    """What one benchmark run attempted, failed and measured."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 run_dir: str):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.run_dir = run_dir
        self.attempted = 0
        self.failures: List[str] = []
        self.diagnostics: Dict = {}

    def account(self, ops: List) -> None:
        """Count operations; each with a failure reason also fails.
        A worker or daemon exiting non-zero fails without being an
        operation of its own."""
        for reason in ops:
            self.attempted += 1
            if reason is not None:
                self.failures.append(reason)


def child_env() -> Dict[str, str]:
    """The environment of every process the benchmark starts: the
    caller's, minus ``REPRO_*``, with ``src`` on the import path."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(workloads.FORBIDDEN_ENV_PREFIX)}
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def cpu_probe_rate() -> float:
    """Iterations per second of a fixed pure-Python loop (host noise)."""
    start = time.perf_counter()
    total = 0
    for index in range(PROBE_ITERATIONS):
        total += index * index % 7
    return PROBE_ITERATIONS / (time.perf_counter() - start)


def host_ticks() -> Optional[List[int]]:
    """The host's aggregate CPU tick counters (Linux ``/proc/stat``)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return [int(field) for field in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: Optional[List[int]],
                after: Optional[List[int]]) -> Optional[float]:
    """Share of CPU time the hypervisor gave to others (steal), in %."""
    if not before or not after or len(before) < 8:
        return None
    delta = [late - early for early, late in zip(before, after)]
    return 100.0 * delta[7] / sum(delta) if sum(delta) else None


# ----------------------------------------------------------------------
# design / job: fresh CLI processes
# ----------------------------------------------------------------------

def spawn_worker(run: Run, measure: bool,
                 trace_out: Optional[str] = None) -> Dict:
    """One fresh worker: set-up time, warm-up op, and window results."""
    spawned = time.monotonic()
    argv = [sys.executable, WORKER, run.workload, "--seed", str(run.seed),
            "--seconds", repr(run.seconds), "--spawned-at", repr(spawned)]
    if measure:
        argv.append("--measure")
    if trace_out:
        argv += ["--trace-out", trace_out]
    log_path = os.path.join(run.run_dir, "worker-%d.log" % len(
        os.listdir(run.run_dir)))
    with open(log_path, "wb") as log:
        process = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                   stdin=subprocess.DEVNULL,
                                   stdout=subprocess.PIPE, stderr=log)
    watchdog = threading.Timer(run.seconds + CHILD_GRACE, process.kill)
    watchdog.start()
    try:
        ready_line = process.stdout.readline()
        ready_at = time.monotonic()
        done_line = process.stdout.readline() if measure else b""
        process.stdout.read()
        _, raw, usage = os.wait4(process.pid, 0)
        process.returncode = os.waitstatus_to_exitcode(raw)
    finally:
        watchdog.cancel()
        process.stdout.close()
        if process.returncode is None:
            process.kill()
            process.wait()
    if not ready_line or (measure and not done_line):
        with open(log_path, "rb") as handle:
            tail = handle.read()[-2000:].decode("utf-8", "replace")
        raise serve_client.BenchError(
            "worker exited %s before answering:\n%s"
            % (process.returncode, tail))
    ready = json.loads(ready_line)
    result = {"setup_s": ready_at - spawned, "warmup": ready["warmup"],
              "import_s": ready["import_s"], "maxrss_kb": usage.ru_maxrss,
              "done": json.loads(done_line) if done_line else None}
    run.account([ready["warmup"][5]])
    if process.returncode != 0:
        run.failures.append("worker exit %d" % process.returncode)
    if result["done"] is not None:
        run.account([op[5] for op in result["done"]["ops"]])
    return result


def mix_statistics(ops: List[list], per_cycle: bool, seed: int) -> Dict:
    """Throughput and latency over a worker's window, request mix held
    fixed.

    Each request type weighs the same however many times it ran, so
    where the window cuts the last cycle does not move the numbers.
    Throughput is the rate of a closed loop over one of each type, each
    taking its median latency.  The latency percentiles (p90
    nearest-rank) are over the per-type medians or, with
    ``per_cycle``, over whole cycles: ``CYCLE_RESAMPLES`` cycles drawn
    (seeded) from each type's own latencies and summed.  Failed
    operations stay in the samples.
    """
    by_key: Dict[str, List[float]] = {}
    for op in ops:
        by_key.setdefault(op[2], []).append(op[4] - op[3])
    medians = [statistics.median(times) for times in by_key.values()]
    if per_cycle:
        rng = random.Random(seed)
        pools = list(by_key.values())
        latencies = sorted(sum(rng.choice(pool) for pool in pools)
                           for _ in range(CYCLE_RESAMPLES))
    else:
        latencies = sorted(medians)
    return {"throughput": len(medians) / sum(medians),
            "latency_s.p50": statistics.median(latencies),
            "latency_s.p90": latencies[math.ceil(0.9 * len(latencies)) - 1]}


def cli_window(run: Run, worker: Dict) -> Dict:
    ops = worker["done"]["ops"]
    run.diagnostics.update(
        samples=len(ops), cycles=len({op[1] for op in ops}),
        gc_collections=worker["done"]["gc_collections"])
    # A job request's latency spans two orders of magnitude by design;
    # its unit of latency is the whole Fig. 7 sweep.
    return dict(mix_statistics(ops, run.workload == "job", run.seed),
                ops=ops)


def complete_cycles(run: Run, ops: List[list]) -> List[list]:
    """The ops of every complete request cycle, or all if none is, so
    per-operation counts do not depend on where the window ended."""
    cycle_len = len(workloads.cycle_keys(run.workload))
    sizes: Dict[int, int] = {}
    for op in ops:
        sizes[op[1]] = sizes.get(op[1], 0) + 1
    complete = [op for op in ops if sizes[op[1]] == cycle_len]
    return complete or ops


def cli_run(run: Run, trace: bool) -> Dict[str, float]:
    if not trace:
        setups = [spawn_worker(run, measure=False)["setup_s"]
                  for _ in range(SETUP_STARTS - 1)]
        worker = spawn_worker(run, measure=True)
        setups.append(worker["setup_s"])
        window = cli_window(run, worker)
        run.diagnostics["setup_starts"] = setups
        return end_to_end(setups, window, worker["maxrss_kb"])
    untraced = cli_window(run, spawn_worker(run, measure=True))
    trace_path = os.path.join(run.run_dir, "trace.json")
    worker = spawn_worker(run, measure=True, trace_out=trace_path)
    window = cli_window(run, worker)
    record = load_trace(trace_path)
    metrics = tracing.layer_metrics(
        record, [op[0] for op in complete_cycles(run, window["ops"])])
    metrics["import.self_s"] = record["import_s"]
    metrics["trace.overhead"] = (window["throughput"]
                                 / untraced["throughput"])
    note_absent(run, metrics, record)
    return metrics


def end_to_end(setups: List[float], window: Dict,
               maxrss_kb: int) -> Dict[str, float]:
    return {"setup_s": statistics.median(setups),
            "throughput": window["throughput"],
            "latency_s.p50": window["latency_s.p50"],
            "latency_s.p90": window["latency_s.p90"],
            "peak_rss_mb": maxrss_kb / 1024.0}


def load_trace(path: str) -> Dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise serve_client.BenchError("the traced process left no trace: "
                                      "%s" % exc) from exc


def note_absent(run: Run, metrics: Dict[str, float], record: Dict) -> None:
    run.diagnostics["absent_layers"] = record.get("absent", [])
    run.diagnostics["missing_names"] = record.get("missing", [])
    metrics["trace.absent_layers"] = float(len(record.get("absent", [])))


# ----------------------------------------------------------------------
# serve: the daemon plus a two-connection client
# ----------------------------------------------------------------------

def serve_start(run: Run, specs, expected: Dict,
                trace_out: Optional[str] = None):
    """A booted, warmed-up daemon and its set-up time."""
    daemon = serve_client.Daemon(ROOT, child_env(), run.run_dir,
                                 trace_out=trace_out)
    try:
        warm = serve_client.warm_up(daemon, specs, expected)
    except BaseException:
        daemon.stop()
        daemon.remove()
        raise
    run.account([warm["reason"]])
    return daemon, warm["setup_s"]


def serve_stop(run: Run, daemon: serve_client.Daemon) -> None:
    code = daemon.stop()
    if code != 0:
        run.failures.append("daemon drain exit %d: %s"
                            % (code, daemon.log_tail()))


def serve_window(run: Run, daemon: serve_client.Daemon, specs,
                 expected: Dict) -> Dict:
    try:
        ops, start, deadline = serve_client.closed_loop(
            daemon, run.seed, run.seconds, specs, expected)
    finally:
        serve_stop(run, daemon)
    run.account([op["reason"] for op in ops])
    if not ops:
        raise serve_client.BenchError("no job was sent")
    # Throughput counts answered jobs that ended inside the window (in
    # a window shorter than one job, every answered job); a failed job
    # stays in the latency samples.
    done = [op for op in ops if op["reason"] is None]
    ends = sorted(op["end"] for op in done if op["end"] <= deadline) \
        or sorted(op["end"] for op in done)
    latencies = sorted(op["end"] - op["start"] for op in ops)
    run.diagnostics.update(samples=len(ops))
    return {"throughput": len(ends) / (ends[-1] - start) if ends else 0.0,
            "latency_s.p50": statistics.median(latencies),
            "latency_s.p90": latencies[math.ceil(0.9 * len(latencies)) - 1],
            "ops": ops}


def serve_run(run: Run, trace: bool) -> Dict[str, float]:
    expected = workloads.load_expected()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    specs = workloads.app_tier_specs()
    if not trace:
        setups = []
        for _ in range(SETUP_STARTS - 1):
            daemon, setup_s = serve_start(run, specs, expected)
            setups.append(setup_s)
            serve_stop(run, daemon)
            daemon.remove()
        daemon, setup_s = serve_start(run, specs, expected)
        setups.append(setup_s)
        try:
            window = serve_window(run, daemon, specs, expected)
        finally:
            daemon.remove()
        run.diagnostics["setup_starts"] = setups
        return end_to_end(setups, window, daemon.maxrss_kb)
    daemon, _ = serve_start(run, specs, expected)
    try:
        untraced = serve_window(run, daemon, specs, expected)
    finally:
        daemon.remove()
    trace_path = os.path.join(run.run_dir, "trace.json")
    daemon, _ = serve_start(run, specs, expected, trace_out=trace_path)
    try:
        window = serve_window(run, daemon, specs, expected)
    finally:
        daemon.remove()
    return serve_layers(run, load_trace(trace_path), window, untraced)


def serve_layers(run: Run, record: Dict, window: Dict,
                 untraced: Dict) -> Dict[str, float]:
    """Join client and daemon spans by job id, then aggregate."""
    ops = [op for op in window["ops"] if op["id"] is not None]
    roots = [[index, tracing.ROOT, op["start"], op["end"], None, op["id"],
              None] for index, op in enumerate(ops, 1)]
    merged = tracing.merge({"spans": roots}, record)
    metrics = tracing.layer_metrics(merged, [op["id"] for op in ops])
    n = max(len(window["ops"]), 1)
    metrics.update({
        "import.self_s": record["import_s"],
        "serve.submit_s": sum(op["submitted"] - op["start"]
                              for op in window["ops"]) / n,
        "serve.shed": sum(op["shed"] for op in window["ops"]) / n,
        "serve.failed": sum(op["reason"] is not None
                            for op in window["ops"]) / n,
        "trace.overhead": window["throughput"] / untraced["throughput"],
    })
    note_absent(run, metrics, record)
    return metrics


# ----------------------------------------------------------------------

def environment() -> Dict:
    info: Dict = {"nproc": os.cpu_count(),
                  "python": sys.version.split()[0],
                  "threads_env": {key: value for key, value
                                  in sorted(os.environ.items())
                                  if key.endswith("_NUM_THREADS")}}
    try:
        import numpy
        info["numpy"] = numpy.__version__
        config = numpy.show_config(mode="dicts")
        dependencies = config.get("Build Dependencies", {})
        info["blas"] = {name: {field: dependencies.get(name, {}).get(field)
                               for field in ("name", "version",
                                             "openblas configuration")}
                        for name in ("blas", "lapack")}
    except Exception as exc:   # noqa: BLE001 - diagnostics only
        info["blas"] = "unavailable: %s" % exc
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print("perfbench: no program under %s; run it from the root of "
              "a checkout" % os.path.join(ROOT, "src", "repro"),
              file=sys.stderr)
        return 2
    os.makedirs(RUN_DIR, exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds,
              tempfile.mkdtemp(prefix="run-", dir=RUN_DIR))
    ticks = host_ticks()
    try:
        probe_before = cpu_probe_rate()
        if args.workload == "serve":
            metrics = serve_run(run, bool(args.trace))
        else:
            metrics = cli_run(run, bool(args.trace))
        probe_after = cpu_probe_rate()
    except serve_client.BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.run_dir, ignore_errors=True)
        try:
            os.rmdir(RUN_DIR)
        except OSError:
            pass
    metrics["host.cpu_probe_rate"] = (probe_before + probe_after) / 2
    names = PER_LAYER if args.trace else END_TO_END
    run.diagnostics.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        cpu_probe_rate=[probe_before, probe_after],
        host_steal_pct=steal_share(ticks, host_ticks()),
        failure_reasons=run.failures[:5], **environment())
    print(json.dumps({"diagnostics": run.diagnostics}, sort_keys=True))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": float(metrics.get(name, 0.0)),
                           "unit": unit} for name, unit in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
