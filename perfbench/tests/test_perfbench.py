"""Tests of the benchmark itself (not of the program it measures).

    python3 -m pytest perfbench/tests -q

The smoke runs start real workers and daemons on tiny windows, so the
whole file takes a minute or two.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import make_expected  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(workload: str, trace: int, cwd: str = ROOT,
              script: str = os.path.join(BENCH, "run.py")):
    process = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return process


def result_of(process) -> dict:
    assert process.returncode == 0, process.stderr
    return json.loads(process.stdout.strip().splitlines()[-1])


# -- the contract ----------------------------------------------------------

def test_metric_lists_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] \
        == list(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    result = result_of(run_bench(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= run.SETUP_STARTS
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == expected
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smoke_run_prints_every_per_layer_metric(workload):
    result = result_of(run_bench(workload, trace=1))
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {name: metric["unit"] for name, metric in metrics.items()} \
        == expected
    value = {name: metric["value"] for name, metric in metrics.items()}
    assert value["trace.absent_layers"] == 0
    assert value["batch.wavefronts"] == value["cache.gets"] == 0
    assert value["markov.calls"] > 0 and value["search.candidates"] > 0
    accounted = sum(value[name] for name in tracing.SELF_METRICS.values())
    assert accounted == pytest.approx(value["op.wall_s"], rel=1e-6)
    if workload == "serve":
        assert value["serve.run_s"] > 0 and value["lint.calls"] == 0
        assert value["fallback.calls"] > 0 and value["io.fsync_calls"] > 0
    else:
        assert value["lint.calls"] == 1 and value["serve.run_s"] == 0


def test_without_the_program_it_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    process = run_bench("design", 0, cwd=str(tmp_path),
                        script=str(tmp_path / "perfbench" / "run.py"))
    assert process.returncode != 0
    assert '"correct"' not in process.stdout


def test_wrong_expected_answer_is_a_failed_operation(tmp_path):
    """A wrong answer counts as failed; the run still completes."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    path = tmp_path / "perfbench" / "expected.json"
    record = json.loads(path.read_text())
    record["answers"][workloads.warmup_key("serve")]["annual_cost"] += 1
    path.write_text(json.dumps(record))
    result = result_of(run_bench(
        "serve", 0, cwd=str(tmp_path),
        script=str(tmp_path / "perfbench" / "run.py")))
    assert result["correct"] is False
    assert result["failed"] == run.SETUP_STARTS   # every warm-up
    assert result["attempted"] > result["failed"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


# -- requests and answers ---------------------------------------------------

def test_requests_stay_on_the_default_surface(monkeypatch):
    keys = [key for workload in ("design", "job")
            for key in workloads.cycle_keys(workload)
            + [workloads.warmup_key(workload)]]
    for key in keys:
        assert workloads.forbidden(workloads.cli_argv(key)) == []
    assert workloads.forbidden(["--batch", "--engine=markov",
                                "--test-fault-rate"]) \
        == ["--batch", "--engine=markov", "--test-fault-rate"]
    monkeypatch.setenv("REPRO_BATCH", "1")
    assert not any(name.startswith("REPRO_") for name in run.child_env())


def test_schedule_is_fixed_by_the_seed():
    def first(seed, n=40):
        sequence = workloads.schedule("design", seed)
        return [next(sequence) for _ in range(n)]
    assert first(3) == first(3)
    assert first(3) != first(4)
    cycle = [key for index, key in first(3, 12)]
    assert sorted(cycle) == sorted(workloads.cycle_keys("design"))


def test_expected_answers_cover_every_request_and_match_goldens():
    answers = workloads.load_expected()
    keys = {key for key, _ in make_expected.requests()}
    assert keys == set(answers)
    assert make_expected.golden_mismatches(answers) == []


def test_answer_check_tolerates_round_off_but_not_a_new_design():
    answer = workloads.load_expected()["load=1000,downtime=100m"]
    assert workloads.check_answer(answer, dict(answer)) is None
    nudged = dict(answer, downtime_minutes=answer["downtime_minutes"]
                  * (1 + 1e-9))
    assert workloads.check_answer(answer, nudged) is None
    moved = dict(answer, downtime_minutes=answer["downtime_minutes"] * 1.01)
    assert "downtime" in workloads.check_answer(answer, moved)
    costly = dict(answer, annual_cost=answer["annual_cost"] + 1)
    assert "annual cost" in workloads.check_answer(answer, costly)
    assert workloads.check_cli_answer(answer, 2, "infeasible: x") \
        == "exit 2: infeasible: x"
    job = {"state": "completed",
           "result": {"degraded": True, "evaluation": answer}}
    assert workloads.check_serve_answer(answer, job) == "degraded answer"


# -- tracing ---------------------------------------------------------------

def test_spans_form_one_tree_per_operation(tmp_path):
    import repro.cli as cli
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS)
    try:
        for op in ("op-1", "op-2"):
            with tracer.operation(op):
                code = cli.main(workloads.cli_argv(
                    workloads.warmup_key("design")), out=io.StringIO())
            assert code == 0
    finally:
        tracer.dump(str(tmp_path / "trace.json"))
    record = json.loads((tmp_path / "trace.json").read_text())
    trees = tracing.operation_trees(record["spans"])
    assert set(trees) == {"op-1", "op-2"}
    for op, tree in trees.items():
        root = tree["root"]
        own = [span for span in record["spans"] if span[tracing.OP] == op]
        assert set(tree["self"]) == {span[tracing.ID] for span in own}
        assert all(value >= 0 for value in tree["self"].values())
        assert sum(tree["self"].values()) == pytest.approx(
            root[tracing.END] - root[tracing.START], rel=1e-9)
        layers = {span[tracing.LAYER] for span in own}
        assert {"markov", "lapack", "search", "lint"} <= layers


def test_spans_from_two_threads_join_one_operation():
    """A span begun before a job id exists is claimed by the job, the
    way the daemon's request thread hands a job to a worker thread."""
    tracer = tracing.Tracer()
    handler = tracer.begin("spec")
    tracer.end(handler)
    tracer.claim_pending("job-1")

    def worker():
        tracer.set_op("job-1")
        span = tracer.begin("markov")
        tracer.end(span)
        tracer.set_op(None)
    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    root = [0, tracing.ROOT, handler[tracing.START] - 1.0,
            tracer.spans[-1][tracing.END] + 1.0, None, "job-1", None]
    merged = tracing.merge({"spans": [root]}, {"spans": tracer.spans})
    tree = tracing.operation_trees(merged["spans"])["job-1"]
    assert len(tree["self"]) == 3
    assert sum(tree["self"].values()) == pytest.approx(
        root[tracing.END] - root[tracing.START])


def test_a_removed_name_is_reported_absent(monkeypatch):
    from repro.batch import evaluator
    monkeypatch.delattr(evaluator.TierBatcher, "solve_tasks")
    tracer = tracing.Tracer()
    targets = tracing.TARGETS + [
        tracing.Target("gone", "repro.no_such_module", "anything")]
    tracer.install(targets)
    try:
        assert "batch" in tracer.absent and "gone" in tracer.absent
        assert "repro.batch.evaluator.TierBatcher.solve_tasks" \
            in tracer.missing
        assert "markov" not in tracer.absent
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics({"spans": [], "counts": []}, [])
    assert metrics["batch.wavefronts"] == 0
