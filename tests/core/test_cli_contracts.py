"""CLI contracts: the exit-code matrix and JSON output schemas.

``repro``'s exit codes and JSON shapes are consumed by scripts and CI
gates; these tests pin both.  Schema validation uses ``jsonschema``
when installed and skips cleanly otherwise -- the schemas themselves
live dependency-free in :mod:`repro.contracts`.
"""

import json
from io import StringIO

import pytest

from repro.cli import main
from repro.contracts import (BENCH_RECORD_SCHEMA, CACHE_STATUS_SCHEMA,
                             DESIGN_EVALUATION_SCHEMA,
                             LINT_REPORT_SCHEMA, LINT_SPACE_SCHEMA,
                             METRICS_SNAPSHOT_SCHEMA, TRACE_SCHEMA)

APP_TIER = ["--paper-ecommerce", "--app-tier-only"]


def run(argv):
    out = StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def validate(instance, schema):
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(instance=instance, schema=schema)


# ----------------------------------------------------------------------
# Exit-code matrix
# ----------------------------------------------------------------------

class TestExitCodes:
    def test_design_success_is_zero(self):
        code, output = run(["design"] + APP_TIER
                           + ["--load", "1000", "--downtime", "100m"])
        assert code == 0
        assert "rC x6" in output

    def test_design_infeasible_is_two(self):
        code, output = run(["design"] + APP_TIER
                           + ["--load", "1000", "--downtime", "1s",
                              "--max-redundancy", "1"])
        assert code == 2
        assert output.startswith("infeasible")

    def test_design_missing_requirement_is_one(self):
        code, output = run(["design"] + APP_TIER)
        assert code == 1
        assert output.startswith("error:")

    def test_design_missing_model_files_is_one(self):
        code, output = run(["design", "--load", "1000",
                            "--downtime", "100m"])
        assert code == 1
        assert "error" in output

    def test_design_unreadable_spec_is_one(self, tmp_path):
        code, output = run(
            ["design", "--infrastructure", str(tmp_path / "no.infra"),
             "--service", str(tmp_path / "no.service"),
             "--load", "1000", "--downtime", "100m"])
        assert code == 1

    def test_lint_clean_pair_is_zero(self):
        code, _ = run(["lint"] + APP_TIER)
        assert code == 0

    def test_lint_strict_escalates_warnings(self):
        code, _ = run(["lint", "--paper-ecommerce"])
        assert code == 0
        strict_code, _ = run(["lint", "--paper-ecommerce", "--strict"])
        # the paper pair has info findings only; strict still passes
        assert strict_code == 0

    def test_validate_good_pair_is_zero(self):
        code, _ = run(["validate", "--paper-ecommerce"])
        assert code == 0

    def test_profile_success_is_zero(self, monkeypatch):
        # Under an ambient warm REPRO_CACHE the engine-solve phase
        # honestly disappears (every solve is served from the store),
        # so pin the cache-off profile surface explicitly.
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        code, output = run(["profile"] + APP_TIER
                           + ["--load", "1000", "--downtime", "100m"])
        assert code == 0
        assert "phase" in output and "engine-solve" in output

    def test_profile_infeasible_is_two(self):
        code, output = run(["profile"] + APP_TIER
                           + ["--load", "1000", "--downtime", "1s",
                              "--max-redundancy", "1"])
        assert code == 2
        assert "infeasible" in output
        assert "phase" in output  # the profile still prints


# ----------------------------------------------------------------------
# JSON schema contracts
# ----------------------------------------------------------------------

class TestJsonContracts:
    def test_design_json_matches_schema(self):
        code, output = run(["design"] + APP_TIER
                           + ["--load", "1000", "--downtime", "100m",
                              "--json"])
        assert code == 0
        validate(json.loads(output), DESIGN_EVALUATION_SCHEMA)

    def test_job_design_json_matches_schema(self):
        code, output = run(
            ["design", "--paper-scientific", "--job-time", "20h",
             "--max-redundancy", "2", "--json"])
        assert code == 0
        document = json.loads(output)
        validate(document, DESIGN_EVALUATION_SCHEMA)
        assert "job_time" in document

    def test_lint_json_matches_schema(self):
        code, output = run(["lint", "--paper-ecommerce",
                            "--format", "json"])
        assert code == 0
        validate(json.loads(output), LINT_REPORT_SCHEMA)

    def test_lint_space_json_matches_schema(self):
        code, output = run(["lint", "--paper-ecommerce", "--space",
                            "--load", "1000", "--downtime", "100m",
                            "--format", "json"])
        assert code == 0
        document = json.loads(output)
        validate(document, LINT_SPACE_SCHEMA)
        assert document["space"]["structures"] > 0
        assert {d["code"] for d in document["diagnostics"]} \
            >= {"AVD500", "AVD504", "AVD505"}

    def test_metrics_out_matches_schema(self, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        code, _ = run(["design"] + APP_TIER
                      + ["--load", "1000", "--downtime", "100m",
                         "--metrics-out", str(metrics_path)])
        assert code == 0
        snapshot = json.loads(metrics_path.read_text())
        validate(snapshot, METRICS_SNAPSHOT_SCHEMA)
        assert snapshot["counters"]["search.availability_evaluations"] \
            > 0

    def test_trace_matches_schema(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        code, _ = run(["design"] + APP_TIER
                      + ["--load", "1000", "--downtime", "100m",
                         "--trace", str(trace_path)])
        assert code == 0
        document = json.loads(trace_path.read_text())
        validate(document, TRACE_SCHEMA)
        assert document["spans"][0]["name"] == "design"

    def test_trace_written_even_when_infeasible(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        code, _ = run(["design"] + APP_TIER
                      + ["--load", "1000", "--downtime", "1s",
                         "--max-redundancy", "1",
                         "--trace", str(trace_path),
                         "--metrics-out", str(metrics_path)])
        assert code == 2
        validate(json.loads(trace_path.read_text()), TRACE_SCHEMA)
        validate(json.loads(metrics_path.read_text()),
                 METRICS_SNAPSHOT_SCHEMA)

    def test_profile_bench_out_matches_schema(self, tmp_path,
                                              monkeypatch):
        # See test_profile_success_is_zero: a warm ambient cache
        # removes the engine-solve phase this test asserts on.
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        bench_path = tmp_path / "BENCH_obs.json"
        code, _ = run(["profile"] + APP_TIER
                      + ["--load", "1000", "--downtime", "100m",
                         "--bench-out", str(bench_path)])
        assert code == 0
        record = json.loads(bench_path.read_text())
        validate(record, BENCH_RECORD_SCHEMA)
        assert record["bench"] == "obs"
        phase_names = {phase["name"]
                       for phase in record["results"]["phases"]}
        assert "engine-solve" in phase_names

    def test_cache_stats_matches_schema(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        code, _ = run(["design"] + APP_TIER
                      + ["--load", "1000", "--downtime", "100m",
                         "--cache", cache_dir])
        assert code == 0
        code, output = run(["cache", "stats", cache_dir])
        assert code == 0
        document = json.loads(output)
        validate(document, CACHE_STATUS_SCHEMA)
        assert document["action"] == "stats"
        assert document["store"]["entries"] > 0

    def test_cache_verify_clean_store_is_zero(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run(["design"] + APP_TIER
            + ["--load", "1000", "--downtime", "100m",
               "--cache", cache_dir])
        code, output = run(["cache", "verify", cache_dir])
        assert code == 0
        document = json.loads(output)
        validate(document, CACHE_STATUS_SCHEMA)
        assert document["verify"]["corrupt"] == 0
        assert document["verify"]["ok"] == document["verify"]["checked"]

    def test_cache_verify_corrupt_store_is_one(self, tmp_path):
        import os
        cache_dir = str(tmp_path / "cache")
        run(["design"] + APP_TIER
            + ["--load", "1000", "--downtime", "100m",
               "--cache", cache_dir])
        objects = os.path.join(cache_dir, "objects")
        victim = None
        for directory, _, names in os.walk(objects):
            for name in names:
                if name.endswith(".json"):
                    victim = os.path.join(directory, name)
                    break
            if victim:
                break
        with open(victim, "wb") as handle:
            handle.write(b"scribbled over")
        code, output = run(["cache", "verify", cache_dir])
        assert code == 1
        document = json.loads(output)
        validate(document, CACHE_STATUS_SCHEMA)
        assert document["verify"]["corrupt"] == 1

    def test_cache_purge_empties_store(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run(["design"] + APP_TIER
            + ["--load", "1000", "--downtime", "100m",
               "--cache", cache_dir])
        code, output = run(["cache", "purge", cache_dir])
        assert code == 0
        document = json.loads(output)
        validate(document, CACHE_STATUS_SCHEMA)
        assert document["removed"] > 0
        assert document["store"]["entries"] == 0

    def test_cache_missing_dir_is_one(self, tmp_path):
        code, output = run(["cache", "stats",
                            str(tmp_path / "never-created")])
        assert code == 1
        assert "error" in output

    def test_cache_without_dir_or_env_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        code, output = run(["cache", "stats"])
        assert code == 1
        assert "error" in output

    def test_cache_env_dir_fallback(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "cache")
        run(["design"] + APP_TIER
            + ["--load", "1000", "--downtime", "100m",
               "--cache", cache_dir])
        monkeypatch.setenv("REPRO_CACHE", cache_dir)
        code, output = run(["cache", "stats"])
        assert code == 0
        validate(json.loads(output), CACHE_STATUS_SCHEMA)

    def test_design_cache_verify_without_cache_is_one(self,
                                                      monkeypatch):
        # An ambient REPRO_CACHE legitimately satisfies
        # --cache-verify; pin the no-cache-anywhere case.
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        code, output = run(["design"] + APP_TIER
                           + ["--load", "1000", "--downtime", "100m",
                              "--cache-verify"])
        assert code == 1
        assert "error" in output

    def test_file_spec_design_matches_embedded_model(self):
        """examples/specs round-trip: file specs == embedded models."""
        import os
        specs = os.path.join(os.path.dirname(__file__), "..", "..",
                             "examples", "specs")
        code_file, out_file = run(
            ["design",
             "--infrastructure", os.path.join(specs, "paper.infra"),
             "--service", os.path.join(specs, "ecommerce.service"),
             "--load", "1000", "--downtime", "100m", "--json"])
        code_paper, out_paper = run(
            ["design", "--paper-ecommerce",
             "--load", "1000", "--downtime", "100m", "--json"])
        assert code_file == code_paper == 0
        assert json.loads(out_file) == json.loads(out_paper)

    @pytest.mark.parametrize("job_time", ["2h", "20h"])
    def test_scientific_file_spec_design_matches_embedded_model(
            self, job_time):
        """The Fig. 5 spec with Table 1's mperformance files designs
        the embedded paper model's system."""
        import os
        specs = os.path.join(os.path.dirname(__file__), "..", "..",
                             "examples", "specs")
        code_file, out_file = run(
            ["design",
             "--infrastructure", os.path.join(specs, "paper.infra"),
             "--service", os.path.join(specs, "scientific.service"),
             "--perf-dir", specs, "--job-time", job_time, "--json"])
        code_paper, out_paper = run(
            ["design", "--paper-scientific", "--job-time", job_time,
             "--json"])
        assert code_file == code_paper == 0
        assert json.loads(out_file) == json.loads(out_paper)
