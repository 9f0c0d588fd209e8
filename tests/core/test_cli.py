"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main, parse_fixed_settings
from repro.errors import AvedError


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestFixedSettings:
    def test_parse_single(self):
        assert parse_fixed_settings(["maintenanceA.level=bronze"]) == \
            {"maintenanceA": {"level": "bronze"}}

    def test_parse_multiple_and_numeric(self):
        fixed = parse_fixed_settings(["a.x=1", "a.y=2.5", "b.z=gold"])
        assert fixed == {"a": {"x": 1, "y": 2.5}, "b": {"z": "gold"}}

    def test_malformed_rejected(self):
        with pytest.raises(AvedError):
            parse_fixed_settings(["nodots=1"])
        with pytest.raises(AvedError):
            parse_fixed_settings(["a.b"])


class TestDesignCommand:
    def test_paper_app_tier_anchor(self):
        code, output = run(["design", "--paper-ecommerce",
                            "--app-tier-only", "--load", "1000",
                            "--downtime", "100m"])
        assert code == 0
        assert "rC x6" in output
        assert "$28,320" in output

    def test_job_design(self):
        code, output = run(["design", "--paper-scientific",
                            "--job-time", "200h",
                            "--fix", "maintenanceA.level=bronze",
                            "--fix", "maintenanceB.level=bronze"])
        assert code == 0
        assert "rH" in output
        assert "expected job time" in output

    def test_infeasible_returns_2(self):
        code, output = run(["design", "--paper-ecommerce",
                            "--app-tier-only", "--load", "1000",
                            "--downtime", "0.000001m",
                            "--max-redundancy", "1"])
        assert code == 2
        assert "infeasible" in output

    def test_missing_requirement_errors(self):
        code, output = run(["design", "--paper-ecommerce",
                            "--app-tier-only"])
        assert code == 1
        assert "error" in output

    def test_missing_model_files_errors(self):
        code, output = run(["design", "--load", "1", "--downtime", "1m"])
        assert code == 1
        assert "--infrastructure" in output

    def test_unreadable_file_errors(self):
        code, output = run(["design", "--infrastructure", "/nope.spec",
                            "--service", "/nope2.spec",
                            "--load", "1", "--downtime", "1m"])
        assert code == 1

    def test_analytic_engine_option(self):
        code, output = run(["design", "--paper-ecommerce",
                            "--app-tier-only", "--load", "400",
                            "--downtime", "1000m",
                            "--engine", "analytic"])
        assert code == 0
        assert "annual cost" in output


#: Every command that takes --engine, with its other required options.
ENGINE_COMMANDS = [
    ["design"], ["profile"], ["analyze", "--load", "1", "--downtime", "1m"],
    ["frontier", "--tier", "application", "--load", "1"],
    ["serve", "--data-dir", "d"],
    ["watch", "--tier", "application", "--load", "1", "--downtime", "1m"],
    ["map", "build", "--tier", "application", "--loads", "1",
     "--out", "m.json"],
]


class TestResilienceOptions:
    @pytest.mark.parametrize("command", ENGINE_COMMANDS,
                             ids=lambda argv: argv[0])
    def test_fallback_engine_value_is_gone(self, command):
        from repro.cli import build_parser
        parser = build_parser()
        assert parser.parse_args(command + ["--engine", "markov"])
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(command + ["--engine", "fallback"])
        assert exit_info.value.code == 2

    def test_seed_reaches_simulation_engine(self):
        from repro.cli import build_parser, make_engine
        args = build_parser().parse_args(
            ["design", "--paper-ecommerce", "--app-tier-only",
             "--load", "1", "--downtime", "1m",
             "--engine", "simulation", "--seed", "42"])
        engine = make_engine(args)
        assert engine.seed == 42

    def test_checkpoint_then_resume(self, tmp_path):
        path = str(tmp_path / "ck.json")
        base = ["design", "--paper-ecommerce", "--app-tier-only",
                "--load", "1000", "--downtime", "100m",
                "--checkpoint", path]
        code, first = run(base)
        assert code == 0
        code, second = run(base + ["--resume"])
        assert code == 0
        assert "resumed from checkpoint" in second
        assert "$28,320" in first and "$28,320" in second

    def test_resume_requires_checkpoint(self):
        code, output = run(["design", "--paper-ecommerce",
                            "--app-tier-only", "--load", "1000",
                            "--downtime", "100m", "--resume"])
        assert code == 1
        assert "--checkpoint" in output

    def test_resume_without_existing_file_starts_fresh(self, tmp_path):
        path = str(tmp_path / "new.json")
        code, output = run(["design", "--paper-ecommerce",
                            "--app-tier-only", "--load", "1000",
                            "--downtime", "100m",
                            "--checkpoint", path, "--resume"])
        assert code == 0
        assert "resumed" not in output


class TestParallelOptions:
    def test_jobs_reproduces_serial_anchor(self):
        serial = run(["design", "--paper-ecommerce", "--app-tier-only",
                      "--load", "1000", "--downtime", "100m"])
        pooled = run(["design", "--paper-ecommerce", "--app-tier-only",
                      "--load", "1000", "--downtime", "100m",
                      "--jobs", "2"])
        assert serial[0] == 0 and pooled[0] == 0
        assert "rC x6" in pooled[1]
        assert "$28,320" in pooled[1]
        # The design/cost/downtime lines are identical; only the
        # search-statistics line may differ (speculative prefetch).
        assert serial[1].splitlines()[:3] == pooled[1].splitlines()[:3]

    def test_supervised_serial_jobs_1(self):
        code, output = run(["design", "--paper-ecommerce",
                            "--app-tier-only", "--load", "1000",
                            "--downtime", "100m", "--jobs", "1",
                            "--task-timeout", "60"])
        assert code == 0
        assert "rC x6" in output

    def test_repro_jobs_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        code, output = run(["design", "--paper-ecommerce",
                            "--app-tier-only", "--load", "1000",
                            "--downtime", "100m"])
        assert code == 0
        assert "rC x6" in output
        assert "$28,320" in output

    def test_explicit_jobs_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "not-a-number")
        code, output = run(["design", "--paper-ecommerce",
                            "--app-tier-only", "--load", "1000",
                            "--downtime", "100m", "--jobs", "1"])
        assert code == 0  # env never consulted when --jobs is given

    def test_bad_env_value_errors(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "two")
        code, output = run(["design", "--paper-ecommerce",
                            "--app-tier-only", "--load", "1000",
                            "--downtime", "100m"])
        assert code == 1
        assert "REPRO_JOBS" in output

    def test_jobs_must_be_positive(self):
        code, output = run(["design", "--paper-ecommerce",
                            "--app-tier-only", "--load", "1000",
                            "--downtime", "100m", "--jobs", "0"])
        assert code == 1
        assert "--jobs" in output

    def test_task_timeout_requires_jobs(self, monkeypatch):
        # An ambient REPRO_JOBS (e.g. the CI legs that push the whole
        # suite through the pool) legitimately satisfies the
        # requirement, so pin the no-jobs-anywhere case explicitly.
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        code, output = run(["design", "--paper-ecommerce",
                            "--app-tier-only", "--load", "1000",
                            "--downtime", "100m",
                            "--task-timeout", "5"])
        assert code == 1
        assert "--task-timeout requires --jobs" in output

    def test_frontier_accepts_jobs(self):
        serial = run(["frontier", "--paper-ecommerce",
                      "--tier", "application", "--load", "1000"])
        pooled = run(["frontier", "--paper-ecommerce",
                      "--tier", "application", "--load", "1000",
                      "--jobs", "2"])
        assert pooled[0] == 0
        assert pooled[1] == serial[1]


class TestFrontierCommand:
    def test_frontier_table(self):
        code, output = run(["frontier", "--paper-ecommerce",
                            "--app-tier-only", "--tier", "application",
                            "--load", "800", "--max-redundancy", "3"])
        assert code == 0
        assert "annual cost" in output
        assert "rC" in output

    def test_unreachable_load(self):
        code, output = run(["frontier", "--paper-ecommerce",
                            "--app-tier-only", "--tier", "application",
                            "--load", "99999999"])
        assert code == 2
        assert "no designs" in output


class TestValidateCommand:
    def test_paper_models_validate(self):
        code, output = run(["validate", "--paper-scientific"])
        assert code == 0
        assert "ok:" in output

    def test_spec_files_from_disk(self, tmp_path):
        (tmp_path / "infra.spec").write_text("""
component=box cost=10
 failure=soft mtbf=30d mttr=0 detect_time=0
resource=node reconfig_time=0
 component=box depend=null startup=1m
""")
        (tmp_path / "svc.spec").write_text("""
application=svc
tier=t
 resource=node sizing=dynamic failurescope=resource
  nActive=[1-10,+1] performance=expr:10*n
""")
        code, output = run(["validate",
                            "--infrastructure",
                            str(tmp_path / "infra.spec"),
                            "--service", str(tmp_path / "svc.spec")])
        assert code == 0

    def test_broken_pair_reports_problems(self, tmp_path):
        (tmp_path / "infra.spec").write_text("""
component=box cost=10
 failure=soft mtbf=30d mttr=0 detect_time=0
resource=node reconfig_time=0
 component=box depend=null startup=1m
""")
        (tmp_path / "svc.spec").write_text("""
application=svc
tier=t
 resource=ghost sizing=dynamic failurescope=resource
  nActive=[1-10,+1] performance=expr:10*n
""")
        code, output = run(["validate",
                            "--infrastructure",
                            str(tmp_path / "infra.spec"),
                            "--service", str(tmp_path / "svc.spec")])
        assert code == 2
        assert "unknown resource" in output


class TestDesignFromFiles:
    def test_full_pipeline_from_disk(self, tmp_path):
        (tmp_path / "infra.spec").write_text("""
component=box cost([inactive,active])=[500 600]
 failure=hard mtbf=200d mttr=<support> detect_time=1m
 failure=soft mtbf=20d mttr=0 detect_time=0
component=app cost=0
 failure=crash mtbf=30d mttr=0 detect_time=0
mechanism=support
 param=level range=[slow,fast]
 cost(level)=[100 300]
 mttr(level)=[48h 6h]
resource=node reconfig_time=0
 component=box depend=null startup=1m
 component=app depend=box startup=30s
""")
        (tmp_path / "svc.spec").write_text("""
application=svc
tier=t
 resource=node sizing=dynamic failurescope=resource
  nActive=[1-20,+1] performance(nActive)=perf.dat
""")
        (tmp_path / "perf.dat").write_text(
            "\n".join("%d %d" % (n, 25 * n) for n in range(1, 21)))
        code, output = run(["design",
                            "--infrastructure",
                            str(tmp_path / "infra.spec"),
                            "--service", str(tmp_path / "svc.spec"),
                            "--perf-dir", str(tmp_path),
                            "--load", "100", "--downtime", "500m"])
        assert code == 0
        assert "node" in output


class TestAnalyzeCommand:
    def test_budget_and_tornado(self):
        code, output = run(["analyze", "--paper-ecommerce",
                            "--app-tier-only", "--load", "1000",
                            "--downtime", "100m"])
        assert code == 0
        assert "downtime budget" in output
        assert "sensitivity of" in output
        assert "machineA.hard" in output

    def test_infeasible(self):
        code, output = run(["analyze", "--paper-ecommerce",
                            "--app-tier-only", "--load", "1000",
                            "--downtime", "0.0000001m",
                            "--max-redundancy", "1"])
        assert code == 2


class TestDescribeCommand:
    def test_describe_paper_models(self):
        code, output = run(["describe", "--paper-scientific"])
        assert code == 0
        assert "machineA" in output
        assert "maintenanceA" in output
        assert "rH" in output
        assert "finite job" in output

    def test_describe_ecommerce(self):
        code, output = run(["describe", "--paper-ecommerce"])
        assert code == 0
        assert "always-on service" in output
        assert "tier application" in output


class TestRepairCrewFlag:
    def test_crew_limit_changes_design(self):
        code_free, out_free = run(["design", "--paper-ecommerce",
                                   "--app-tier-only", "--load", "1000",
                                   "--downtime", "100m"])
        code_solo, out_solo = run(["design", "--paper-ecommerce",
                                   "--app-tier-only", "--load", "1000",
                                   "--downtime", "100m",
                                   "--repair-crew", "1"])
        assert code_free == 0 and code_solo == 0
        assert out_free != out_solo


class TestJsonOutput:
    def test_design_json_parses_and_reloads(self, paper_infra):
        import json as json_module
        code, output = run(["design", "--paper-ecommerce",
                            "--app-tier-only", "--load", "1000",
                            "--downtime", "100m", "--json"])
        assert code == 0
        data = json_module.loads(output)
        assert data["annual_cost"] == pytest.approx(28320.0)
        # The embedded design reloads against the infrastructure.
        from repro.core.serialize import design_from_dict
        design = design_from_dict(data["design"], paper_infra)
        assert design.tiers[0].resource == "rC"

    def test_job_design_json_has_job_block(self):
        import json as json_module
        code, output = run(["design", "--paper-scientific",
                            "--job-time", "200h", "--json",
                            "--fix", "maintenanceA.level=bronze",
                            "--fix", "maintenanceB.level=bronze"])
        assert code == 0
        data = json_module.loads(output)
        assert data["job_time"]["expected_hours"] <= 200
