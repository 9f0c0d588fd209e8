"""Golden snapshots of the paper-reproduction results.

Each test serializes a headline result -- Table 1 designs, Fig. 6/7
frontier points -- and compares it against a committed JSON fixture in
``tests/golden/``.  A mismatch fails with a unified diff; if the
change is intended (model fix, engine improvement), run
``pytest --update-golden`` and commit the rewritten fixture so the
shift is visible in review.
"""

import pytest

from repro.core import (Aved, DesignEvaluator, SearchLimits, TierSearch)
from repro.core.serialize import (evaluated_tier_design_to_dict,
                                  evaluation_to_dict)
from repro.model import JobRequirements, ServiceRequirements
from repro.units import Duration

SERVICE_REQ = ServiceRequirements(throughput=1000,
                                  max_annual_downtime=Duration.minutes(100))


def test_app_tier_design_snapshot(paper_infra, app_tier_service,
                                  golden):
    """The paper's first example: app tier, load 1000, 100 min/yr."""
    outcome = Aved(paper_infra, app_tier_service).design(SERVICE_REQ)
    golden.check("design_app_tier_load1000_100m",
                 evaluation_to_dict(outcome.evaluation))


def test_ecommerce_design_snapshot(paper_infra, ecommerce, golden):
    """Table 1's e-commerce row: all three tiers, load 1000, 100m."""
    outcome = Aved(paper_infra, ecommerce).design(SERVICE_REQ)
    golden.check("design_ecommerce_load1000_100m",
                 evaluation_to_dict(outcome.evaluation))


def test_ecommerce_design_snapshot_batched(paper_infra, ecommerce,
                                           golden):
    """Wavefronts shipped to the worker pool in shape chunks must
    reproduce the *same committed fixture* as the in-process run --
    byte-identical snapshots, not a parallel set of pooled
    fixtures."""
    outcome = Aved(paper_infra, ecommerce, jobs=2).design(SERVICE_REQ)
    golden.check("design_ecommerce_load1000_100m",
                 evaluation_to_dict(outcome.evaluation))


def test_app_tier_design_snapshot_batched(paper_infra,
                                          app_tier_service, golden):
    outcome = Aved(paper_infra, app_tier_service,
                   jobs=2).design(SERVICE_REQ)
    golden.check("design_app_tier_load1000_100m",
                 evaluation_to_dict(outcome.evaluation))


def test_scientific_job_design_snapshot(paper_infra, scientific,
                                        golden):
    """Table 1's scientific row: 20h expected-completion budget."""
    outcome = Aved(paper_infra, scientific,
                   limits=SearchLimits(max_redundancy=4)) \
        .design(JobRequirements(Duration.hours(20)))
    golden.check("design_scientific_job20h",
                 evaluation_to_dict(outcome.evaluation))


def test_fig6_frontier_snapshot(paper_infra, app_tier_service, golden):
    """Fig. 6's cost/availability frontier for the app tier at 1000."""
    evaluator = DesignEvaluator(paper_infra, app_tier_service)
    search = TierSearch(evaluator, SearchLimits(max_redundancy=4))
    frontier = search.tier_frontier("application", 1000)
    golden.check("frontier_fig6_app_load1000",
                 [evaluated_tier_design_to_dict(entry)
                  for entry in frontier])


def test_fig7_job_cost_curve_snapshot(paper_infra, scientific, golden):
    """Fig. 7-style sweep: minimum cost vs job-time requirement."""
    limits = SearchLimits(
        max_redundancy=6,
        fixed_settings={"maintenanceA": {"level": "bronze"},
                        "maintenanceB": {"level": "bronze"}})
    engine = Aved(paper_infra, scientific, limits=limits)
    points = []
    for hours in (20.0, 100.0, 1000.0):
        outcome = engine.design(JobRequirements(Duration.hours(hours)))
        tier = outcome.design.tiers[0]
        points.append({
            "required_hours": hours,
            "resource": tier.resource,
            "n_active": tier.n_active,
            "n_spare": tier.n_spare,
            "annual_cost": outcome.annual_cost,
            "expected_hours":
                outcome.evaluation.job_time.expected_time.as_hours
                if outcome.evaluation.job_time.expected_time.is_finite()
                else None,
        })
    golden.check("frontier_fig7_scientific_job_curve", points)


def test_update_flag_writes_fixture(tmp_path, golden, monkeypatch):
    """The --update-golden path writes a diff-friendly file."""
    import json

    import tests.conftest as conftest_module
    monkeypatch.setattr(conftest_module, "GOLDEN_DIR", str(tmp_path))
    writer = conftest_module.GoldenComparator(update=True)
    writer.check("sample", {"b": 2.0, "a": 1.23456789123})
    text = (tmp_path / "sample.json").read_text()
    assert text.endswith("\n")
    data = json.loads(text)
    assert data == {"a": 1.2345679, "b": 2.0}  # 8 significant digits
    # and the comparing path accepts what the writing path produced
    reader = conftest_module.GoldenComparator(update=False)
    reader.check("sample", {"b": 2.0, "a": 1.23456789123})
    with pytest.raises(BaseException):
        reader.check("sample", {"b": 3.0, "a": 1.0})
