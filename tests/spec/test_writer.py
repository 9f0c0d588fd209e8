"""Tests for spec serialization: write -> parse round trips."""

import pytest

from repro.errors import ModelError
from repro.spec import (parse_infrastructure, parse_service,
                        write_infrastructure, write_service)
from repro.spec.paper import (ECOMMERCE_SPEC, INFRASTRUCTURE_SPEC,
                              paper_infrastructure, table1_resolver)


class TestInfrastructureRoundTrip:
    def test_writer_is_fixed_point(self, paper_infra):
        text = write_infrastructure(paper_infra)
        again = write_infrastructure(parse_infrastructure(text))
        assert text == again

    def test_reparse_preserves_counts(self, paper_infra):
        reparsed = parse_infrastructure(write_infrastructure(paper_infra))
        assert len(reparsed.components) == len(paper_infra.components)
        assert len(reparsed.mechanisms) == len(paper_infra.mechanisms)
        assert len(reparsed.resources) == len(paper_infra.resources)

    def test_reparse_preserves_failure_modes(self, paper_infra):
        reparsed = parse_infrastructure(write_infrastructure(paper_infra))
        for component in paper_infra.components:
            other = reparsed.component(component.name)
            assert len(other.failure_modes) == len(component.failure_modes)
            for mode in component.failure_modes:
                twin = other.failure_mode(mode.name)
                assert twin.mtbf == mode.mtbf
                assert twin.detect_time == mode.detect_time
                assert twin.mttr == mode.mttr

    def test_reparse_preserves_mechanism_tables(self, paper_infra):
        from repro.model import MechanismConfig
        reparsed = parse_infrastructure(write_infrastructure(paper_infra))
        for name in ("maintenanceA", "maintenanceB"):
            original = paper_infra.mechanism(name)
            twin = reparsed.mechanism(name)
            for config in original.configurations():
                other = MechanismConfig(twin, config.settings)
                assert other.cost() == config.cost()
                assert other.duration_attribute("mttr") == \
                    config.duration_attribute("mttr")

    def test_reparse_preserves_resources(self, paper_infra):
        reparsed = parse_infrastructure(write_infrastructure(paper_infra))
        for resource in paper_infra.resources:
            twin = reparsed.resource(resource.name)
            assert twin.component_names == resource.component_names
            assert twin.reconfig_time == resource.reconfig_time
            for slot in resource.slots:
                other = twin.slot(slot.component)
                assert other.depends_on == slot.depends_on
                assert other.startup == slot.startup


class TestServiceRoundTrip:
    def test_inline_service_round_trips(self):
        source = """
application=shop
tier=web
 resource=node sizing=dynamic failurescope=resource
  nActive=[1-50,+1] performance=expr:100*n
"""
        service = parse_service(source)
        text = write_service(service)
        again = write_service(parse_service(text))
        assert text == again

    def test_jobsize_preserved(self):
        source = """
application=sci jobsize=10000
tier=compute
 resource=r sizing=static failurescope=tier
  nActive=[1-10,+1] performance=expr:10*n
"""
        text = write_service(parse_service(source))
        assert "jobsize=10000" in text
        assert parse_service(text).job_size == 10000

    def test_tabulated_performance_not_inlinable(self):
        from repro.model import (FailureScope, ResourceOption, ServiceModel,
                                 Sizing, TabulatedPerformance, Tier)
        from repro.units import EnumeratedRange
        option = ResourceOption("r", Sizing.STATIC, FailureScope.TIER,
                                EnumeratedRange([1]),
                                TabulatedPerformance([(1, 10.0)]))
        service = ServiceModel("s", [Tier("t", [option])])
        with pytest.raises(ModelError):
            write_service(service)

    def test_mechanism_overhead_not_inlinable(self):
        """A bare ``mechanism=`` line would drop Table 1's checkpoint
        overhead, so the writer refuses rather than change the model."""
        from repro.spec.paper import scientific_service
        with pytest.raises(ModelError, match="mperformance"):
            write_service(scientific_service())

    def test_unity_overhead_mechanism_round_trips(self):
        source = """
application=sci jobsize=100
tier=compute
 resource=r sizing=static failurescope=tier
  nActive=[1-10,+1] performance=expr:10*n
  mechanism=checkpoint
"""
        text = write_service(parse_service(source))
        assert "  mechanism=checkpoint\n" in text
        assert write_service(parse_service(text)) == text


class TestAgainstPaperText:
    def test_paper_infrastructure_spec_parses(self):
        infra = parse_infrastructure(INFRASTRUCTURE_SPEC)
        assert infra.has_resource("rA")
        assert infra.has_resource("rI")

    def test_paper_service_specs_parse(self):
        service = parse_service(ECOMMERCE_SPEC, table1_resolver())
        assert [tier.name for tier in service.tiers] == \
            ["web", "application", "database"]
