"""The job search's checkpoint sweep against the object path it replaced.

:class:`repro.core.JobSearch` prices and times each performance-
mechanism setting from per-setting tables, over plain floats.  These
tests hold it to the per-setting object path, bit for bit:

* per setting, the sweep's cost equals ``design_cost(design).total``
  and its expected seconds equal
  ``job_time(design, availability).expected_time.as_seconds`` on the
  built :class:`~repro.core.Design` -- for every setting of the paper
  model, and for drawn job services covering whole-job, work-unit and
  checkpoint loss windows, tabulated performance, unity and categorical
  overheads, a costed checkpoint mechanism a component defers to, a
  second (tier-charged) performance mechanism, so that three charges
  are folded per design, and several structural combos;
* whole searches equal a reference search that builds and evaluates a
  ``Design`` per setting (the object path, kept below as the
  reference): same answer, same counters;
* errors stay lazy: an overhead that raises only on cost-pruned
  settings changes nothing, one that raises on an evaluated setting
  aborts ``best_design``.
"""

import dataclasses
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (Design, DesignEvaluation, DesignEvaluator,
                        JobSearch, SearchLimits, TierDesign)
from repro.core.search import (_COST_TIE_EPSILON, _SettingTable,
                               _StructureSweep)
from repro.errors import EvaluationError, ModelError
from repro.model import (CategoricalOverhead, InfrastructureModel,
                         JobRequirements, OverheadModel, TableEffect,
                         TabulatedPerformance)
from repro.spec import DictResolver, parse_infrastructure, parse_service
from repro.spec.paper import (INFRASTRUCTURE_SPEC, SCIENTIFIC_SPEC,
                              TABLE1_OVERHEAD, table1_resolver)
from repro.units import Duration

BRONZE = {"maintenanceA": {"level": "bronze"},
          "maintenanceB": {"level": "bronze"}}


class ObjectPathJobSearch(JobSearch):
    """Reference: one ``Design`` built and evaluated per setting."""

    def _evaluate_structure(self, structure, table, requirements,
                            incumbent):
        self.stats.structures_enumerated += 1
        evaluator = self.evaluator
        best_time = math.inf
        best = incumbent
        for perf_combo in table.perf_combos:
            design = Design((TierDesign(
                structure.tier, structure.resource, structure.n_active,
                structure.n_spare, structure.spare_active_prefix,
                structure.mechanism_configs + perf_combo),))
            cost = evaluator.design_cost(design)
            if best is not None and not \
                    cost.total <= best.annual_cost + _COST_TIE_EPSILON:
                self.stats.cost_pruned += 1
                continue
            unavailability = self._tier_unavailability(structure, None)
            if unavailability is None:
                return None, best_time
            availability = self._as_result(structure.tier, unavailability)
            job_time = evaluator.job_time(design, availability)
            self.stats.job_time_evaluations += 1
            expected = job_time.expected_time
            if not expected.is_finite():
                continue
            best_time = min(best_time, expected.as_hours)
            if expected <= requirements.max_execution_time:
                evaluation = DesignEvaluation(design, cost, availability,
                                              job_time)
                if reference_improves(evaluation, best):
                    best = evaluation
        if best is incumbent:
            return None, best_time
        return best, best_time


def reference_improves(candidate, incumbent):
    if incumbent is None:
        return True
    if candidate.annual_cost < incumbent.annual_cost - _COST_TIE_EPSILON:
        return True
    if candidate.annual_cost > incumbent.annual_cost + _COST_TIE_EPSILON:
        return False
    return (candidate.job_time.expected_time
            < incumbent.job_time.expected_time)


def bits(value: float) -> str:
    return float(value).hex()


def assert_sweep_matches_object_path(evaluator, structure):
    """Every setting of ``structure``: sweep == object path, bit for bit."""
    search = JobSearch(evaluator)
    tier = evaluator.service.tiers[0]
    option = tier.option_for(structure.resource)
    _, performance = evaluator.required_mechanisms(tier.name,
                                                   structure.resource)
    table = _SettingTable(evaluator, option, structure,
                          search._mechanism_combos(performance))
    sweep = _StructureSweep(table, structure)
    unavailability = evaluator.engine.evaluate_tier(
        evaluator.tier_model(structure)).unavailability
    availability = JobSearch._as_result(structure.tier, unavailability)
    assert len(sweep.costs) == len(table.perf_combos)
    for index, cost in enumerate(sweep.costs):
        design = Design((sweep.design(index),))
        expected_cost = evaluator.design_cost(design)
        assert bits(cost) == bits(expected_cost.total)
        outcome = sweep.job_seconds(index, availability.availability)
        expected_time = evaluator.job_time(design, availability)
        assert bits(outcome[0]) == \
            bits(expected_time.expected_time.as_seconds)
        evaluation = sweep.evaluation(index, availability, *outcome)
        assert evaluation.cost == expected_cost
        assert evaluation.job_time == expected_time
        assert evaluation.design == design


def structural_designs(evaluator, limits, n_active, n_spare):
    """One structure per structural combo of every option."""
    search = JobSearch(evaluator, limits)
    tier = evaluator.service.tiers[0]
    designs = []
    for option in tier.options:
        structural, _ = evaluator.required_mechanisms(tier.name,
                                                      option.resource)
        for combo in search._mechanism_combos(structural):
            designs.append(TierDesign(tier.name, option.resource,
                                      n_active, n_spare, (), combo))
    return designs


def assert_searches_agree(make_evaluator, limits, requirements):
    """The sweep and the reference reach the same answer the same way."""
    sweep = JobSearch(make_evaluator(), limits)
    reference = ObjectPathJobSearch(make_evaluator(), limits)
    assert sweep.best_design(requirements) == \
        reference.best_design(requirements)
    assert dataclasses.asdict(sweep.stats) == \
        dataclasses.asdict(reference.stats)
    return sweep.stats


# ----------------------------------------------------------------------
# The paper's scientific job (Fig. 5, Table 1)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def paper_models():
    return (parse_infrastructure(INFRASTRUCTURE_SPEC),
            parse_service(SCIENTIFIC_SPEC, table1_resolver()))


class TestPaperModel:
    @pytest.mark.parametrize("fixed", [BRONZE, {}],
                             ids=["bronze", "all-levels"])
    @pytest.mark.parametrize("n_active,n_spare",
                             [(6, 0), (20, 1), (64, 1), (110, 3)])
    def test_every_setting_matches_object_path(self, paper_models, fixed,
                                               n_active, n_spare):
        evaluator = DesignEvaluator(*paper_models)
        limits = SearchLimits(fixed_settings=fixed)
        designs = structural_designs(evaluator, limits, n_active, n_spare)
        assert {design.resource for design in designs} == {"rH", "rI"}
        for structure in designs:
            assert_sweep_matches_object_path(evaluator, structure)

    @pytest.mark.parametrize("hours", [2, 20, 1000])
    def test_fig7_search_matches_object_path(self, paper_models, hours):
        limits = SearchLimits(max_redundancy=12, fixed_settings=BRONZE)
        assert_searches_agree(
            lambda: DesignEvaluator(*paper_models), limits,
            JobRequirements(Duration.hours(hours)))

    def test_unfixed_search_matches_object_path(self, paper_models):
        assert_searches_agree(
            lambda: DesignEvaluator(*paper_models),
            SearchLimits(max_redundancy=4),
            JobRequirements(Duration.hours(200)))


# ----------------------------------------------------------------------
# Drawn job services
# ----------------------------------------------------------------------

JOB_INFRASTRUCTURE = """
component=box cost([inactive,active])=[{inactive} {active}]
 failure=hard mtbf={mtbf}d mttr=<upkeep> detect_time=2m
 failure=soft mtbf=40d mttr=0 detect_time=0
component=app cost=0{app_window}
 failure=crash mtbf=30d mttr=0 detect_time=0
mechanism=upkeep
 param=level range=[{levels}]
 cost(level)=[{upkeep_costs}]
 mttr(level)=[{upkeep_mttrs}]
mechanism=checkpoint
 param=storage_location range=[central,peer]
 param=checkpoint_interval range=[2m-4h;*1.4]
 {checkpoint_cost}
 loss_window=checkpoint_interval
mechanism=journal
 param=level range=[lite,full]
 cost(level)=[12.34 56.78]
resource=node reconfig_time=0
 component=box depend=null startup=30s
 component=app depend=box startup=10s
"""

JOB_SERVICE = """
application=job jobsize={job_size}
tier=compute
 resource=node sizing=static failurescope=tier
  nActive=[1-40,+1] {performance}
  mechanism=checkpoint{overhead}
  mechanism=journal
"""

#: (name, cost, MTTR) per upkeep level, cheapest first.  Costs are
#: fractional so that a sum taken in another order shows in the bits.
UPKEEP_LEVELS = [("basic", "300.17", "30h"), ("fast", "900.29", "8h"),
                 ("premium", "2500.61", "3h")]


@st.composite
def job_models(draw):
    """A one-tier job service: drawn windows, performance, overheads."""
    levels = UPKEEP_LEVELS[:draw(st.integers(2, 3))]
    window = draw(st.sampled_from(["whole", "work", "checkpoint"]))
    infrastructure = JOB_INFRASTRUCTURE.format(
        inactive="%.2f" % (draw(st.integers(50000, 300000)) / 100),
        active="%.2f" % (draw(st.integers(300000, 900000)) / 100),
        mtbf=draw(st.integers(60, 1500)),
        app_window={"whole": "", "work": " loss_window=500u",
                    "checkpoint": " loss_window=<checkpoint>"}[window],
        levels=",".join(name for name, _, _ in levels),
        upkeep_costs=" ".join(cost for _, cost, _ in levels),
        upkeep_mttrs=" ".join(mttr for _, _, mttr in levels),
        checkpoint_cost=draw(st.sampled_from(
            ["cost=0", "cost(storage_location)=[0.1 150.3]",
             "cost(storage_location)=[40.7 15.9]"])))
    scale = draw(st.integers(5, 50))
    tabulated = draw(st.booleans())
    if tabulated:
        samples = [(n, scale * n / (1 + 0.02 * n))
                   for n in (1, 2, 5, 10, 20, 40)]
        performance_text = "performance(nActive)=perf.dat"
    else:
        performance_text = "performance=expr:(%d*n)/(1+0.02*n)" % scale
    categorical = draw(st.booleans())
    service = JOB_SERVICE.format(
        job_size=draw(st.integers(200, 20000)),
        performance=performance_text,
        overhead=(" mperformance(storage_location,checkpoint_interval,"
                  "nActive)=mperf.dat" if categorical else ""))
    resolver = DictResolver(
        performance=({"perf.dat": TabulatedPerformance(samples)}
                     if tabulated else {}),
        overhead={"mperf.dat": CategoricalOverhead(
            "storage_location",
            {"central": "n < 8 ? max(6/cpi, 100%) : max(n/cpi, 100%)",
             "peer": "max(15/cpi, 100%)"})})
    return parse_infrastructure(infrastructure), \
        parse_service(service, resolver)


class TestDrawnServices:
    @given(job_models(), st.sampled_from([(1, 0), (3, 1), (9, 0),
                                          (17, 2)]))
    @settings(max_examples=30, deadline=None)
    def test_every_setting_matches_object_path(self, models, shape):
        evaluator = DesignEvaluator(*models)
        designs = structural_designs(evaluator, SearchLimits(), *shape)
        assert len(designs) >= 2     # several structural combos
        for structure in designs:
            assert_sweep_matches_object_path(evaluator, structure)

    @given(job_models(), st.floats(min_value=1.05, max_value=6.0))
    @settings(max_examples=25, deadline=None)
    def test_search_matches_object_path(self, models, slack):
        infrastructure, service = models
        option = service.tiers[0].options[0]
        # A deadline some slack above the failure-free time at n=4.
        hours = service.job_size / option.performance.throughput(4) * slack
        assert_searches_agree(
            lambda: DesignEvaluator(infrastructure, service),
            SearchLimits(max_redundancy=3),
            JobRequirements(Duration.hours(hours)))


# ----------------------------------------------------------------------
# Lazy errors
# ----------------------------------------------------------------------


class RaisingOverhead(OverheadModel):
    """Table 1's overhead, raising on the settings ``when`` selects."""

    def __init__(self, inner: OverheadModel, when):
        self.inner = inner
        self.when = when

    def factor(self, settings, n_active):
        if self.when(settings):
            raise EvaluationError("no overhead defined for %r" % settings)
        return self.inner.factor(settings, n_active)


def costed_checkpoint_models(when=None, windows=None):
    """The paper's job with peer checkpoints at $400 per node, an
    overhead that raises on the settings ``when`` selects and, given
    ``windows`` (storage location -> loss window), a loss window that
    raises for a location missing from it."""
    infrastructure = parse_infrastructure(INFRASTRUCTURE_SPEC.replace(
        " cost=0\n loss_window=checkpoint_interval",
        " cost(storage_location)=[0 400]\n"
        " loss_window=checkpoint_interval"))
    if windows is not None:
        mechanisms = []
        for mechanism in infrastructure.mechanisms:
            if mechanism.name == "checkpoint":
                effects = dict(mechanism.effects)
                effects["loss_window"] = TableEffect(
                    "storage_location", tuple(windows.items()))
                mechanism = replace(mechanism, effects=effects)
            mechanisms.append(mechanism)
        infrastructure = InfrastructureModel(
            infrastructure.components, mechanisms,
            infrastructure.resources)
    overhead = {}
    for ref, expressions in TABLE1_OVERHEAD.items():
        model = CategoricalOverhead("storage_location", expressions)
        overhead[ref] = model if when is None \
            else RaisingOverhead(model, when)
    resolver = table1_resolver()
    resolver = DictResolver(
        performance={ref: resolver.performance(ref)
                     for ref in ("perfH.dat", "perfI.dat")},
        overhead=overhead)
    return infrastructure, parse_service(SCIENTIFIC_SPEC, resolver)


def is_peer(settings):
    return settings["storage_location"] == "peer"


class TestLazyErrors:
    LIMITS = SearchLimits(max_redundancy=12, fixed_settings=BRONZE)
    REQUIREMENTS = JobRequirements(Duration.hours(1000))

    def test_costed_checkpoints_match_object_path(self):
        stats = assert_searches_agree(
            lambda: DesignEvaluator(*costed_checkpoint_models()),
            self.LIMITS, self.REQUIREMENTS)
        # Every peer setting is priced out once a central one fits.
        assert stats.cost_pruned >= 151

    def test_raising_only_on_pruned_settings_changes_nothing(self):
        clean = JobSearch(DesignEvaluator(*costed_checkpoint_models()),
                          self.LIMITS)
        raising = JobSearch(
            DesignEvaluator(*costed_checkpoint_models(when=is_peer)),
            self.LIMITS)
        answer = raising.best_design(self.REQUIREMENTS)
        assert answer == clean.best_design(self.REQUIREMENTS)
        assert raising.stats == clean.stats
        assert raising.stats.cost_pruned >= 151

    def test_raising_on_an_evaluated_setting_aborts_the_search(self):
        search = JobSearch(
            DesignEvaluator(*costed_checkpoint_models(
                when=lambda settings: not is_peer(settings))),
            self.LIMITS)
        with pytest.raises(EvaluationError, match="no overhead defined"):
            search.best_design(self.REQUIREMENTS)

    def test_window_raising_only_on_pruned_settings_changes_nothing(self):
        window = Duration.minutes(10)
        clean = JobSearch(DesignEvaluator(*costed_checkpoint_models(
            windows={"central": window, "peer": window})), self.LIMITS)
        raising = JobSearch(DesignEvaluator(*costed_checkpoint_models(
            windows={"central": window})), self.LIMITS)
        answer = raising.best_design(self.REQUIREMENTS)
        assert answer == clean.best_design(self.REQUIREMENTS)
        assert raising.stats == clean.stats
        assert raising.stats.cost_pruned >= 151

    def test_window_raising_on_an_evaluated_setting_aborts_the_search(
            self):
        search = JobSearch(DesignEvaluator(*costed_checkpoint_models(
            windows={"peer": Duration.minutes(10)})), self.LIMITS)
        with pytest.raises(ModelError, match="no table entry"):
            search.best_design(self.REQUIREMENTS)
