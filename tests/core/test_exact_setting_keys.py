"""Mechanism settings key on their exact values.

``Duration.format`` rounds to 4 significant digits, so keys spelled
with it made unequal settings collide: two configurations of a
response-time contract 2.16 s apart shared a search memo entry and a
memoized failure-mode tuple, and whichever was modelled first answered
for both.  These tests build such a pair and check, in both evaluation
orders, that each design gets its own MTTR and its own memo entries.
"""

import json

import pytest

from repro.core import DesignEvaluator, TierDesign, TierSearch
from repro.model import MechanismConfig
from repro.resilience.checkpoint import _key_from_json, _key_to_json
from repro.spec import parse_infrastructure, parse_service

INFRASTRUCTURE = """
component=box cost=100
 failure=hard mtbf=100d mttr=<response> detect_time=2m
mechanism=response
 param=response range=[6h-6.004h;*1.0001]
 cost=0
 mttr=response
resource=node reconfig_time=0
 component=box depend=null startup=30s
"""

SERVICE = """
application=svc
tier=t
 resource=node sizing=static failurescope=resource
  nActive=[1-4,+1] performance=expr:100*n
"""


@pytest.fixture
def models():
    return parse_infrastructure(INFRASTRUCTURE), parse_service(SERVICE)


def close_designs(infrastructure):
    """Two designs whose settings format alike but differ by 2.16 s."""
    mechanism = infrastructure.mechanism("response")
    configs = list(mechanism.configurations())[1:3]
    durations = [config.settings["response"] for config in configs]
    assert durations[0] != durations[1]
    assert durations[0].format() == durations[1].format()
    return [TierDesign("t", "node", 2, 1, (), (config,))
            for config in configs]


def expected_mttr_seconds(design):
    # detect_time (2m) + contracted repair + restart (30s)
    setting = design.mechanism_configs[0].settings["response"]
    return 120.0 + setting.as_seconds + 30.0


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_each_setting_gets_its_own_mttr(models, order):
    infrastructure, service = models
    designs = close_designs(infrastructure)
    evaluator = DesignEvaluator(infrastructure, service)
    for index in order:
        model = evaluator.tier_model(designs[index])
        assert model.modes[0].mttr.as_seconds == \
            expected_mttr_seconds(designs[index])
    assert len(evaluator._mode_entry_cache) == 2


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_each_setting_gets_its_own_search_memo_entry(models, order):
    infrastructure, service = models
    designs = close_designs(infrastructure)
    search = TierSearch(DesignEvaluator(infrastructure, service))
    solved = {index: search._tier_unavailability(designs[index], None)
              for index in order}
    assert len(search._availability_cache) == 2
    for index, design in enumerate(designs):
        alone = TierSearch(DesignEvaluator(infrastructure, service))
        assert solved[index] == alone._tier_unavailability(design, None)
    assert solved[0] != solved[1]


def test_structure_keys_are_exact_and_round_trip_json(models):
    infrastructure, _ = models
    keys = [TierSearch._structure_key(design, None)
            for design in close_designs(infrastructure)]
    assert keys[0] != keys[1]
    for key in keys:
        text = json.dumps(_key_to_json(key))
        assert _key_from_json(json.loads(text)) == key


def test_config_key_is_computed_once_and_hashes_consistently(models):
    infrastructure, _ = models
    mechanism = infrastructure.mechanism("response")
    first, second = list(mechanism.configurations())[1:3]
    twin = MechanismConfig(mechanism, dict(first.settings))
    assert first.key == twin.key and hash(first) == hash(twin)
    assert first.key != second.key
    assert first != second
