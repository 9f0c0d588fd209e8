"""Shared tests for the consolidated retry/backoff schedule.

Every retry loop in the codebase (supervised executor task retries,
pool-supervisor restarts, grid shard leases) pauses through one
:class:`repro.resilience.RetrySchedule` on a
:class:`repro.resilience.BackoffPolicy` curve; these tests pin down
the contract they all rely on: the curve and its validation, one
jitter draw per pause, byte-compatibility with the idiom the schedule
replaced, the attempt cap, and the injectable sleep.
"""

import random

import pytest

from repro.errors import SearchError
from repro.resilience import POOL_BACKOFF, BackoffPolicy, RetrySchedule


def test_defaults_valid():
    policy = BackoffPolicy()
    assert (policy.backoff_base, policy.backoff_factor,
            policy.backoff_jitter) == (0.02, 2.0, 0.5)


@pytest.mark.parametrize("kwargs", [
    {"backoff_base": -0.1},
    {"backoff_factor": 0.5},
    {"backoff_jitter": 2.0},
    {"backoff_jitter": -0.1},
])
def test_invalid_knobs_rejected(kwargs):
    with pytest.raises(SearchError):
        BackoffPolicy(**kwargs)


def test_backoff_grows_and_jitters():
    policy = BackoffPolicy(backoff_base=0.1, backoff_factor=2.0,
                           backoff_jitter=0.5)
    mid1 = policy.backoff_delay(1, 0.5)
    mid2 = policy.backoff_delay(2, 0.5)
    assert mid2 == pytest.approx(2.0 * mid1)
    low = policy.backoff_delay(1, 0.0)
    high = policy.backoff_delay(1, 1.0)
    assert low == pytest.approx(0.05)
    assert high == pytest.approx(0.15)


def test_delay_matches_replaced_idiom():
    # The schedule must consume exactly one rng.random() per call and
    # produce policy.backoff_delay(attempt, draw) -- the literal code
    # it replaced -- so seeded runs reproduce pre-consolidation
    # schedules.
    policy = BackoffPolicy(backoff_base=0.5, backoff_factor=3.0,
                           backoff_jitter=0.25)
    schedule = RetrySchedule(policy, rng=random.Random(7),
                             sleep=lambda s: None)
    reference = random.Random(7)
    for attempt in (1, 2, 3, 1, 5):
        expected = policy.backoff_delay(attempt, reference.random())
        assert schedule.pause(attempt) == expected


def test_one_draw_per_pause_shared_rng():
    # Sharing a caller's RNG must advance it exactly once per pause so
    # interleaved consumers stay deterministic.
    rng = random.Random(3)
    schedule = RetrySchedule(POOL_BACKOFF, rng=rng, sleep=lambda s: None)
    twin = random.Random(3)
    schedule.pause(1)
    twin.random()
    assert rng.random() == twin.random()


def test_sleep_injection_and_accounting():
    slept = []
    schedule = RetrySchedule(
        BackoffPolicy(backoff_base=1.0, backoff_jitter=0.0),
        seed=11, sleep=slept.append)
    d1 = schedule.pause(1)
    d2 = schedule.pause(2)
    assert slept == [d1, d2] == [1.0, 2.0]
    assert schedule.pauses == 2
    assert schedule.slept == pytest.approx(d1 + d2)


def test_zero_base_never_sleeps():
    calls = []
    schedule = RetrySchedule(BackoffPolicy(backoff_base=0.0),
                             seed=1, sleep=calls.append)
    assert schedule.pause(4) == 0.0
    assert calls == []
    assert schedule.pauses == 1


def test_max_attempt_caps_the_exponent():
    policy = BackoffPolicy(backoff_base=0.25, backoff_factor=2.0,
                           backoff_jitter=0.0)
    capped = RetrySchedule(policy, seed=5, sleep=lambda s: None,
                           max_attempt=3)
    assert capped.delay(50) == policy.backoff_delay(3, 0.5)
    assert capped.delay(3) == capped.delay(99)


def test_seed_and_rng_are_exclusive():
    with pytest.raises(SearchError):
        RetrySchedule(POOL_BACKOFF, seed=1, rng=random.Random(1))
    with pytest.raises(SearchError):
        RetrySchedule(POOL_BACKOFF, max_attempt=0)


def test_default_seed_is_reproducible():
    a = RetrySchedule(POOL_BACKOFF, sleep=lambda s: None)
    b = RetrySchedule(POOL_BACKOFF, sleep=lambda s: None)
    assert [a.delay(i) for i in (1, 2, 3)] == \
        [b.delay(i) for i in (1, 2, 3)]
