"""The stacked kernel is bitwise equal to the scalar chain solver.

Every comparison in this file is ``==`` on floats, not ``approx``:
the stacked assembly and reductions are engineered to replay the
scalar float-operation sequence exactly (see ``docs/BATCHING.md``),
and these tests are the contract.
"""

import numpy as np
import pytest

from repro.availability import FailureModeEntry, TierAvailabilityModel
from repro.availability.markov import evaluate_mode
from repro.batch import (assemble_systems, failover_template,
                         inplace_template, reduce_group,
                         solve_size_class, solve_stacked)
from repro.batch.stacked import _ordered_row_sums
from repro.units import Duration


def rates_matrix(columns):
    """Stack (failure, spare, failover, repair) columns into (4, K)."""
    return np.array(columns, dtype=np.float64).T


def inplace_model(n=3, m=2, mtbf_days=60.0, mttr_hours=8.0):
    return TierAvailabilityModel(
        "t", n=n, m=m, s=0,
        modes=(FailureModeEntry("hard", Duration.days(mtbf_days),
                                Duration.hours(mttr_hours),
                                Duration.minutes(4)),))


def failover_model(n=3, m=2, s=1, mtbf_days=60.0, mttr_hours=8.0,
                   failover_minutes=4.0, susceptible=False):
    return TierAvailabilityModel(
        "t", n=n, m=m, s=s,
        modes=(FailureModeEntry("hard", Duration.days(mtbf_days),
                                Duration.hours(mttr_hours),
                                Duration.minutes(failover_minutes),
                                spare_susceptible=susceptible),))


def mode_rates(model):
    mode = model.modes[0]
    failure = 1.0 / mode.mtbf.as_hours
    repair = 1.0 / mode.mttr.as_hours
    if model.s > 0 and mode.uses_failover:
        failover = 1.0 / mode.failover_time.as_hours
        spare = failure if mode.spare_susceptible else 0.0
        return (failure, spare, failover, repair)
    return (failure, 0.0, 0.0, repair)


class TestAssembly:
    def test_systems_match_scalar_transposed_generator(self):
        """Each slice is the scalar generator.T with the last row
        replaced by the normalization constraint."""
        n, m, crew = 4, 2, 4
        template = inplace_template(n, m, crew)
        failure, repair = 1.0 / 1440.0, 1.0 / 8.0
        rates = rates_matrix([(failure, 0.0, 0.0, repair)])
        systems = assemble_systems(template, rates)
        size = template.size
        scalar = np.zeros((size, size))
        for origin, target, kind, coeff in template.edges:
            rate = coeff * (failure if kind == 0 else repair)
            scalar[origin, target] += rate
            scalar[origin, origin] -= rate
        expected = scalar.T.copy()
        expected[-1, :] = 1.0
        assert np.array_equal(systems[0], expected)

    def test_two_members_assemble_independently(self):
        template = inplace_template(3, 1, 3)
        rates = rates_matrix([(0.01, 0.0, 0.0, 0.5),
                              (0.02, 0.0, 0.0, 0.25)])
        stacked = assemble_systems(template, rates)
        solo_a = assemble_systems(template, rates[:, :1])
        solo_b = assemble_systems(template, rates[:, 1:])
        assert np.array_equal(stacked[0], solo_a[0])
        assert np.array_equal(stacked[1], solo_b[0])


class TestStackedSolve:
    @pytest.mark.parametrize("model", [
        inplace_model(n=1, m=1),
        inplace_model(n=5, m=3),
        failover_model(n=3, m=2, s=1),
        failover_model(n=4, m=2, s=2, susceptible=True),
    ], ids=["inplace-1", "inplace-5", "failover", "failover-susc"])
    def test_matches_scalar_mode_evaluation_bitwise(self, model):
        mode = model.modes[0]
        if model.s > 0:
            crew = model.n + model.s
            template = failover_template(model.n, model.m, model.s,
                                         crew, mode.spare_susceptible)
        else:
            template = inplace_template(model.n, model.m, model.n)
        rates = rates_matrix([mode_rates(model)])
        probabilities = solve_stacked(template, rates)
        unavailability, flux = reduce_group(template, rates,
                                            probabilities)
        scalar = evaluate_mode(model, mode)
        # repr-level equality: the floats are the same bits.
        assert repr(float(unavailability[0])) == \
            repr(scalar.unavailability)
        assert repr(float(flux[0])) == repr(scalar.failures_per_year)

    def test_stacked_members_equal_singleton_solves(self):
        template = inplace_template(4, 2, 4)
        columns = [(1.0 / (1000.0 + 17 * k), 0.0, 0.0, 1.0 / (4.0 + k))
                   for k in range(6)]
        rates = rates_matrix(columns)
        stacked = solve_stacked(template, rates)
        for k, column in enumerate(columns):
            solo = solve_stacked(template, rates_matrix([column]))
            assert np.array_equal(stacked[k], solo[0])


class TestSizeClassMerge:
    def test_merged_groups_equal_per_group_solves(self):
        """Same-size shape groups merged into one LAPACK call give the
        same bits as solving each group alone."""
        # Both have 5 states: inplace n=4 and failover (1,1,1) padded?
        # Use two inplace shapes of equal size but different crew.
        a = inplace_template(4, 2, 4)
        b = inplace_template(4, 1, 1)
        assert a.size == b.size
        rates_a = rates_matrix([(0.001, 0.0, 0.0, 0.2),
                                (0.002, 0.0, 0.0, 0.1)])
        rates_b = rates_matrix([(0.003, 0.0, 0.0, 0.4)])
        merged = solve_size_class([(a, rates_a), (b, rates_b)])
        alone_a = solve_stacked(a, rates_a)
        alone_b = solve_stacked(b, rates_b)
        assert len(merged) == 2
        assert np.array_equal(merged[0], alone_a)
        assert np.array_equal(merged[1], alone_b)

    def test_byte_cap_cuts_the_stack_without_changing_values(
            self, monkeypatch):
        """A size class larger than STACK_BYTES is solved in several
        LAPACK calls; LU is per slice, so the bits do not move."""
        from repro.batch import stacked
        from repro.obs import observing
        a = inplace_template(4, 2, 4)
        b = inplace_template(4, 1, 1)
        rates_a = rates_matrix([(0.001 * k, 0.0, 0.0, 0.2)
                                for k in range(1, 6)])
        rates_b = rates_matrix([(0.003, 0.0, 0.0, 0.4),
                                (0.004, 0.0, 0.0, 0.3)])
        whole = solve_size_class([(a, rates_a), (b, rates_b)])
        # Room for two 5x5 systems per call: 7 members -> 4 calls.
        monkeypatch.setattr(stacked, "STACK_BYTES", 2 * 5 * 5 * 8)
        with observing() as obs:
            cut = solve_size_class([(a, rates_a), (b, rates_b)])
        assert obs.metrics.counter_value("batch.lapack_calls") == 4
        for one, two in zip(whole, cut):
            assert np.array_equal(one, two)

    def test_singular_member_raises_linalg_error(self):
        """An all-zero rate column yields a singular system; the caller
        owns the retry ladder, so the kernel must raise, not guess."""
        template = inplace_template(3, 2, 3)
        rates = rates_matrix([(0.0, 0.0, 0.0, 0.0)])
        with pytest.raises(np.linalg.LinAlgError):
            solve_size_class([(template, rates)])


class TestOrderedRowSums:
    def test_equals_left_to_right_accumulation(self):
        rows = np.array([[1e-300, 1.0, -1.0, 3e17, 1.25],
                         [0.1, 0.2, 0.3, 0.4, 0.5]])
        sums = _ordered_row_sums(rows)
        for k in range(rows.shape[0]):
            acc = 0.0
            for value in rows[k]:
                acc += float(value)
            assert repr(float(sums[k])) == repr(acc)

    def test_empty_width(self):
        sums = _ordered_row_sums(np.zeros((3, 0)))
        assert np.array_equal(sums, np.zeros(3))
