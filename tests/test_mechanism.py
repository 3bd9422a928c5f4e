"""Integration-style tests of the EnkiMechanism day cycle."""

import random

import numpy as np
import pytest

from repro.core.columnar import ColumnarNeighborhood
from repro.core.intervals import Interval
from repro.core.mechanism import (
    EnkiMechanism,
    closest_feasible_consumption,
    default_consumption,
    truthful_reports,
)
from repro.core.types import HouseholdType, Neighborhood, Preference, Report
from repro.pricing.quadratic import QuadraticPricing
from repro.robustness.errors import InvalidReportError


class TestTruthfulReports:
    def test_everyone_reports_their_truth(self, example3_neighborhood):
        reports = truthful_reports(example3_neighborhood)
        for hid, report in reports.items():
            assert report.preference == example3_neighborhood[hid].true_preference


class TestClosestFeasibleConsumption:
    def test_allocation_inside_true_window_is_followed(self):
        result = closest_feasible_consumption(Interval(16, 24), 2, Interval(18, 20))
        assert result == Interval(18, 20)

    def test_allocation_outside_snaps_to_nearest_edge(self):
        # True window (18, 20), allocation (14, 16): only placement is (18, 20).
        result = closest_feasible_consumption(Interval(18, 20), 2, Interval(14, 16))
        assert result == Interval(18, 20)

    def test_partial_overlap_maximized(self):
        # True window (17, 21), allocation (15, 19): placements are
        # (17,19),(18,20),(19,21) with overlaps 2,1,0 -> picks (17, 19).
        result = closest_feasible_consumption(Interval(17, 21), 2, Interval(15, 19))
        assert result == Interval(17, 19)


class TestRunDay:
    def test_truthful_day_nobody_defects(self, mechanism, example3_neighborhood):
        outcome = mechanism.run_day(example3_neighborhood)
        for hid in example3_neighborhood.ids():
            assert not outcome.defected(hid)
            assert outcome.settlement.defection[hid] == 0.0
            assert outcome.settlement.flexibility[hid] > 0.0

    def test_budget_balance_theorem1(self, mechanism, small_random_neighborhood):
        outcome = mechanism.run_day(small_random_neighborhood)
        settlement = outcome.settlement
        expected = (mechanism.xi - 1.0) * settlement.total_cost
        assert settlement.neighborhood_utility == pytest.approx(expected)
        assert settlement.neighborhood_utility >= 0.0

    def test_payments_sum_to_scaled_cost(self, mechanism, small_random_neighborhood):
        outcome = mechanism.run_day(small_random_neighborhood)
        assert sum(outcome.settlement.payments.values()) == pytest.approx(
            mechanism.xi * outcome.settlement.total_cost
        )

    def test_truthful_allocation_maximizes_valuation(
        self, mechanism, example3_neighborhood
    ):
        outcome = mechanism.run_day(example3_neighborhood)
        for hh in example3_neighborhood:
            # tau = v -> valuation = rho * v / 2.
            expected = hh.valuation_factor * hh.duration / 2.0
            assert outcome.settlement.valuations[hh.household_id] == pytest.approx(
                expected
            )

    def test_misreporting_defector_settlement(self, mechanism):
        # Theorem 2 scenario: A's truth is (18, 20, 2) but reports (14, 20, 2).
        neighborhood = Neighborhood.of(
            HouseholdType("A", Preference.of(18, 20, 2), 5.0),
            HouseholdType("B", Preference.of(14, 20, 2), 5.0),
            HouseholdType("C", Preference.of(14, 20, 2), 5.0),
        )
        reports = dict(truthful_reports(neighborhood))
        reports["A"] = Report("A", Preference.of(14, 20, 2))
        outcome = mechanism.run_day(neighborhood, reports)
        if outcome.defected("A"):
            assert outcome.settlement.flexibility["A"] == 0.0
            assert outcome.settlement.defection["A"] >= 0.0

    def test_explicit_consumption_is_respected(self, mechanism):
        pref = Preference.of(18, 20, 1)
        neighborhood = Neighborhood.of(
            HouseholdType("A", pref, 5.0), HouseholdType("B", pref, 5.0)
        )
        reports = truthful_reports(neighborhood)
        allocation = mechanism.allocate(neighborhood, reports).allocation
        defector = "A" if allocation["A"] == Interval(19, 20) else "B"
        consumption = dict(allocation)
        other_hour = Interval(18, 19) if allocation[defector].start == 19 else Interval(19, 20)
        consumption[defector] = other_hour
        settlement = mechanism.settle(neighborhood, reports, allocation, consumption)
        cooperator = "B" if defector == "A" else "A"
        # Property 3: the defector pays more than the identical cooperator.
        assert settlement.payments[defector] > settlement.payments[cooperator]

    def test_determinism_under_fixed_rng(self, example3_neighborhood):
        m = EnkiMechanism()
        out1 = m.run_day(example3_neighborhood, rng=random.Random(3))
        out2 = m.run_day(example3_neighborhood, rng=random.Random(3))
        assert out1.allocation == out2.allocation
        assert out1.settlement.payments == pytest.approx(out2.settlement.payments)

    def test_default_consumption_defects_only_when_forced(
        self, example3_neighborhood, mechanism
    ):
        reports = truthful_reports(example3_neighborhood)
        allocation = mechanism.allocate(example3_neighborhood, reports).allocation
        consumption = default_consumption(example3_neighborhood, allocation)
        assert consumption == allocation


class TestMechanismValidation:
    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            EnkiMechanism(k=0.0)

    def test_bad_xi_rejected(self):
        with pytest.raises(ValueError):
            EnkiMechanism(xi=0.9)

    def test_settle_rejects_inconsistent_allocation(
        self, mechanism, example3_neighborhood
    ):
        reports = truthful_reports(example3_neighborhood)
        with pytest.raises(Exception):
            mechanism.settle(
                example3_neighborhood,
                reports,
                {"A": Interval(0, 2)},
                {"A": Interval(0, 2)},
            )


def _wire_day():
    return ColumnarNeighborhood(
        ids=("a", "b", "c"),
        true_start=np.array([2, 10, 16]),
        true_end=np.array([12, 20, 24]),
        duration=np.array([4, 3, 2]),
        rating=np.full(3, 1.5),
        valuation=np.full(3, 2.0),
    )


class TestRawWireWithoutQuarantine:
    """Raw wire rows are screened under ``reject`` when no quarantine is set."""

    @pytest.mark.parametrize(
        "row, bounds, reason",
        [
            (0, (2.0, 12.0, 3.0), "duration-mismatch"),  # metered 4, reported 3
            (1, (-4.0, 20.0, 3.0), "out-of-grid"),
            (2, (float("nan"), 24.0, 2.0), "non-integer-bound"),
        ],
    )
    def test_malformed_row_raises_invalid_report(self, row, bounds, reason):
        neighborhood = _wire_day()
        begin, end, duration = neighborhood.truthful_wire()
        begin[row], end[row], duration[row] = bounds
        with pytest.raises(InvalidReportError) as excinfo:
            EnkiMechanism().run_day_columnar_raw(
                neighborhood, begin, end, duration, rng=random.Random(1)
            )
        assert excinfo.value.household_id == neighborhood.ids[row]
        assert excinfo.value.reason == reason

    def test_first_malformed_row_is_reported(self):
        neighborhood = _wire_day()
        begin, end, duration = neighborhood.truthful_wire()
        begin[1] = -4.0
        end[2] = float("nan")
        with pytest.raises(InvalidReportError) as excinfo:
            EnkiMechanism().run_day_columnar_raw(neighborhood, begin, end, duration)
        assert excinfo.value.household_id == "b"

    def test_clean_wire_settles_like_the_typed_day(self):
        neighborhood = _wire_day()
        raw = EnkiMechanism().run_day_columnar_raw(
            neighborhood, *neighborhood.truthful_wire(), rng=random.Random(3)
        )
        typed = EnkiMechanism().run_day_columnar(neighborhood, rng=random.Random(3))
        assert raw.quarantine_decisions == ()
        assert bool(raw.kept.all())
        assert np.array_equal(raw.allocation_starts, typed.allocation_starts)
        assert np.array_equal(raw.settlement.payments, typed.settlement.payments)
