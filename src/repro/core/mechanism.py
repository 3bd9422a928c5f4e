"""The Enki mechanism: one day of report → allocate → consume → settle.

This module wires the pieces of Section IV together.  Given a neighborhood
and its reports, :class:`EnkiMechanism` produces an allocation with a
pluggable allocator (the paper's greedy by default), accepts realized
consumption, and settles the day: flexibility scores (Eq. 4), defection
scores (Eq. 5), social-cost scores (Eq. 6), payments (Eq. 7), valuations
(Eq. 3) and quasilinear utilities (Eq. 8).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..allocation.cache import AllocationCache
    from ..robustness.quarantine import Quarantine

import numpy as np

from ..allocation.base import (
    AllocationProblem,
    AllocationResult,
    Allocator,
    ColumnarAllocationResult,
    solve_columnar_days,
)
from ..allocation.greedy import GreedyFlexibilityAllocator
from ..pricing.base import PricingModel
from ..pricing.load_profile import LoadProfile
from ..pricing.quadratic import QuadraticPricing
from .columnar import ColumnarNeighborhood, ColumnarReports
from .defection import defection_vector
from .flexibility import flexibility_vector
from .intervals import Interval, IntervalError
from .payments import DEFAULT_XI, payments_vector
from .social_cost import DEFAULT_K, social_cost_vector
from .types import (
    AllocationMap,
    ConsumptionMap,
    HouseholdId,
    Neighborhood,
    Report,
    validate_allocation,
    validate_consumption,
)
from .valuation import valuation_vector


def truthful_reports(neighborhood: Neighborhood) -> Dict[HouseholdId, Report]:
    """Every household reports its true preference."""
    return {
        hh.household_id: Report(hh.household_id, hh.true_preference)
        for hh in neighborhood
    }


def closest_feasible_consumption(
    true_window: Interval, duration: int, allocation: Interval
) -> Interval:
    """Consumption inside the true window, as close to the allocation as possible.

    This automates the user study's consumption step ("selecting real
    consumption to be within the subject's true interval and close to his
    allocation").  If the allocation already fits the true window it is
    followed exactly; otherwise the household defects to the in-window
    placement that maximizes overlap with the allocation (earliest on ties).
    """
    best_start = true_window.start
    best_overlap = -1
    for start in range(true_window.start, true_window.end - duration + 1):
        candidate = Interval(start, start + duration)
        overlap = candidate.overlap(allocation)
        if overlap > best_overlap:
            best_start, best_overlap = start, overlap
    return Interval(best_start, best_start + duration)


def default_consumption(
    neighborhood: Neighborhood,
    allocation: AllocationMap,
) -> ConsumptionMap:
    """Closest-feasible consumption for every *allocated* household.

    Households absent from the allocation (quarantined under the
    ``exclude`` policy) consume nothing through the mechanism that day.
    """
    consumption: ConsumptionMap = {}
    for hh in neighborhood:
        if hh.household_id not in allocation:
            continue
        true = hh.true_preference
        consumption[hh.household_id] = closest_feasible_consumption(
            true.window, true.duration, allocation[hh.household_id]
        )
    return consumption


@dataclass
class Settlement:
    """Everything the center computes when it bills a day."""

    total_cost: float
    flexibility: Dict[HouseholdId, float]
    defection: Dict[HouseholdId, float]
    social_cost: Dict[HouseholdId, float]
    payments: Dict[HouseholdId, float]
    valuations: Dict[HouseholdId, float]
    utilities: Dict[HouseholdId, float]
    overlap_fractions: Dict[HouseholdId, float]
    neighborhood_utility: float
    load_profile: LoadProfile


@dataclass
class ColumnarSettlement:
    """A day's settlement as parallel arrays, one row per billed household.

    The array twin of :class:`Settlement`, one per day produced by
    :meth:`EnkiMechanism.settle_arrays_batch`; :meth:`to_settlement`
    bridges to the dict form (the bridge is how the object path's
    :meth:`EnkiMechanism.settle` is implemented — a batch of one day —
    so the two are the same computation by construction).
    """

    ids: Tuple[HouseholdId, ...]
    total_cost: float
    flexibility: np.ndarray
    defection: np.ndarray
    social_cost: np.ndarray
    payments: np.ndarray
    valuations: np.ndarray
    utilities: np.ndarray
    overlap_fractions: np.ndarray
    neighborhood_utility: float
    load_profile: LoadProfile

    def to_settlement(self) -> Settlement:
        """Materialize the per-household dict :class:`Settlement`."""
        ids = list(self.ids)
        return Settlement(
            total_cost=self.total_cost,
            flexibility=dict(zip(ids, self.flexibility.tolist())),
            defection=dict(zip(ids, self.defection.tolist())),
            social_cost=dict(zip(ids, self.social_cost.tolist())),
            payments=dict(zip(ids, self.payments.tolist())),
            valuations=dict(zip(ids, self.valuations.tolist())),
            utilities=dict(zip(ids, self.utilities.tolist())),
            overlap_fractions=dict(zip(ids, self.overlap_fractions.tolist())),
            neighborhood_utility=self.neighborhood_utility,
            load_profile=self.load_profile,
        )


@dataclass
class ColumnarDayOutcome:
    """A full columnar day: surviving rows, allocation and settlement.

    ``kept`` is the boolean mask over the *input* neighborhood rows that
    survived quarantine (all-true without a quarantine); every other
    field is aligned with the kept rows.
    """

    neighborhood: ColumnarNeighborhood
    reports: ColumnarReports
    allocation_result: ColumnarAllocationResult
    consumption_starts: np.ndarray
    settlement: ColumnarSettlement
    kept: np.ndarray
    quarantine_decisions: Tuple = ()

    @property
    def allocation_starts(self) -> np.ndarray:
        return self.allocation_result.starts


@dataclass
class DayOutcome:
    """A full day under Enki: inputs, allocation and settlement.

    ``quarantine_decisions`` records every report the quarantine repaired
    or dropped (empty when no quarantine is configured or the day was
    clean); ``reports`` holds the post-screening reports the mechanism
    actually scheduled.
    """

    reports: Dict[HouseholdId, Report]
    allocation_result: AllocationResult
    consumption: ConsumptionMap
    settlement: Settlement
    quarantine_decisions: Tuple = ()

    @property
    def allocation(self) -> AllocationMap:
        return self.allocation_result.allocation

    def defected(self, household_id: HouseholdId) -> bool:
        """True when the household deviated from its allocation."""
        return self.consumption[household_id] != self.allocation[household_id]


class EnkiMechanism:
    """The tractable, budget-balanced DSM mechanism of the paper.

    Args:
        pricing: Neighborhood pricing model (quadratic, Eq. 1, by default).
        allocator: Allocation strategy (the Section IV-C greedy by default).
        k: Social-cost scaling factor (Eq. 6).
        xi: Payment scaling factor (Eq. 7); ``xi >= 1`` gives Theorem 1.
        seed: Seed for allocation tie-breaking when no rng is provided.
        quarantine: Optional report screen applied in front of every
            allocation (:class:`repro.robustness.quarantine.Quarantine`).
            Without one, reports are trusted as typed values — the
            pre-robustness behaviour.
        alloc_cache: Optional
            :class:`repro.allocation.cache.AllocationCache` every solve
            routes through.  Hits replay byte-identical results with
            ``cache_hit`` provenance; allocators without a
            ``cache_token`` pass straight through, so enabling the cache
            never changes an outcome.
    """

    def __init__(
        self,
        pricing: Optional[PricingModel] = None,
        allocator: Optional[Allocator] = None,
        k: float = DEFAULT_K,
        xi: float = DEFAULT_XI,
        seed: Optional[int] = None,
        quarantine: Optional["Quarantine"] = None,
        alloc_cache: Optional["AllocationCache"] = None,
    ) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if xi < 1.0:
            raise ValueError(f"xi must be >= 1, got {xi}")
        self.pricing = pricing if pricing is not None else QuadraticPricing()
        self.allocator = allocator if allocator is not None else GreedyFlexibilityAllocator()
        self.k = k
        self.xi = xi
        self._seed = seed
        self.quarantine = quarantine
        self.alloc_cache = alloc_cache

    def screen_reports(
        self,
        neighborhood: Neighborhood,
        reports: Mapping[HouseholdId, Report],
    ):
        """Run the configured quarantine over ``reports``.

        Returns the :class:`~repro.robustness.quarantine.QuarantineResult`,
        or ``None`` when no quarantine is configured.  The screen is
        idempotent, so callers may screen explicitly (to capture the
        decisions) and still pass the accepted reports to
        :meth:`allocate`, which screens again as a no-op.
        """
        if self.quarantine is None:
            return None
        return self.quarantine.screen(neighborhood, reports)

    def allocate(
        self,
        neighborhood: Neighborhood,
        reports: Mapping[HouseholdId, Report],
        rng: Optional[random.Random] = None,
        pre_screened: bool = False,
    ) -> AllocationResult:
        """Solve the day's allocation problem for the given reports.

        With a quarantine configured, reports pass through it first — so
        malformed submissions (raw wire values included) are rejected,
        repaired, or dropped per policy instead of raising out of the
        solve.  Callers that already screened (to capture the decisions)
        pass ``pre_screened=True`` to skip the redundant second pass.
        """
        rng = rng if rng is not None else random.Random(self._seed)
        if not pre_screened:
            screened = self.screen_reports(neighborhood, reports)
            if screened is not None:
                reports = screened.accepted
        problem = AllocationProblem.from_reports(reports, neighborhood.households, self.pricing)
        if self.alloc_cache is not None:
            result = self.alloc_cache.solve(self.allocator, problem, rng)
        else:
            result = self.allocator.solve(problem, rng)
        validate_allocation(dict(reports), result.allocation)
        return result

    def settle(
        self,
        neighborhood: Neighborhood,
        reports: Mapping[HouseholdId, Report],
        allocation: AllocationMap,
        consumption: ConsumptionMap,
    ) -> Settlement:
        """Bill a completed day (Eqs. 3-8).

        The object bridge into :meth:`settle_arrays_batch`: one pass
        unpacks the intervals into parallel arrays, the scoring chain
        runs as a batch of one day, and the result is materialized back
        into per-household dicts.
        """
        validate_allocation(dict(reports), allocation)
        validate_consumption(neighborhood.households, consumption)

        types = neighborhood.households
        # Settle the allocated households only: under the quarantine's
        # `exclude` policy a dropped household has no s_i and no omega_i,
        # and Theorem 1 holds over any subset because Eq. 7 splits the
        # realized cost of exactly the households being billed.
        ids = [h for h in types if h in allocation]
        n = len(ids)

        def column(values, dtype=np.intp) -> np.ndarray:
            return np.fromiter(values, dtype, count=n)

        return self.settle_arrays_batch(
            ids=[tuple(ids)],
            offsets=np.array([0, n], dtype=np.intp),
            alloc_starts=column(allocation[h].start for h in ids),
            alloc_ends=column(allocation[h].end for h in ids),
            cons_starts=column(consumption[h].start for h in ids),
            cons_ends=column(consumption[h].end for h in ids),
            ratings=column((types[h].rating_kw for h in ids), float),
            rep_starts=column(reports[h].preference.window.start for h in ids),
            rep_ends=column(reports[h].preference.window.end for h in ids),
            rep_durations=column(reports[h].preference.duration for h in ids),
            true_starts=column(types[h].true_preference.window.start for h in ids),
            true_ends=column(types[h].true_preference.window.end for h in ids),
            true_durations=column(types[h].true_preference.duration for h in ids),
            factors=column((types[h].valuation_factor for h in ids), float),
        )[0].to_settlement()

    def settle_arrays_batch(
        self,
        ids: Sequence[Tuple[HouseholdId, ...]],
        offsets: np.ndarray,
        alloc_starts: np.ndarray,
        alloc_ends: np.ndarray,
        cons_starts: np.ndarray,
        cons_ends: np.ndarray,
        ratings: np.ndarray,
        rep_starts: np.ndarray,
        rep_ends: np.ndarray,
        rep_durations: np.ndarray,
        true_starts: np.ndarray,
        true_ends: np.ndarray,
        true_durations: np.ndarray,
        factors: np.ndarray,
    ) -> List[ColumnarSettlement]:
        """Settle D stacked days: Eqs. 3-8 in a handful of array passes.

        Inputs are day-major stacked rows with ``offsets`` boundaries
        (``ids[k]`` names day ``k``'s rows).  The purely elementwise
        pieces — the followed mask, ``tau``, valuations and overlap
        fractions — run once over all rows; every *day-local* reduction
        (the realized load profile and its cost, flexibility coverage,
        the defection baseline, the Eq. 6/7 normalizations) loops over
        per-day slices, preserving each day's float accumulation
        sequence, so every returned :class:`ColumnarSettlement` is
        bit-identical to settling that day alone (a batch of one).
        """
        followed = (alloc_starts == cons_starts) & (alloc_ends == cons_ends)
        tau = np.clip(
            np.minimum(alloc_ends, true_ends) - np.maximum(alloc_starts, true_starts),
            0,
            None,
        )
        valuations_all = valuation_vector(tau, true_durations, factors)
        overlaps_all = np.clip(
            np.minimum(alloc_ends, cons_ends) - np.maximum(alloc_starts, cons_starts),
            0,
            None,
        ) / (alloc_ends - alloc_starts)

        settlements: List[ColumnarSettlement] = []
        for k, day_ids in enumerate(ids):
            rows = slice(int(offsets[k]), int(offsets[k + 1]))
            profile = LoadProfile.from_arrays(
                cons_starts[rows], cons_ends[rows], ratings[rows]
            )
            total_cost = self.pricing.cost(profile)
            flexibility_arr = np.where(
                followed[rows],
                flexibility_vector(
                    rep_starts[rows], rep_ends[rows], rep_durations[rows]
                ),
                0.0,
            )
            defection_arr = defection_vector(
                alloc_starts[rows],
                alloc_ends[rows],
                cons_starts[rows],
                cons_ends[rows],
                ratings[rows],
                self.pricing,
            )
            social_arr = social_cost_vector(flexibility_arr, defection_arr, self.k)
            payments_arr = payments_vector(social_arr, total_cost, self.xi)
            settlements.append(
                ColumnarSettlement(
                    ids=tuple(day_ids),
                    total_cost=total_cost,
                    flexibility=flexibility_arr,
                    defection=defection_arr,
                    social_cost=social_arr,
                    payments=payments_arr,
                    valuations=valuations_all[rows],
                    utilities=valuations_all[rows] - payments_arr,
                    overlap_fractions=overlaps_all[rows],
                    neighborhood_utility=float(payments_arr.sum()) - total_cost,
                    load_profile=profile,
                )
            )
        return settlements

    def run_day(
        self,
        neighborhood: Neighborhood,
        reports: Optional[Mapping[HouseholdId, Report]] = None,
        consumption: Optional[ConsumptionMap] = None,
        rng: Optional[random.Random] = None,
    ) -> DayOutcome:
        """Run one full day: allocate the reports, realize consumption, settle.

        Args:
            neighborhood: The households and their true types.
            reports: Declared preferences; truthful reports when omitted.
            consumption: Realized consumption; closest-feasible behaviour
                (follow the allocation when it fits the true window) when
                omitted.
            rng: Randomness for allocation tie-breaking.
        """
        reports = dict(reports) if reports is not None else truthful_reports(neighborhood)
        decisions: Tuple = ()
        screened = self.screen_reports(neighborhood, reports)
        if screened is not None:
            reports = screened.accepted
            decisions = tuple(screened.decisions)
        allocation_result = self.allocate(neighborhood, reports, rng, pre_screened=True)
        if consumption is None:
            consumption = default_consumption(neighborhood, allocation_result.allocation)
        settlement = self.settle(
            neighborhood, reports, allocation_result.allocation, consumption
        )
        return DayOutcome(
            reports=reports,
            allocation_result=allocation_result,
            consumption=dict(consumption),
            settlement=settlement,
            quarantine_decisions=decisions,
        )

    def run_day_columnar(
        self,
        neighborhood: ColumnarNeighborhood,
        reports: Optional[ColumnarReports] = None,
        rng: Optional[random.Random] = None,
    ) -> ColumnarDayOutcome:
        """Run one full day on the columnar path: allocate, consume, settle.

        The array counterpart of :meth:`run_day` with closest-feasible
        consumption, and exactly :meth:`run_days_columnar` over a batch
        of one day.  No per-household objects exist at any point.
        """
        return self.run_days_columnar(neighborhood, [rng], reports)[0]

    def run_days_columnar(
        self,
        neighborhood: ColumnarNeighborhood,
        rngs: Sequence[Optional[random.Random]],
        reports: Optional[ColumnarReports] = None,
    ) -> List[ColumnarDayOutcome]:
        """Run D days over one fixed neighborhood: the columnar day core.

        Only the tie-break rng differs per day (the
        :class:`repro.sim.engine.NeighborhoodSimulation` shape), so the
        reports (truthful when omitted; the configured quarantine applied
        first, which re-validates typed rows and is an accept-all no-op on
        clean days) are screened and compiled once, all D allocations come
        from :func:`~repro.allocation.base.solve_columnar_days` (the cache,
        the allocator's fused batch kernel, or its per-day loop), and the
        back half checks windows, realizes consumption and settles every
        day in one set of array passes.  Day ``k``'s outcome does not
        depend on how many days share the batch.
        """
        neighborhood, reports, kept, decisions = self.screen_day_columnar(
            neighborhood, reports=reports
        )
        results = self._allocate_days(neighborhood, reports, rngs)
        return self._finish_days(neighborhood, reports, results, kept, decisions)

    def run_day_columnar_raw(
        self,
        neighborhood: ColumnarNeighborhood,
        begin: np.ndarray,
        end: np.ndarray,
        duration: Optional[np.ndarray] = None,
        rng: Optional[random.Random] = None,
    ) -> ColumnarDayOutcome:
        """Run a columnar day from *raw wire arrays* (possibly malformed).

        The service-layer ingestion entry point: ``begin``/``end`` (and
        optionally ``duration``) are float arrays straight off the wire,
        aligned with ``neighborhood``'s rows — NaN, inverted, off-grid or
        non-integral values included.  With a quarantine configured they
        are screened first (repaired or dropped per policy, decisions
        recorded); without one the arrays must already be clean, and the
        first malformed row raises
        :class:`~repro.robustness.errors.InvalidReportError` — the strict
        counterpart of the ``reject`` policy.
        """
        neighborhood, reports, kept, decisions = self.screen_day_columnar(
            neighborhood, wire=(begin, end, duration)
        )
        (result,) = self._allocate_days(neighborhood, reports, [rng])
        return self.finish_day_columnar(
            neighborhood, reports, result, kept=kept, decisions=decisions
        )

    def finish_day_columnar(
        self,
        neighborhood: ColumnarNeighborhood,
        reports: ColumnarReports,
        result: ColumnarAllocationResult,
        kept: Optional[np.ndarray] = None,
        decisions: Tuple = (),
    ) -> ColumnarDayOutcome:
        """Settle an already-allocated columnar day.

        The back half of the day core over a batch of one, for drivers
        that produce the allocation elsewhere (the row-sharded large-n
        path in :mod:`repro.sim.engine`): the begin slots are
        (re)validated against the reported windows, then the same
        consumption and Eq. 3-8 settlement chain runs.
        """
        if kept is None:
            kept = np.ones(len(neighborhood), dtype=bool)
        return self._finish_days(
            neighborhood, reports, [result], kept, decisions
        )[0]

    def screen_day_columnar(
        self,
        neighborhood: ColumnarNeighborhood,
        reports: Optional[ColumnarReports] = None,
        wire: Optional[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]] = None,
    ) -> Tuple[ColumnarNeighborhood, ColumnarReports, np.ndarray, Tuple]:
        """Screen a columnar day's reports: the one entry to the day core.

        Takes typed ``reports`` (truthful when omitted) or raw ``wire``
        arrays ``(begin, end, duration)``, and returns the surviving
        neighborhood rows, their reports, the kept mask over the input
        rows and the quarantine decisions.  Without a quarantine, typed
        reports are trusted as they are, while wire arrays are screened
        under the ``reject`` policy so the first malformed row raises
        :class:`~repro.robustness.errors.InvalidReportError`.
        """
        quarantine = self.quarantine
        if wire is None:
            if reports is None:
                reports = ColumnarReports.truthful(neighborhood)
            elif reports.ids != neighborhood.ids:
                raise ValueError("reports and neighborhood rows are not aligned")
            if quarantine is None:
                kept = np.ones(len(neighborhood), dtype=bool)
                return neighborhood, reports, kept, ()
            wire = (
                reports.start.astype(float),
                reports.end.astype(float),
                reports.duration.astype(float),
            )
        elif quarantine is None:
            from ..robustness.quarantine import Quarantine

            quarantine = Quarantine("reject")
        screened = quarantine.screen_columnar(neighborhood, *wire)
        return (
            neighborhood.take(screened.kept),
            screened.accepted,
            screened.kept,
            tuple(screened.decisions),
        )

    def _allocate_days(
        self,
        neighborhood: ColumnarNeighborhood,
        reports: ColumnarReports,
        rngs: Sequence[Optional[random.Random]],
    ) -> List[ColumnarAllocationResult]:
        """Compile the screened day once and allocate it under each rng."""
        compiled = reports.compile(neighborhood, self.pricing)
        return solve_columnar_days(
            self.allocator,
            [compiled] * len(rngs),
            self.pricing,
            [rng if rng is not None else random.Random(self._seed) for rng in rngs],
            self.alloc_cache,
        )

    def _finish_days(
        self,
        neighborhood: ColumnarNeighborhood,
        reports: ColumnarReports,
        results: Sequence[ColumnarAllocationResult],
        kept: np.ndarray,
        decisions: Tuple,
    ) -> List[ColumnarDayOutcome]:
        """Check, consume and settle D allocations of one screened day.

        The begin slots of all D days are stacked day-major, validated
        against the reported windows (the array counterpart of
        :func:`~repro.core.types.validate_allocation`) and turned into
        closest-feasible consumption in single passes; the day-local
        reductions stay per day inside :meth:`settle_arrays_batch`.
        """
        n_days = len(results)
        n = len(neighborhood)
        offsets = np.arange(n_days + 1, dtype=np.intp) * n
        alloc_starts = (
            np.concatenate([result.starts for result in results])
            if results
            else np.zeros(0, dtype=np.intp)
        )
        rep_start = np.tile(reports.start, n_days)
        rep_end = np.tile(reports.end, n_days)
        rep_duration = np.tile(reports.duration, n_days)
        bad = (alloc_starts < rep_start) | (alloc_starts + rep_duration > rep_end)
        if bool(np.any(bad)):
            i = int(np.argmax(bad))
            raise IntervalError(
                f"allocation [{int(alloc_starts[i])}, "
                f"{int(alloc_starts[i] + rep_duration[i])}) for "
                f"{reports.ids[i % n]!r} violates report window "
                f"[{int(rep_start[i])}, {int(rep_end[i])})"
            )

        # Closest-feasible consumption, vectorized: consumption shares the
        # (metered) duration, so overlap with the allocation is
        # ``v - |s - alloc_start|`` and the in-window start closest to the
        # allocation maximizes it; when even that overlaps nothing, every
        # in-window start ties at zero and the scalar rule picks the
        # earliest.
        v = np.tile(neighborhood.duration, n_days)
        true_start = np.tile(neighborhood.true_start, n_days)
        true_end = np.tile(neighborhood.true_end, n_days)
        cons_starts = np.clip(alloc_starts, true_start, true_end - v)
        overlap = v - np.abs(cons_starts - alloc_starts)
        cons_starts = np.where(overlap > 0, cons_starts, true_start)

        settlements = self.settle_arrays_batch(
            ids=[neighborhood.ids] * n_days,
            offsets=offsets,
            alloc_starts=alloc_starts,
            alloc_ends=alloc_starts + v,
            cons_starts=cons_starts,
            cons_ends=cons_starts + v,
            ratings=np.tile(neighborhood.rating, n_days),
            rep_starts=rep_start,
            rep_ends=rep_end,
            rep_durations=rep_duration,
            true_starts=true_start,
            true_ends=true_end,
            true_durations=v,
            factors=np.tile(neighborhood.valuation, n_days),
        )
        return [
            ColumnarDayOutcome(
                neighborhood=neighborhood,
                reports=reports,
                allocation_result=result,
                consumption_starts=cons_starts[offsets[k]:offsets[k + 1]],
                settlement=settlement,
                kept=kept,
                quarantine_decisions=decisions,
            )
            for k, (result, settlement) in enumerate(zip(results, settlements))
        ]
