"""Simulation engines for the Section VI studies.

Two drivers live here:

* :class:`SocialWelfareStudy` — the Figures 4-6 engine: for each day it
  samples a fresh population, gives every allocator the same truthful
  reports, and records peak-to-average ratio, neighborhood cost and
  scheduling time per allocator.
* :class:`NeighborhoodSimulation` — a general multi-day run of the full
  Enki mechanism with pluggable reporting/consumption policies, used by the
  incentive-compatibility experiment, the theory property checkers and the
  examples.

Both engines treat each simulated day as an independent task driven by its
own keyed RNG substream (:func:`repro.sim.rng.make_day_rngs`), so a run is
a pure function of ``(seed, day)`` per day.  The ``workers`` knob fans the
day loop across a process pool (:mod:`repro.sim.parallel`); parallel runs
are bit-identical to serial runs at the same seed because no generator
state crosses a day boundary.

Both engines also plug into the robustness stack: an optional report
``quarantine`` screens each day's submissions, an optional ``chaos``
injector exercises the failure paths deterministically, an optional
``checkpoint`` store persists each day as it completes (and lets a rerun
resume where a killed run stopped), and an optional ``audit`` log receives
structured records for every quarantined report, fallback-served solve and
recovered worker failure.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, fields as dataclass_fields
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..allocation.base import (
    AllocationProblem,
    Allocator,
    ColumnarAllocationResult,
    solve_columnar_days,
)
from ..core.columnar import (
    ColumnarDayBatch,
    ColumnarNeighborhood,
    ColumnarReports,
)
from ..core.intervals import Interval
from ..core.mechanism import (
    ColumnarDayOutcome,
    DayOutcome,
    EnkiMechanism,
    closest_feasible_consumption,
)
from ..core.types import (
    ConsumptionMap,
    HouseholdId,
    HouseholdType,
    Neighborhood,
    Report,
)
from ..io.audit import AuditEvent, AuditLog
from ..io.serialize import day_outcome_from_dict, day_outcome_to_dict
from ..pricing.base import PricingModel
from ..pricing.load_profile import LoadProfile
from ..pricing.quadratic import QuadraticPricing
from ..robustness.chaos import ChaosInjector
from ..robustness.checkpoint import CheckpointError, CheckpointStore, day_key
from ..robustness.quarantine import Quarantine
from .parallel import DEFAULT_RETRIES, map_tasks
from .profiles import ProfileGenerator, neighborhood_from_profiles
from .rng import make_day_rngs, root_entropy, spawn_seed
from .shm import SharedArena, SharedColumnarDay

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..allocation.cache import AllocationCache


@dataclass(frozen=True)
class AllocatorDayRecord:
    """One allocator's performance on one simulated day.

    ``served_tier`` is non-zero when a fallback chain degraded past its
    primary solver for this day (see :mod:`repro.robustness.fallback`).
    ``cache_hit`` marks a day whose allocation was replayed from an
    :class:`~repro.allocation.cache.AllocationCache` instead of solved.
    """

    day: int
    n_households: int
    allocator: str
    par: float
    cost: float
    wall_time_s: float
    proven_optimal: bool
    nodes_explored: int
    served_tier: int = 0
    cache_hit: bool = False


_RECORD_FIELDS = frozenset(f.name for f in dataclass_fields(AllocatorDayRecord))


def _record_from_dict(document: Dict[str, Any]) -> AllocatorDayRecord:
    """Rebuild a checkpointed record, ignoring unknown/missing extras."""
    return AllocatorDayRecord(
        **{key: value for key, value in document.items() if key in _RECORD_FIELDS}
    )


#: A study worker's per-day result: records, quarantine decision payloads
#: and fallback-trail payloads (the latter two JSON-safe for checkpoints).
StudyDayResult = Tuple[List[AllocatorDayRecord], List[Dict], List[Dict]]


def _day_records(
    day: int,
    n_households: int,
    solved: Sequence[Tuple[Allocator, Any, LoadProfile]],
) -> Tuple[List[AllocatorDayRecord], List[Dict]]:
    """Records and fallback-trail payloads for one day's solves.

    ``solved`` lists ``(allocator, result, realized profile)`` per
    allocator, in study order; ``result`` is either result form.
    """
    records: List[AllocatorDayRecord] = []
    fallback_payloads: List[Dict] = []
    for allocator, result, profile in solved:
        records.append(
            AllocatorDayRecord(
                day=day,
                n_households=n_households,
                allocator=allocator.name,
                par=profile.peak_to_average_ratio(),
                cost=result.cost,
                wall_time_s=result.wall_time_s,
                proven_optimal=result.proven_optimal,
                nodes_explored=result.nodes_explored,
                served_tier=result.served_tier,
                cache_hit=result.cache_hit,
            )
        )
        if result.served_tier > 0:
            fallback_payloads.append(
                {
                    "allocator": allocator.name,
                    "served_tier": result.served_tier,
                    "trail": [record.as_payload() for record in result.fallback_trail],
                }
            )
    return records, fallback_payloads


def _quarantine_payloads(decisions) -> List[Dict]:
    """Audit payloads of the reports a screen repaired or dropped."""
    return [
        decision.as_payload()
        for decision in decisions
        if decision.action != "accepted"
    ]


def _run_study_day(
    task: Tuple["SocialWelfareStudy", int, int, int],
) -> StudyDayResult:
    """One object-path Figures 4-6 day: sample a population, run every allocator.

    Module-level so the parallel runtime can pickle it; ``task`` carries
    the study (its allocators, generator and pricing), the root entropy,
    the day index and the population size.  Columnar studies run
    :func:`_run_study_batch` instead.
    """
    study, root, day, n_households = task
    if study.chaos is not None:
        study.chaos.before_day(day)
    py_rng, np_rng = make_day_rngs(root, day)
    profiles = study.generator.sample_population(np_rng, n_households)
    neighborhood = neighborhood_from_profiles(profiles, study.true_preference)
    reports = {
        hh.household_id: Report(hh.household_id, hh.true_preference)
        for hh in neighborhood
    }
    quarantine_payloads: List[Dict] = []
    if study.chaos is not None:
        reports = study.chaos.corrupt_reports(day, reports)
    if study.quarantine is not None:
        screened = study.quarantine.screen(neighborhood, reports)
        reports = screened.accepted
        quarantine_payloads = _quarantine_payloads(screened.decisions)
    problem = AllocationProblem.from_reports(
        reports, neighborhood.households, study.pricing
    )
    solved = []
    for allocator in study.allocators:
        result = allocator.solve(problem, random.Random(spawn_seed(py_rng)))
        profile = LoadProfile.from_schedule(
            result.allocation, neighborhood.households
        )
        solved.append((allocator, result, profile))
    records, fallback_payloads = _day_records(day, n_households, solved)
    return records, quarantine_payloads, fallback_payloads


def _plan_batches(
    pending: Sequence[int],
    batch_days: int,
    chaos: Optional[ChaosInjector],
) -> List[List[int]]:
    """Chunk pending days into consecutive runs of at most ``batch_days``.

    ``batch_days=1`` gives one singleton chunk per day.  Chaos crash days
    always become singleton chunks: a crash must fail (and retry, and be
    audited) at exactly day granularity, so failure attribution —
    ``chunk[0]`` — names the crashing day and no sibling day's work rides
    on the doomed attempt.
    """
    crash = chaos.plan.crash_days if chaos is not None else frozenset()
    chunks: List[List[int]] = []
    current: List[int] = []
    for day in pending:
        if day in crash:
            if current:
                chunks.append(current)
                current = []
            chunks.append([day])
            continue
        if current and (len(current) >= batch_days or day != current[-1] + 1):
            chunks.append(current)
            current = []
        current.append(day)
    if current:
        chunks.append(current)
    return chunks


def _run_study_batch(
    task: Tuple["SocialWelfareStudy", int, List[int], int, Optional["AllocationCache"]],
) -> List[StudyDayResult]:
    """A chunk of columnar Figures 4-6 days as fused array passes.

    Every columnar study day runs here; a single day is a chunk of one.
    Each day burns its own keyed substream (sampling draws and tie-break
    seeds do not depend on the chunking, so outputs are bit-identical for
    every ``batch_days``), sampling shares one id tuple, screening runs
    as one malformed-mask pass, and each allocator solves the whole chunk
    through :func:`~repro.allocation.base.solve_columnar_days` (the
    ``alloc_cache`` when given, else the allocator's batch kernel).

    Sampling uses :meth:`ProfileGenerator.sample_population_columnar` —
    its own draw sequence on the day's keyed substream — so the columnar
    study's records are reproducible per ``(seed, day)`` and bit-identical
    across worker counts, but are *not* the object study's records at the
    same seed (see ``docs/performance.md``).
    """
    study, root, chunk, n_households, alloc_cache = task
    day_rngs: List[random.Random] = []
    np_rngs = []
    for day in chunk:
        if study.chaos is not None:
            study.chaos.before_day(day)
        py_rng, np_rng = make_day_rngs(root, day)
        day_rngs.append(py_rng)
        np_rngs.append(np_rng)
    neighborhoods = [
        cols.to_neighborhood(study.true_preference)
        for cols in study.generator.sample_population_columnar_batch(
            np_rngs, n_households
        )
    ]

    quarantine_payloads: List[List[Dict]] = [[] for _ in chunk]
    if study.quarantine is not None:
        batch = ColumnarDayBatch.from_neighborhoods(neighborhoods)
        screened_days = study.quarantine.screen_columnar_batch(
            batch,
            batch.true_start.astype(float),
            batch.true_end.astype(float),
            batch.duration.astype(float),
        )
        compiled_days = []
        for k, screened in enumerate(screened_days):
            quarantine_payloads[k] = _quarantine_payloads(screened.decisions)
            kept_neighborhood = neighborhoods[k].take(screened.kept)
            compiled_days.append(
                screened.accepted.compile(kept_neighborhood, study.pricing)
            )
    else:
        compiled_days = [
            ColumnarReports.truthful(neighborhood).compile(
                neighborhood, study.pricing
            )
            for neighborhood in neighborhoods
        ]

    # Tie-break rngs are drawn in (day, allocator) order on each day's
    # keyed substream, and are drawn unconditionally, so cache hits never
    # shift later draws.
    rngs_by_allocator: List[List[random.Random]] = [[] for _ in study.allocators]
    for py_rng in day_rngs:
        for slot in rngs_by_allocator:
            slot.append(random.Random(spawn_seed(py_rng)))
    results_by_allocator = [
        solve_columnar_days(
            allocator, compiled_days, study.pricing, rngs, alloc_cache
        )
        for allocator, rngs in zip(study.allocators, rngs_by_allocator)
    ]

    out: List[StudyDayResult] = []
    for k, day in enumerate(chunk):
        compiled = compiled_days[k]
        solved = []
        for allocator, results in zip(study.allocators, results_by_allocator):
            starts = results[k].starts
            profile = LoadProfile.from_arrays(
                starts, starts + compiled.duration, compiled.rating
            )
            solved.append((allocator, results[k], profile))
        records, fallback_payloads = _day_records(day, n_households, solved)
        out.append((records, quarantine_payloads[k], fallback_payloads))
    return out


def _guard_checkpoint_meta(
    checkpoint: CheckpointStore, key: str, context: Dict[str, Any]
) -> None:
    """Refuse to resume a checkpoint written by a different run setup."""
    done = checkpoint.completed()
    if key in done:
        if done[key] != context:
            raise CheckpointError(
                f"checkpoint {checkpoint.path!r} was written by a different "
                f"run: recorded {done[key]}, this run is {context}"
            )
    else:
        checkpoint.append(key, context)


def _pending_days(
    checkpoint: Optional[CheckpointStore],
    prefix: str,
    days: int,
    context: Dict[str, Any],
) -> Tuple[Dict[str, Dict[str, Any]], List[int]]:
    """The checkpointed payloads and the days still to compute."""
    done: Dict[str, Dict[str, Any]] = {}
    if checkpoint is not None:
        _guard_checkpoint_meta(checkpoint, f"{prefix}meta", context)
        done = checkpoint.completed()
    return done, [day for day in range(days) if day_key(day, prefix) not in done]


def _run_chunks(
    day_fn: Callable,
    tasks: List[Any],
    chunks: List[List[int]],
    batched: bool,
    workers: Optional[int],
    timeout_s: Optional[float],
    retries: int,
    persist: Optional[Callable[[int, Any], None]],
    audit: Optional[AuditLog],
) -> Dict[int, Any]:
    """Fan one task per chunk out and key every day's result by its day.

    ``batched`` tasks return one result per day of their chunk; the
    others run a single day and return its result.  ``persist(day,
    result)`` is called as each chunk completes.
    """

    def _per_day(value: Any) -> List[Any]:
        return value if batched else [value]

    def _persist(index: int, value: Any) -> None:
        for day, day_value in zip(chunks[index], _per_day(value)):
            persist(day, day_value)

    def _log_failure(failure) -> None:
        audit.append(
            AuditEvent(
                kind="worker_failure",
                day=chunks[failure.index][0],
                payload={
                    "attempt": failure.attempt,
                    "cause": failure.cause,
                    "recovered": True,
                },
            )
        )

    per_chunk = map_tasks(
        day_fn,
        tasks,
        workers,
        timeout_s=timeout_s,
        retries=retries,
        on_result=_persist if persist is not None else None,
        on_failure=_log_failure if audit is not None else None,
    )
    computed: Dict[int, Any] = {}
    for chunk, value in zip(chunks, per_chunk):
        computed.update(zip(chunk, _per_day(value)))
    return computed


class SocialWelfareStudy:
    """Compare allocators on identical day-ahead instances (Figures 4-6).

    Args:
        allocators: The solvers to compare (e.g. Enki greedy vs optimal).
        generator: Usage-profile generator; Section VI defaults when omitted.
        pricing: Neighborhood pricing; quadratic sigma=0.3 when omitted.
        true_preference: Which window households report — the paper's
            social-welfare study has every household report its wide
            interval as its true preference.
        quarantine: Optional report screen applied to each day's reports
            before the allocators see them (required when ``chaos``
            injects malformed reports).
        chaos: Optional deterministic fault injector
            (:class:`repro.robustness.chaos.ChaosInjector`).
        columnar: Run each day on the columnar (structure-of-arrays) fast
            path: batched sampling, array allocation kernels, no
            per-household objects.  Same study semantics, its own sampling
            substream — records differ from the object path at the same
            seed but stay bit-identical across worker counts.
    """

    def __init__(
        self,
        allocators: Sequence[Allocator],
        generator: Optional[ProfileGenerator] = None,
        pricing: Optional[PricingModel] = None,
        true_preference: str = "wide",
        quarantine: Optional[Quarantine] = None,
        chaos: Optional[ChaosInjector] = None,
        columnar: bool = False,
    ) -> None:
        if not allocators:
            raise ValueError("need at least one allocator to study")
        names = [allocator.name for allocator in allocators]
        if len(set(names)) != len(names):
            raise ValueError(f"allocator names must be unique, got {names}")
        self.allocators = list(allocators)
        self.generator = generator if generator is not None else ProfileGenerator()
        self.pricing = pricing if pricing is not None else QuadraticPricing()
        self.true_preference = true_preference
        self.quarantine = quarantine
        self.chaos = chaos
        self.columnar = columnar
        if (
            chaos is not None
            and chaos.plan.malformed_days
            and quarantine is None
        ):
            raise ValueError(
                "chaos injects malformed reports; configure a quarantine to "
                "absorb them (policy 'clamp' or 'exclude')"
            )
        if columnar and chaos is not None and chaos.plan.malformed_days:
            raise ValueError(
                "chaos report corruption operates on object reports; the "
                "columnar path cannot run days with malformed_days planned"
            )

    def run(
        self,
        n_households: int,
        days: int,
        seed: Optional[int] = None,
        workers: Optional[int] = 1,
        checkpoint: Optional[CheckpointStore] = None,
        checkpoint_prefix: str = "",
        audit: Optional[AuditLog] = None,
        timeout_s: Optional[float] = None,
        retries: int = DEFAULT_RETRIES,
        batch_days: int = 1,
        alloc_cache: Optional["AllocationCache"] = None,
    ) -> List[AllocatorDayRecord]:
        """Simulate ``days`` independent days with ``n_households`` each.

        Args:
            n_households: Population size sampled fresh every day.
            days: Number of independent day instances.
            seed: Master seed; day ``d`` draws from the keyed substream
                ``(seed, d)`` regardless of ``workers``.
            workers: Process count for the day fan-out; ``1`` (default)
                runs serially, ``0`` uses every core.  Results are
                bit-identical across worker counts.
            checkpoint: Persist each day's records as it completes; days
                already in the store are replayed instead of recomputed,
                so a killed run resumes where it stopped with identical
                final results.
            checkpoint_prefix: Key prefix inside the store (used by
                :meth:`sweep` to keep population sizes apart).
            audit: Structured event log; receives ``report_quarantined``,
                ``fallback_served`` and ``worker_failure`` events for the
                days computed in this call.
            timeout_s: Per-round stall detector for the parallel runtime
                (see :func:`repro.sim.parallel.map_tasks`).
            retries: Pool retry budget per failed day before inline rerun.
            batch_days: Columnar-only: run up to this many consecutive
                days per worker task as fused array passes
                (:func:`_run_study_batch`).  ``1`` (default) gives
                one-day chunks through the same code; results are
                bit-identical for every value (modulo per-call wall
                times).
            alloc_cache: Columnar-only: route every allocation through a
                digest-keyed :class:`~repro.allocation.cache.
                AllocationCache` — repeated instances replay stored
                results byte-identically instead of re-solving.
        """
        if days < 1:
            raise ValueError(f"days must be >= 1, got {days}")
        if batch_days < 1:
            raise ValueError(f"batch_days must be >= 1, got {batch_days}")
        if (batch_days > 1 or alloc_cache is not None) and not self.columnar:
            raise ValueError(
                "batch_days > 1 and alloc_cache require the columnar path "
                "(construct the study with columnar=True)"
            )
        root = root_entropy(seed)
        done, pending = _pending_days(
            checkpoint,
            checkpoint_prefix,
            days,
            {"root": root, "days": days, "n_households": n_households},
        )
        chunks = _plan_batches(pending, batch_days, self.chaos)
        if self.columnar:
            day_fn: Callable = _run_study_batch
            tasks: List[Any] = [
                (self, root, chunk, n_households, alloc_cache) for chunk in chunks
            ]
        else:
            day_fn = _run_study_day
            tasks = [(self, root, chunk[0], n_households) for chunk in chunks]

        def _persist(day: int, value: StudyDayResult) -> None:
            records, quarantined, fallbacks = value
            checkpoint.append(
                day_key(day, checkpoint_prefix),
                {
                    "records": [asdict(record) for record in records],
                    "quarantine": quarantined,
                    "fallback": fallbacks,
                },
            )

        computed: Dict[int, StudyDayResult] = _run_chunks(
            day_fn,
            tasks,
            chunks,
            self.columnar,
            workers,
            timeout_s,
            retries,
            _persist if checkpoint is not None else None,
            audit,
        )

        out: List[AllocatorDayRecord] = []
        for day in range(days):
            if day in computed:
                records, quarantined, fallbacks = computed[day]
                if audit is not None:
                    for payload in quarantined:
                        audit.append(
                            AuditEvent(kind="report_quarantined", day=day, payload=payload)
                        )
                    for payload in fallbacks:
                        audit.append(
                            AuditEvent(kind="fallback_served", day=day, payload=payload)
                        )
            else:
                payload = done[day_key(day, checkpoint_prefix)]
                records = [_record_from_dict(doc) for doc in payload["records"]]
            out.extend(records)
        return out

    def sweep(
        self,
        populations: Sequence[int],
        days: int,
        seed: Optional[int] = None,
        workers: Optional[int] = 1,
        checkpoint: Optional[CheckpointStore] = None,
        audit: Optional[AuditLog] = None,
        timeout_s: Optional[float] = None,
        retries: int = DEFAULT_RETRIES,
        batch_days: int = 1,
        alloc_cache: Optional["AllocationCache"] = None,
    ) -> List[AllocatorDayRecord]:
        """Run the study across population sizes (the Figures 4-6 x-axis).

        With a ``checkpoint``, each population size keeps its own key
        prefix in the shared store, so a killed sweep resumes mid-sweep.
        ``batch_days``/``alloc_cache`` pass through to each :meth:`run`.
        """
        rng = random.Random(seed)
        records: List[AllocatorDayRecord] = []
        for n_households in populations:
            records.extend(
                self.run(
                    n_households,
                    days,
                    spawn_seed(rng),
                    workers=workers,
                    checkpoint=checkpoint,
                    checkpoint_prefix=f"n{n_households}-",
                    audit=audit,
                    timeout_s=timeout_s,
                    retries=retries,
                    batch_days=batch_days,
                    alloc_cache=alloc_cache,
                )
            )
        return records


#: Decides what a household reports on a given day.
ReportPolicy = Callable[[int, HouseholdType, random.Random], Report]

#: Decides what a household consumes given its report and allocation.
ConsumptionPolicy = Callable[
    [int, HouseholdType, Report, Interval, random.Random], Interval
]


def truthful_report_policy(
    day: int, household: HouseholdType, rng: random.Random
) -> Report:
    """Report the true preference every day."""
    return Report(household.household_id, household.true_preference)


def follow_or_closest_policy(
    day: int,
    household: HouseholdType,
    report: Report,
    allocation: Interval,
    rng: random.Random,
) -> Interval:
    """Follow the allocation if it fits the true window, else defect minimally."""
    true = household.true_preference
    return closest_feasible_consumption(true.window, true.duration, allocation)


def _run_simulation_day(
    task: Tuple["NeighborhoodSimulation", Neighborhood, int, int],
) -> DayOutcome:
    """One full mechanism day: report, allocate, consume, settle.

    Module-level so the parallel runtime can pickle it.  Custom policies
    must themselves be picklable (module-level functions or instances) to
    run with ``workers > 1``.
    """
    simulation, neighborhood, root, day = task
    if simulation.chaos is not None:
        simulation.chaos.before_day(day)
    rng, _ = make_day_rngs(root, day)
    reports: Dict[HouseholdId, Report] = {
        hh.household_id: simulation.report_policy(day, hh, rng)
        for hh in neighborhood
    }
    if simulation.chaos is not None:
        reports = simulation.chaos.corrupt_reports(day, reports)
    decisions: Tuple = ()
    screened = simulation.mechanism.screen_reports(neighborhood, reports)
    if screened is not None:
        reports = screened.accepted
        decisions = tuple(screened.decisions)
    allocation_result = simulation.mechanism.allocate(
        neighborhood, reports, random.Random(spawn_seed(rng)), pre_screened=True
    )
    # Excluded (quarantined) households have no allocation and consume
    # nothing through the mechanism that day.
    consumption: ConsumptionMap = {
        hh.household_id: simulation.consumption_policy(
            day,
            hh,
            reports[hh.household_id],
            allocation_result.allocation[hh.household_id],
            rng,
        )
        for hh in neighborhood
        if hh.household_id in allocation_result.allocation
    }
    settlement = simulation.mechanism.settle(
        neighborhood, reports, allocation_result.allocation, consumption
    )
    return DayOutcome(
        reports=reports,
        allocation_result=allocation_result,
        consumption=consumption,
        settlement=settlement,
        quarantine_decisions=decisions,
    )


def _run_simulation_batch(
    task: Tuple["NeighborhoodSimulation", Any, int, List[int]],
) -> List[ColumnarDayOutcome]:
    """A chunk of columnar mechanism days through the columnar day core.

    Every columnar simulation day runs here; a single day is a chunk of
    one.  Each day burns its own keyed substream (chaos firing and
    tie-break seed draw order do not depend on the chunking), then the
    whole chunk flows through
    :meth:`~repro.core.mechanism.EnkiMechanism.run_days_columnar` — one
    screen, one compile, one allocation batch.  The neighborhood
    reference may be a :class:`~repro.sim.shm.SharedColumnarDay`
    descriptor (the shared-memory transport), reconstructed here as
    zero-copy views.
    """
    simulation, neighborhood, root, chunk = task
    rngs: List[random.Random] = []
    for day in chunk:
        if simulation.chaos is not None:
            simulation.chaos.before_day(day)
        rng, _ = make_day_rngs(root, day)
        rngs.append(random.Random(spawn_seed(rng)))
    if isinstance(neighborhood, SharedColumnarDay):
        neighborhood = neighborhood.neighborhood()
    return simulation.mechanism.run_days_columnar(neighborhood, rngs)


def _solve_day_shard(
    task: Tuple[SharedColumnarDay, int, int, Allocator, Any, int],
) -> np.ndarray:
    """Solve one contiguous row shard of a shared columnar day.

    Compiles rows ``[lo, hi)`` straight from the shared segment (no copy)
    and runs the allocator's columnar kernel on that slice alone; returns
    the shard's begin-slot vector.
    """
    day, lo, hi, allocator, pricing, seed = task
    compiled = day.compile_rows(lo, hi, pricing)
    return allocator.solve_columnar(compiled, pricing, random.Random(seed)).starts


def run_columnar_day_sharded(
    mechanism: EnkiMechanism,
    neighborhood: ColumnarNeighborhood,
    shards: int,
    workers: Optional[int] = 1,
    rng: Optional[random.Random] = None,
) -> ColumnarDayOutcome:
    """One truthful columnar day with the allocation sharded across rows.

    The city-scale (1M-household) path: the day is packed once into
    shared memory, each worker compiles and solves a contiguous row slice
    independently, and the parent concatenates the begin slots, validates
    them and settles once through
    :meth:`~repro.core.mechanism.EnkiMechanism.finish_day_columnar`.

    Sharding changes the solution: each shard schedules against an empty
    profile, blind to the others, so the result is an approximation of
    the unsharded allocation (fine for the greedy allocator's throughput
    studies; meaningless for an exact solver).  It is deterministic given
    ``(neighborhood, shards, seed)`` — shard seeds are drawn from ``rng``
    in shard order up front — and therefore bit-identical across worker
    counts.  ``shards=1`` is exactly :meth:`~repro.core.mechanism.
    EnkiMechanism.run_day_columnar`.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if isinstance(neighborhood, Neighborhood):
        neighborhood = ColumnarNeighborhood.from_objects(neighborhood)
    rng = rng if rng is not None else random.Random(mechanism._seed)
    if shards == 1:
        return mechanism.run_day_columnar(neighborhood, rng=rng)

    started_at = time.perf_counter()
    neighborhood, reports, kept, decisions = mechanism.screen_day_columnar(
        neighborhood
    )
    n = len(neighborhood)
    shards = max(1, min(shards, n))
    seeds = [spawn_seed(rng) for _ in range(shards)]
    edges = [n * i // shards for i in range(shards + 1)]
    with SharedArena() as arena:
        day = arena.pack_day(neighborhood)
        tasks = [
            (day, edges[i], edges[i + 1], mechanism.allocator, mechanism.pricing,
             seeds[i])
            for i in range(shards)
        ]
        shard_starts = map_tasks(_solve_day_shard, tasks, workers=workers)
    starts = np.concatenate(shard_starts) if shard_starts else np.zeros(0, np.intp)
    profile = LoadProfile.from_arrays(
        starts, starts + neighborhood.duration, neighborhood.rating
    )
    result = ColumnarAllocationResult(
        starts=starts,
        cost=mechanism.pricing.cost(profile),
        wall_time_s=time.perf_counter() - started_at,
        allocator_name=f"{mechanism.allocator.name}+shard{shards}",
    )
    return mechanism.finish_day_columnar(
        neighborhood, reports, result, kept=kept, decisions=decisions
    )


class NeighborhoodSimulation:
    """Run the full Enki mechanism over multiple days with custom behaviour.

    Args:
        mechanism: The mechanism under study; a default
            :class:`EnkiMechanism` when omitted.  Configure its
            ``quarantine`` to screen reports (required when ``chaos``
            injects malformed ones).
        report_policy: What each household reports every day.
        consumption_policy: What each allocated household consumes.
        chaos: Optional deterministic fault injector.
        columnar: Run each day through
            :meth:`EnkiMechanism.run_day_columnar` — the structure-of-
            arrays fast path.  Requires the default (truthful /
            closest-feasible) policies, and :meth:`run` then returns
            :class:`~repro.core.mechanism.ColumnarDayOutcome` items.
    """

    def __init__(
        self,
        mechanism: Optional[EnkiMechanism] = None,
        report_policy: ReportPolicy = truthful_report_policy,
        consumption_policy: ConsumptionPolicy = follow_or_closest_policy,
        chaos: Optional[ChaosInjector] = None,
        columnar: bool = False,
    ) -> None:
        self.mechanism = mechanism if mechanism is not None else EnkiMechanism()
        self.report_policy = report_policy
        self.consumption_policy = consumption_policy
        self.chaos = chaos
        self.columnar = columnar
        if (
            chaos is not None
            and chaos.plan.malformed_days
            and self.mechanism.quarantine is None
        ):
            raise ValueError(
                "chaos injects malformed reports; configure the mechanism "
                "with a quarantine to absorb them"
            )
        if columnar:
            if (
                report_policy is not truthful_report_policy
                or consumption_policy is not follow_or_closest_policy
            ):
                raise ValueError(
                    "the columnar path supports only the default truthful/"
                    "closest-feasible policies (custom policies are written "
                    "against per-household objects)"
                )
            if chaos is not None and chaos.plan.malformed_days:
                raise ValueError(
                    "chaos report corruption operates on object reports; the "
                    "columnar path cannot run days with malformed_days planned"
                )

    def run(
        self,
        neighborhood: Neighborhood,
        days: int,
        seed: Optional[int] = None,
        workers: Optional[int] = 1,
        checkpoint: Optional[CheckpointStore] = None,
        checkpoint_prefix: str = "",
        audit: Optional[AuditLog] = None,
        timeout_s: Optional[float] = None,
        retries: int = DEFAULT_RETRIES,
        transport: str = "auto",
        batch_days: int = 1,
    ) -> List[DayOutcome]:
        """Simulate ``days`` settled days for a fixed neighborhood.

        Args:
            neighborhood: The households (fixed across days).
            days: Number of independent settled days.
            seed: Master seed; day ``d`` draws from substream ``(seed, d)``.
            workers: Process count for the day fan-out; ``1`` (default)
                runs serially.  Parallel output is bit-identical to serial.
            checkpoint: Persist each day's outcome as it completes and
                replay already-completed days on rerun (``--resume``).
            checkpoint_prefix: Key prefix inside the store.
            audit: Structured event log for quarantine/fallback/worker
                events.
            timeout_s: Stall detector for the parallel runtime.
            retries: Pool retry budget per failed day before inline rerun.
            transport: How columnar day tasks reach workers.  ``"shm"``
                packs the neighborhood once into a shared-memory segment
                and ships a tiny descriptor per day (zero-copy views in
                the workers); ``"pickle"`` serializes the neighborhood
                into every task (the pre-shm behaviour); ``"auto"``
                (default) picks ``"shm"`` whenever the columnar day loop
                fans out to workers.  Outcomes are bit-identical across
                transports.  Non-columnar runs must leave this ``"auto"``
                or ``"pickle"``.
            batch_days: Columnar-only: run up to this many consecutive
                days per worker task through one
                :meth:`~repro.core.mechanism.EnkiMechanism.
                run_days_columnar` batch (one screen, one compile, one
                placement sweep).  ``1`` (default) gives one-day
                batches through the same code; outcomes are
                bit-identical for every value (modulo per-call wall
                times).

        On the columnar path (``columnar=True``), ``neighborhood`` may be
        either representation (an object :class:`Neighborhood` is lowered
        once up front), the returned list holds
        :class:`~repro.core.mechanism.ColumnarDayOutcome` items, and
        checkpointing is not supported (outcomes are arrays, not the
        serialized object form).
        """
        if days < 1:
            raise ValueError(f"days must be >= 1, got {days}")
        if batch_days < 1:
            raise ValueError(f"batch_days must be >= 1, got {batch_days}")
        if batch_days > 1 and not self.columnar:
            raise ValueError(
                "batch_days > 1 requires the columnar path (construct the "
                "simulation with columnar=True)"
            )
        if transport not in ("auto", "pickle", "shm"):
            raise ValueError(
                f"transport must be 'auto', 'pickle' or 'shm', got {transport!r}"
            )
        if transport == "shm" and not self.columnar:
            raise ValueError(
                "the shared-memory transport carries columnar arrays; "
                "construct the simulation with columnar=True"
            )
        if self.columnar:
            if checkpoint is not None:
                raise ValueError(
                    "checkpointing is not supported on the columnar path"
                )
            if isinstance(neighborhood, Neighborhood):
                neighborhood = ColumnarNeighborhood.from_objects(neighborhood)
        root = root_entropy(seed)
        done, pending = _pending_days(
            checkpoint,
            checkpoint_prefix,
            days,
            {"root": root, "days": days, "n_households": len(neighborhood)},
        )
        chunks = _plan_batches(pending, batch_days, self.chaos)
        arena: Optional[SharedArena] = None
        if self.columnar:
            day_ref: Any = neighborhood
            if transport == "shm" or (
                transport == "auto" and workers not in (None, 1)
            ):
                arena = SharedArena()
                day_ref = arena.pack_day(neighborhood)
            day_fn: Callable = _run_simulation_batch
            tasks: List[Any] = [(self, day_ref, root, chunk) for chunk in chunks]
        else:
            day_fn = _run_simulation_day
            tasks = [(self, neighborhood, root, chunk[0]) for chunk in chunks]

        def _persist(day: int, outcome: DayOutcome) -> None:
            checkpoint.append(
                day_key(day, checkpoint_prefix), day_outcome_to_dict(outcome)
            )

        try:
            computed = _run_chunks(
                day_fn,
                tasks,
                chunks,
                self.columnar,
                workers,
                timeout_s,
                retries,
                _persist if checkpoint is not None else None,
                audit,
            )
        finally:
            if arena is not None:
                arena.dispose()

        outcomes: List[DayOutcome] = []
        for day in range(days):
            if day in computed:
                outcome = computed[day]
                if audit is not None:
                    for payload in _quarantine_payloads(outcome.quarantine_decisions):
                        audit.append(
                            AuditEvent(kind="report_quarantined", day=day, payload=payload)
                        )
                    if outcome.allocation_result.served_tier > 0:
                        audit.append(
                            AuditEvent(
                                kind="fallback_served",
                                day=day,
                                payload={
                                    "served_tier": outcome.allocation_result.served_tier,
                                    "trail": [
                                        record.as_payload()
                                        for record in outcome.allocation_result.fallback_trail
                                    ],
                                },
                            )
                        )
            else:
                outcome = day_outcome_from_dict(
                    done[day_key(day, checkpoint_prefix)]
                )
            outcomes.append(outcome)
        return outcomes
