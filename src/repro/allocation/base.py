"""Allocator interface and the allocation problem (Eq. 2).

An allocation problem fixes, for each household, a window, a duration and a
power rating; an allocator places one duration-length block per household
inside its window so as to minimize the neighborhood cost
``kappa = sum_h P_h(l_h)``.
"""

from __future__ import annotations

import abc
import random
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.intervals import Interval
from ..core.types import (
    AllocationMap,
    HouseholdId,
    HouseholdType,
    Report,
)
from ..pricing.base import PricingModel
from ..pricing.load_profile import LoadProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from .arrays import CompiledProblem
    from .cache import AllocationCache


@dataclass(frozen=True)
class AllocationItem:
    """One household's scheduling request inside an allocation problem."""

    household_id: HouseholdId
    window: Interval
    duration: int
    rating_kw: float

    def __post_init__(self) -> None:
        if self.duration < 1:
            raise ValueError(f"duration must be >= 1, got {self.duration}")
        if self.window.length < self.duration:
            raise ValueError(
                f"window {self.window} cannot fit duration {self.duration}"
            )
        if self.rating_kw <= 0:
            raise ValueError(f"rating must be positive, got {self.rating_kw}")

    @property
    def n_placements(self) -> int:
        """Number of feasible begin slots (``slack + 1``)."""
        return self.window.length - self.duration + 1

    @property
    def energy_kwh(self) -> float:
        """Energy this household consumes regardless of placement."""
        return self.duration * self.rating_kw

    def placements(self) -> Tuple[Interval, ...]:
        """All feasible duration-length blocks, earliest first."""
        return tuple(
            Interval(start, start + self.duration)
            for start in range(self.window.start, self.window.end - self.duration + 1)
        )


@dataclass(frozen=True)
class AllocationProblem:
    """A day's scheduling instance: requests plus the pricing model."""

    items: Tuple[AllocationItem, ...]
    pricing: PricingModel

    def __post_init__(self) -> None:
        ids = [item.household_id for item in self.items]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate household ids in allocation problem")

    @classmethod
    def from_reports(
        cls,
        reports: Mapping[HouseholdId, Report],
        types: Mapping[HouseholdId, HouseholdType],
        pricing: PricingModel,
    ) -> "AllocationProblem":
        """Build the day's problem from household reports."""
        items = tuple(
            AllocationItem(
                household_id=hid,
                window=report.preference.window,
                duration=report.preference.duration,
                rating_kw=types[hid].rating_kw,
            )
            for hid, report in reports.items()
        )
        return cls(items=items, pricing=pricing)

    def __len__(self) -> int:
        return len(self.items)

    def cost(self, allocation: AllocationMap) -> float:
        """Neighborhood cost ``kappa`` of an allocation for this problem."""
        profile = LoadProfile.from_intervals(
            (allocation[item.household_id], item.rating_kw) for item in self.items
        )
        return self.pricing.cost(profile)

    def is_feasible(self, allocation: AllocationMap) -> bool:
        """True when every item got a valid block inside its window."""
        for item in self.items:
            placed = allocation.get(item.household_id)
            if placed is None:
                return False
            if placed.length != item.duration or not item.window.contains(placed):
                return False
        return True

    def search_space_size(self) -> int:
        """Product of per-household placement counts (Eq. 2 feasible set)."""
        size = 1
        for item in self.items:
            size *= item.n_placements
        return size


@dataclass
class AllocationResult:
    """An allocator's answer plus solve diagnostics.

    ``served_tier``/``fallback_trail`` are filled in by
    :class:`repro.robustness.fallback.FallbackAllocator`: the tier index
    that produced this allocation (0 = primary solver) and the record of
    every tier attempt that led to it.

    ``root_bound_matched`` is set by the exact solver when its root
    relaxation certified the incumbent — either immediately (the reported
    ``nodes_explored`` is then 1, the root evaluation) or as soon as the
    search found an incumbent meeting the root bound.

    ``kernel_backend`` records which :mod:`repro.kernels` build ran the
    solver's hot loop (``"numba"`` or ``"python"``; empty for allocators
    that have no kernelized loop).  Diagnostic only — both builds are
    bit-identical — but essential provenance for benchmark entries.

    ``cache_hit`` is provenance from
    :class:`repro.allocation.cache.AllocationCache`: ``True`` when this
    result was replayed from the memoization store instead of solved.
    The payload of a hit is byte-identical to the stored solve; only
    ``wall_time_s`` (the lookup time) and this flag differ.
    """

    allocation: AllocationMap
    cost: float
    wall_time_s: float
    proven_optimal: bool = False
    nodes_explored: int = 0
    lower_bound: Optional[float] = None
    allocator_name: str = ""
    served_tier: int = 0
    fallback_trail: Tuple = ()
    root_bound_matched: bool = False
    kernel_backend: str = ""
    cache_hit: bool = False


@dataclass
class ColumnarAllocationResult:
    """An allocator's answer on the columnar path: begin slots as a vector.

    ``starts[i]`` is the begin slot of the household at row ``i`` of the
    compiled problem; no per-household ``Interval`` objects are built.
    :meth:`to_result` bridges back to :class:`AllocationResult` when a
    consumer needs the dict-of-intervals form.
    """

    starts: np.ndarray
    cost: float
    wall_time_s: float
    proven_optimal: bool = False
    nodes_explored: int = 0
    lower_bound: Optional[float] = None
    allocator_name: str = ""
    served_tier: int = 0
    fallback_trail: Tuple = ()
    root_bound_matched: bool = False
    kernel_backend: str = ""
    cache_hit: bool = False

    def to_result(self, compiled: "CompiledProblem") -> AllocationResult:
        """Materialize the dict-of-intervals :class:`AllocationResult`."""
        durations = compiled.duration.tolist()
        starts = self.starts.tolist()
        allocation = {
            hid: Interval(s, s + v)
            for hid, s, v in zip(compiled.ids, starts, durations)
        }
        return AllocationResult(
            allocation=allocation,
            cost=self.cost,
            wall_time_s=self.wall_time_s,
            proven_optimal=self.proven_optimal,
            nodes_explored=self.nodes_explored,
            lower_bound=self.lower_bound,
            allocator_name=self.allocator_name,
            served_tier=self.served_tier,
            fallback_trail=self.fallback_trail,
            root_bound_matched=self.root_bound_matched,
            kernel_backend=self.kernel_backend,
            cache_hit=self.cache_hit,
        )


def problem_from_compiled(
    compiled: "CompiledProblem", pricing: PricingModel
) -> AllocationProblem:
    """Materialize an object :class:`AllocationProblem` from compiled arrays.

    The fallback bridge for allocators without a native columnar kernel:
    the objects are rebuilt in row order, so ``problem.items[i]`` is the
    household at compiled row ``i``.
    """
    items = tuple(
        AllocationItem(
            household_id=hid,
            window=Interval(a, b),
            duration=v,
            rating_kw=r,
        )
        for hid, a, b, v, r in zip(
            compiled.ids,
            compiled.win_start.tolist(),
            compiled.win_end.tolist(),
            compiled.duration.tolist(),
            compiled.rating.tolist(),
        )
    )
    return AllocationProblem(items=items, pricing=pricing)


class Allocator(abc.ABC):
    """Strategy interface for solving :class:`AllocationProblem`."""

    #: Human-readable name used in experiment output.
    name: str = "allocator"

    @abc.abstractmethod
    def solve(
        self, problem: AllocationProblem, rng: Optional[random.Random] = None
    ) -> AllocationResult:
        """Produce a feasible allocation for ``problem``.

        Args:
            problem: The day's scheduling instance.
            rng: Randomness source for tie-breaking; a fresh deterministic
                generator is used when omitted.
        """

    def solve_columnar(
        self,
        compiled: "CompiledProblem",
        pricing: PricingModel,
        rng: Optional[random.Random] = None,
    ) -> ColumnarAllocationResult:
        """Solve a compiled (columnar) instance.

        The default bridges through the object path — materialize the
        ``AllocationProblem``, call :meth:`solve`, and gather the begin
        slots back into a vector — so every allocator works in columnar
        mode at paper sizes.  Allocators with a native array kernel (the
        greedy one) override this to skip the objects entirely.
        """
        problem = problem_from_compiled(compiled, pricing)
        result = self.solve(problem, rng)
        starts = np.fromiter(
            (result.allocation[hid].start for hid in compiled.ids),
            dtype=np.intp,
            count=len(compiled.ids),
        )
        return ColumnarAllocationResult(
            starts=starts,
            cost=result.cost,
            wall_time_s=result.wall_time_s,
            proven_optimal=result.proven_optimal,
            nodes_explored=result.nodes_explored,
            lower_bound=result.lower_bound,
            allocator_name=result.allocator_name,
            served_tier=result.served_tier,
            fallback_trail=result.fallback_trail,
            root_bound_matched=result.root_bound_matched,
            kernel_backend=result.kernel_backend,
            cache_hit=result.cache_hit,
        )

    def solve_columnar_batch(
        self,
        compiled_days: Sequence["CompiledProblem"],
        pricing: PricingModel,
        rngs: Sequence[Optional[random.Random]],
    ) -> List[ColumnarAllocationResult]:
        """Solve D compiled days, one tie-break rng per day.

        The default is the per-day loop over :meth:`solve_columnar`;
        allocators with a fused multi-day kernel (the greedy one)
        override it with a bit-identical single pass.
        """
        return [
            self.solve_columnar(compiled, pricing, rng)
            for compiled, rng in zip(compiled_days, rngs)
        ]

    def cache_token(self) -> Optional[str]:
        """Identity string for allocation memoization, or ``None``.

        A non-``None`` token asserts that a solve is a pure function of
        ``(compiled problem, initial rng state)`` — same inputs, byte-
        identical result — and must encode every constructor parameter
        that changes the answer (e.g. the greedy processing order).
        ``None`` (the default) marks the allocator uncacheable, so
        :class:`repro.allocation.cache.AllocationCache` passes its solves
        straight through.
        """
        return None

    def result_cacheable(self, result) -> bool:
        """Whether one concrete ``result`` may enter the memoization store.

        Allocators with anytime behaviour (wall-clock time limits)
        override this to admit only results that are pure functions of
        the inputs — e.g. the exact solver stores proven-optimal answers
        and refuses deadline-truncated incumbents.
        """
        return True

    def _finish(
        self,
        problem: AllocationProblem,
        allocation: AllocationMap,
        started_at: float,
        proven_optimal: bool = False,
        nodes_explored: int = 0,
        lower_bound: Optional[float] = None,
        root_bound_matched: bool = False,
        kernel_backend: str = "",
    ) -> AllocationResult:
        """Assemble a result, validating feasibility."""
        if not problem.is_feasible(allocation):
            raise RuntimeError(
                f"{self.name} produced an infeasible allocation: {allocation}"
            )
        return AllocationResult(
            allocation=allocation,
            cost=problem.cost(allocation),
            wall_time_s=time.perf_counter() - started_at,
            proven_optimal=proven_optimal,
            nodes_explored=nodes_explored,
            lower_bound=lower_bound,
            allocator_name=self.name,
            root_bound_matched=root_bound_matched,
            kernel_backend=kernel_backend,
        )


def solve_columnar_days(
    allocator: Allocator,
    compiled_days: Sequence["CompiledProblem"],
    pricing: PricingModel,
    rngs: Sequence[Optional[random.Random]],
    alloc_cache: Optional["AllocationCache"] = None,
) -> List[ColumnarAllocationResult]:
    """Allocate D compiled days: the one place that picks how.

    With an ``alloc_cache`` every day routes through it (hits replay
    stored results; misses solve per day); otherwise the allocator's
    :meth:`~Allocator.solve_columnar_batch` runs the whole batch.
    """
    if len(rngs) != len(compiled_days):
        raise ValueError(
            f"got {len(rngs)} rngs for {len(compiled_days)} days; need one per day"
        )
    if alloc_cache is not None:
        return [
            alloc_cache.solve_columnar(allocator, compiled, pricing, rng)
            for compiled, rng in zip(compiled_days, rngs)
        ]
    return allocator.solve_columnar_batch(compiled_days, pricing, rngs)
