"""Shared driver for the Section VI-A social-welfare study (Figures 4-6).

One run powers all three figures: for population sizes 10..50, simulate 10
independent days; each day both allocators (Enki's greedy and the exact
Optimal) schedule the same truthful wide-interval reports; record PAR,
neighborhood cost and scheduling time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..allocation.greedy import GreedyFlexibilityAllocator
from ..allocation.optimal import BranchAndBoundAllocator
from ..robustness.checkpoint import CheckpointStore
from ..sim.engine import AllocatorDayRecord, SocialWelfareStudy
from ..sim.metrics import SeriesPoint, summarize_records

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..allocation.cache import AllocationCache

#: The paper's x-axis.
PAPER_POPULATIONS: Tuple[int, ...] = (10, 20, 30, 40, 50)

#: Days simulated per population size (the paper's 10 rounds).
PAPER_DAYS = 10

#: Display names matching the paper's legends.
ENKI = "enki-greedy"
OPTIMAL = "optimal-bnb"


@dataclass
class SocialWelfareResult:
    """Raw day records plus the aggregated series for Figures 4-6."""

    records: List[AllocatorDayRecord]
    points: List[SeriesPoint]
    populations: Sequence[int]
    days: int

    def series(self, allocator: str) -> List[SeriesPoint]:
        """The aggregated points of one allocator, ordered by population."""
        return [p for p in self.points if p.allocator == allocator]


def run_social_welfare_study(
    populations: Sequence[int] = PAPER_POPULATIONS,
    days: int = PAPER_DAYS,
    seed: Optional[int] = 2017,
    optimal_time_limit_s: float = 60.0,
    workers: Optional[int] = 1,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    columnar: bool = False,
    bnb_workers: Optional[int] = 1,
    batch_days: int = 1,
    alloc_cache: Optional["AllocationCache"] = None,
) -> SocialWelfareResult:
    """Run the Figures 4-6 study once.

    Args:
        populations: Neighborhood sizes to sweep.
        days: Independent simulated days per size.
        seed: Master seed (profiles regenerate every day, per the paper).
        optimal_time_limit_s: Anytime budget for the exact solver; the
            returned points carry the fraction of days it proved
            optimality within the budget.
        workers: Worker processes for the day fan-out (``1`` = serial,
            ``0`` = all cores); results are bit-identical across counts.
        checkpoint_path: When set, persist each simulated day to this
            JSONL store as it completes.
        resume: With ``checkpoint_path``, replay the days the store
            already holds instead of recomputing them (a killed sweep
            picks up where it stopped, with identical final results);
            without it, any existing store is discarded first.
        columnar: Run each day on the structure-of-arrays fast path (its
            own sampling substream; required for very large populations —
            see ``docs/performance.md``).
        bnb_workers: Worker processes for the exact solver's subtree
            fan-out (``1`` = serial, ``0`` = all cores). Completed runs
            stay bit-identical to serial; anytime runs may prove *more*
            days within the same wall budget.
        batch_days: Columnar-only: fuse up to this many consecutive days
            per worker task into batched array passes; ``1`` runs
            one-day batches through the same code, and results are
            bit-identical for every value.
        alloc_cache: Columnar-only: a digest-keyed
            :class:`~repro.allocation.cache.AllocationCache`; repeated
            identical day instances replay stored allocations
            byte-identically instead of re-solving.
    """
    checkpoint = (
        CheckpointStore(checkpoint_path, fresh=not resume)
        if checkpoint_path is not None
        else None
    )
    study = SocialWelfareStudy(
        allocators=[
            GreedyFlexibilityAllocator(),
            BranchAndBoundAllocator(
                time_limit_s=optimal_time_limit_s, workers=bnb_workers
            ),
        ],
        columnar=columnar,
    )
    records = study.sweep(
        populations,
        days,
        seed,
        workers=workers,
        checkpoint=checkpoint,
        batch_days=batch_days,
        alloc_cache=alloc_cache,
    )
    return SocialWelfareResult(
        records=records,
        points=summarize_records(records),
        populations=list(populations),
        days=days,
    )
