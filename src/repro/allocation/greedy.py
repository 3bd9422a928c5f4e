"""Enki's greedy allocator (Section IV-C).

Households are handled in order of *increasing* predicted flexibility
(Eq. 4 computed from reports, assuming truthfulness), breaking ties
randomly.  Each household in turn receives the placement inside its window
that minimally increases the neighborhood cost given the blocks placed so
far.  One pass, O(n log n + n * W * v) — the tractability half of the
paper's Figure 6 comparison.

Two solve paths share the placement logic:

* :meth:`GreedyFlexibilityAllocator.solve` — the object path over
  ``AllocationItem``s, with a fresh prefix-sum rebuild per placement.
* :meth:`GreedyFlexibilityAllocator.solve_columnar` — the large-n kernel:
  one ``flexibility_vector`` call, tie-break keys drawn in row order
  from the rng, one ``np.lexsort``, then the whole ordered-placement
  sweep in :func:`repro.kernels.placement.place_day`
  (:meth:`~GreedyFlexibilityAllocator.solve_columnar_batch` runs D days
  through :func:`repro.kernels.placement.place_batch`).  The python build
  of that sweep is one loop over plain lists (about 0.4 s for a
  quadratic-priced n = 100k day on a 2-core box), and a numba build runs
  instead when the kernel registry selects it; the backend that ran is
  recorded on the result.  On the paper's exact-binary ratings every
  partial sum is exact, so the object and columnar paths pick identical
  placements (pinned by ``tests/test_columnar_equivalence.py``).
"""

from __future__ import annotations

import random
import time
from itertools import islice
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.flexibility import flexibility_vector
from ..core.intervals import HOURS_PER_DAY, Interval
from ..core.types import AllocationMap, HouseholdId
from ..kernels import active_backend
from ..kernels.placement import place_batch, place_day
from ..pricing.base import PricingModel
from ..pricing.load_profile import LoadProfile
from ..pricing.quadratic import QuadraticPricing
from .arrays import CompiledProblem, compile_problem
from .base import (
    AllocationProblem,
    AllocationResult,
    Allocator,
    ColumnarAllocationResult,
)


def _tie_break_keys(rng: random.Random, n: int) -> np.ndarray:
    """``n`` random tie-break keys, one ``rng.random()`` call per row in order.

    The draws go through the rng's own bound ``random`` (so subclasses and
    overrides are honored) but without a Python frame per draw: the same
    sequence as ``[rng.random() for _ in range(n)]``.
    """
    return np.fromiter(islice(iter(rng.random, None), n), dtype=float, count=n)


def predicted_flexibility_for_problem(
    problem: AllocationProblem,
    compiled: Optional[CompiledProblem] = None,
) -> Dict[HouseholdId, float]:
    """Predicted flexibility (Eq. 4) of each item from the problem's windows.

    Reuses the problem's :class:`CompiledProblem` start/end/duration
    arrays (compiled once per problem object and shared with the solvers)
    instead of rebuilding them with per-item ``np.fromiter`` passes.
    """
    if compiled is None:
        compiled = compile_problem(problem)
    if len(compiled) == 0:
        return {}
    scores = flexibility_vector(
        compiled.win_start, compiled.win_end, compiled.duration
    )
    return dict(zip(compiled.ids, scores.tolist()))


class GreedyFlexibilityAllocator(Allocator):
    """The Enki greedy allocation of Section IV-C.

    Args:
        ascending: Process least-flexible households first (the paper's
            order).  The ordering ablation flips this to show why the
            inflexible-first order matters: rigid households have few
            choices, so fixing them early lets flexible ones fill valleys.
        seed: Tie-break seed used when ``solve`` is not handed an rng.
    """

    name = "enki-greedy"

    def __init__(self, ascending: bool = True, seed: Optional[int] = None) -> None:
        self.ascending = ascending
        self._seed = seed

    def cache_token(self) -> str:
        """Greedy solves are pure in (problem, rng): memoizable.

        The token pins the processing order and the fallback tie-break
        seed (consulted only when a solve is not handed an rng) — the two
        constructor knobs that change the answer.
        """
        return f"enki-greedy:asc={self.ascending}:seed={self._seed}"

    def solve(
        self, problem: AllocationProblem, rng: Optional[random.Random] = None
    ) -> AllocationResult:
        started_at = time.perf_counter()
        rng = rng if rng is not None else random.Random(self._seed)

        compiled = compile_problem(problem)
        flexibility = predicted_flexibility_for_problem(problem, compiled)
        # Random tie-breaking via a per-household random key, then flexibility.
        order = sorted(
            problem.items,
            key=lambda item: (
                flexibility[item.household_id]
                if self.ascending
                else -flexibility[item.household_id],
                rng.random(),
            ),
        )

        loads = np.zeros(HOURS_PER_DAY, dtype=float)
        prefix = np.zeros(HOURS_PER_DAY + 1, dtype=float)
        window_prefix = np.zeros(HOURS_PER_DAY + 1, dtype=float)
        allocation: AllocationMap = {}
        quadratic = isinstance(problem.pricing, QuadraticPricing)
        for item in order:
            best_start = self._best_start(
                problem, compiled, loads, prefix, item, quadratic, window_prefix
            )
            placed = Interval(best_start, best_start + item.duration)
            allocation[item.household_id] = placed
            loads[placed.start:placed.end] += item.rating_kw
            np.cumsum(loads, out=prefix[1:])

        return self._finish(problem, allocation, started_at)

    def solve_columnar(
        self,
        compiled: CompiledProblem,
        pricing: PricingModel,
        rng: Optional[random.Random] = None,
    ) -> ColumnarAllocationResult:
        """The large-n greedy kernel: no per-household objects.

        Flexibility scores come from one :func:`flexibility_vector` call;
        the processing order is one stable ``np.lexsort`` over
        ``(tie_key, flexibility)`` with tie keys drawn in row order from
        ``rng`` (the same draw sequence the object path's ``sorted`` key
        function consumes); the ordered-placement sweep itself — candidate
        argmin plus O(24) incremental load/prefix updates per placement —
        runs in :func:`repro.kernels.placement.place_day`, compiled or
        pure-python per the kernel registry, bit-identical either way.
        """
        started_at = time.perf_counter()
        rng = rng if rng is not None else random.Random(self._seed)
        n = len(compiled)
        starts_out = np.zeros(n, dtype=np.intp)
        if n == 0:
            return ColumnarAllocationResult(
                starts=starts_out,
                cost=pricing.cost(LoadProfile()),
                wall_time_s=time.perf_counter() - started_at,
                allocator_name=self.name,
                kernel_backend=active_backend(),
            )

        flex = flexibility_vector(
            compiled.win_start, compiled.win_end, compiled.duration
        )
        keys = _tie_break_keys(rng, n)
        order = np.lexsort((keys, flex if self.ascending else -flex))

        win_start, win_end, duration, rating = compiled.kernel_columns()
        backend = place_day(
            order,
            win_start,
            win_end,
            duration,
            rating,
            pricing,
            starts_out,
        )

        # Cost through the same difference-array builder the object path's
        # ``problem.cost`` uses, rows in compiled order, so the float
        # accumulation sequence matches bit for bit.
        profile = LoadProfile.from_arrays(
            starts_out, starts_out + compiled.duration, compiled.rating
        )
        return ColumnarAllocationResult(
            starts=starts_out,
            cost=pricing.cost(profile),
            wall_time_s=time.perf_counter() - started_at,
            allocator_name=self.name,
            kernel_backend=backend,
        )

    def solve_columnar_batch(
        self,
        compiled_days: Sequence[CompiledProblem],
        pricing: PricingModel,
        rngs: Sequence[Optional[random.Random]],
    ) -> List[ColumnarAllocationResult]:
        """Fused greedy over a batch of days: one kernel call for all D.

        Per-day work that is inherently day-local stays per-day and in
        day order — flexibility scores (coverage is a day-local
        reduction) and tie keys (each day's rng draws exactly the
        sequence :meth:`solve_columnar` would) — then one global stable
        ``np.lexsort`` with the day index as the most-significant key
        reproduces every day's within-day processing order, and
        :func:`repro.kernels.placement.place_batch` runs all D
        ordered-placement sweeps in a single kernel invocation.  Results
        are bit-identical to D separate :meth:`solve_columnar` calls
        (pinned by ``tests/test_batch_equivalence.py``); each day's
        ``wall_time_s`` is the batch total apportioned evenly, which is
        why equivalence checks exclude that field.
        """
        started_at = time.perf_counter()
        n_days = len(compiled_days)
        if len(rngs) != n_days:
            raise ValueError(
                f"got {len(rngs)} rngs for {n_days} days; need one per day"
            )
        lengths = np.array([len(c) for c in compiled_days], dtype=np.intp)
        offsets = np.zeros(n_days + 1, dtype=np.intp)
        np.cumsum(lengths, out=offsets[1:])
        total = int(offsets[-1])
        starts_out = np.zeros(total, dtype=np.intp)

        flex_parts: List[np.ndarray] = []
        key_parts: List[np.ndarray] = []
        for compiled, rng in zip(compiled_days, rngs):
            n = len(compiled)
            if n == 0:
                # Mirror solve_columnar's empty-day early return: no
                # flexibility pass (it rejects empty coverage) and zero
                # rng draws.
                continue
            rng = rng if rng is not None else random.Random(self._seed)
            flex_parts.append(
                flexibility_vector(
                    compiled.win_start, compiled.win_end, compiled.duration
                )
            )
            key_parts.append(_tie_break_keys(rng, n))
        if total:
            flex = np.concatenate(flex_parts)
            keys = np.concatenate(key_parts)
            day_idx = np.repeat(np.arange(n_days, dtype=np.intp), lengths)
            # Day most-significant, then the per-day (flexibility, tie-key)
            # pair: lexsort is stable, so rows of day k land in exactly the
            # order the per-day lexsort would produce.
            order = np.lexsort((keys, flex if self.ascending else -flex, day_idx))
            win_start = np.concatenate([c.win_start for c in compiled_days])
            win_end = np.concatenate([c.win_end for c in compiled_days])
            duration = np.concatenate([c.duration for c in compiled_days])
            rating = np.concatenate([c.rating for c in compiled_days])
            backend = place_batch(
                offsets,
                order,
                win_start,
                win_end,
                duration,
                rating,
                pricing,
                starts_out,
            )
        else:
            backend = active_backend()

        elapsed = time.perf_counter() - started_at
        per_day_s = elapsed / n_days if n_days else elapsed
        results: List[ColumnarAllocationResult] = []
        for k, compiled in enumerate(compiled_days):
            day_starts = starts_out[offsets[k]:offsets[k + 1]].copy()
            if len(compiled) == 0:
                cost = pricing.cost(LoadProfile())
            else:
                profile = LoadProfile.from_arrays(
                    day_starts, day_starts + compiled.duration, compiled.rating
                )
                cost = pricing.cost(profile)
            results.append(
                ColumnarAllocationResult(
                    starts=day_starts,
                    cost=cost,
                    wall_time_s=per_day_s,
                    allocator_name=self.name,
                    kernel_backend=backend,
                )
            )
        return results

    @staticmethod
    def _best_start(
        problem: AllocationProblem,
        compiled: CompiledProblem,
        loads: np.ndarray,
        prefix: np.ndarray,
        item,
        quadratic: bool,
        window_prefix: np.ndarray,
    ) -> int:
        """Begin slot minimizing the marginal cost of this item's block.

        Under quadratic pricing the marginal cost of a block is, up to a
        placement-independent constant, proportional to the sum of existing
        loads under the block; the compiled begin-candidate index vectors
        turn the maintained prefix sum into every candidate window's sum in
        one vectorized subtraction, reused across placements instead of
        re-convolving per item.  Other pricing models get the same
        sliding-window treatment over batched per-hour marginal costs
        (which depend only on that hour's load), accumulated into the
        caller's reused ``window_prefix`` scratch row (entry 0 stays 0)
        instead of a per-item ``np.concatenate`` — so no candidate rescans
        its hours and no placement allocates.
        """
        a, b, v = item.window.start, item.window.end, item.duration
        if quadratic:
            # Window sum of existing loads for every start s: prefix[s+v]-prefix[s].
            sums = compiled.block_sums(prefix, compiled.index_of[item.household_id])
            return a + int(np.argmin(sums))

        width = b - a
        hourly = problem.pricing.marginal_cost_batch(loads[a:b], item.rating_kw)
        np.cumsum(hourly, out=window_prefix[1:width + 1])
        deltas = window_prefix[v:width + 1] - window_prefix[:width + 1 - v]
        return a + int(np.argmin(deltas))
