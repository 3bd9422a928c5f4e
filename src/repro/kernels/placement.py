"""Kernel 1: the greedy ``solve_columnar`` ordered-placement sweep.

:func:`place_day` runs the whole placement loop of
:meth:`repro.allocation.greedy.GreedyFlexibilityAllocator.solve_columnar`
— per-item first-minimum window scan (quadratic closed form, or the
marginal-cost sliding window for other pricing), the placement itself,
and the incremental load/prefix updates — and :func:`place_batch` runs D
such sweeps over day-major stacked columns.  Both dispatch to the numba
build when the registry selects it and the pricing model has a compiled
form (exactly :class:`~repro.pricing.quadratic.QuadraticPricing` or
:class:`~repro.pricing.piecewise.TwoStepPricing`).

The processing order and its random tie-break keys are computed by the
caller, so the per-household placement sequence — and therefore the
allocation — is independent of the backend.

The python build is one sweep over plain Python lists (:func:`_sweep`),
shared by both entry points: a single day is a segment list of one.  A
household's work is a handful of C-level list operations on at most 25
floats, with no NumPy call on a ≤24-element slice.  It performs the float
operations of the NumPy loop it replaced, in the same order, so starts
are bit-identical for any ratings:

* quadratic pricing keeps the 25-entry load prefix sum; candidate window
  sums are ``prefix[j + v] - prefix[j]`` and the placement adds
  ``r * min(j - s, v)`` to ``prefix[j]`` for ``j > s``;
* any other pricing keeps the 24 hourly loads and accumulates
  ``pricing.marginal_cost`` over the window left to right (the order of
  ``np.cumsum``) into window deltas;
* the chosen start is the **first** minimum (``np.argmin``'s rule).

At n = 100k on a 2-core box without numba, the quadratic solve takes
about 0.4 s (the NumPy loop took about 1 s) and the two-step solve about
1.5 s (3 s); ``docs/performance.md`` has the recorded numbers.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import sub
from typing import Optional, Sequence

import numpy as np

from ..core.intervals import HOURS_PER_DAY
from ..pricing.base import PricingModel
from ..pricing.piecewise import TwoStepPricing
from ..pricing.quadratic import QuadraticPricing
from . import active_backend, jit_ready, _load_impl


class PlacementScratch:
    """Reusable buffers for the numba sweeps (no per-item allocation).

    ``loads`` is the running hourly load, ``prefix`` its maintained
    25-entry prefix sum (``prefix[0]`` stays 0), and ``window_prefix``
    the per-item marginal-cost prefix row of the two-step kernel (entry
    0 stays 0; only ``[1:window+1]`` is rewritten per item).  The python
    sweep keeps its state in lists and never reads these.
    """

    __slots__ = ("loads", "prefix", "window_prefix")

    def __init__(self) -> None:
        self.loads = np.zeros(HOURS_PER_DAY, dtype=np.float64)
        self.prefix = np.zeros(HOURS_PER_DAY + 1, dtype=np.float64)
        self.window_prefix = np.zeros(HOURS_PER_DAY + 1, dtype=np.float64)

    def reset(self) -> None:
        """Zero the running state for a fresh sweep."""
        self.loads[:] = 0.0
        self.prefix[:] = 0.0
        self.window_prefix[0] = 0.0


def _jit_impl(pricing: PricingModel):
    """The numba module when it should run ``pricing``'s sweep, else None.

    ``type() is`` dispatch: pricing subclasses always take the python
    sweep, whatever the registry says.
    """
    if (
        active_backend() == "numba"
        and jit_ready()
        and type(pricing) in (QuadraticPricing, TwoStepPricing)
    ):
        return _load_impl()
    return None


def place_day(
    order: np.ndarray,
    win_start: np.ndarray,
    win_end: np.ndarray,
    duration: np.ndarray,
    rating: np.ndarray,
    pricing: PricingModel,
    starts_out: np.ndarray,
    scratch: Optional[PlacementScratch] = None,
) -> str:
    """Place every household in ``order``; fill ``starts_out``.

    Returns the backend that actually ran (``"numba"`` or ``"python"``)
    — recorded on the allocation result.
    """
    impl = _jit_impl(pricing)
    if impl is None:
        _sweep(
            (0, len(order)), order, win_start, win_end, duration, rating,
            pricing, starts_out,
        )
        return "python"
    scratch = scratch if scratch is not None else PlacementScratch()
    scratch.reset()
    if type(pricing) is QuadraticPricing:
        impl.place_quadratic(
            order, win_start, win_end, duration, rating,
            scratch.loads, scratch.prefix, starts_out,
        )
    else:
        impl.place_twostep(
            order, win_start, win_end, duration, rating,
            pricing.threshold_kw, pricing.low_rate, pricing.high_rate,
            scratch.loads, scratch.window_prefix, starts_out,
        )
    return "numba"


def place_batch(
    offsets: np.ndarray,
    order: np.ndarray,
    win_start: np.ndarray,
    win_end: np.ndarray,
    duration: np.ndarray,
    rating: np.ndarray,
    pricing: PricingModel,
    starts_out: np.ndarray,
    scratch: Optional[PlacementScratch] = None,
) -> str:
    """Run D independent :func:`place_day` sweeps in one kernel call.

    The columns are D days' instances stacked day-major; ``offsets`` is
    the ``D + 1`` ragged boundary vector and
    ``order[offsets[k]:offsets[k + 1]]`` lists day ``k``'s rows — as
    *global* indices into the stacked columns — in that day's processing
    order (the caller's day-major lexsort guarantees this).  Day state
    (loads, prefix) resets between days; within a day the float sequence
    is exactly :func:`place_day`'s, so ``starts_out`` is bit-identical to
    D separate calls.  Returns the backend that ran.
    """
    impl = _jit_impl(pricing)
    if impl is None:
        _sweep(
            offsets.tolist(), order, win_start, win_end, duration, rating,
            pricing, starts_out,
        )
        return "python"
    scratch = scratch if scratch is not None else PlacementScratch()
    scratch.reset()
    if type(pricing) is QuadraticPricing:
        impl.place_quadratic_batch(
            offsets, order, win_start, win_end, duration, rating,
            scratch.loads, scratch.prefix, starts_out,
        )
    else:
        impl.place_twostep_batch(
            offsets, order, win_start, win_end, duration, rating,
            pricing.threshold_kw, pricing.low_rate, pricing.high_rate,
            scratch.loads, scratch.window_prefix, starts_out,
        )
    return "numba"


def _sweep(
    bounds: Sequence[int],
    order: np.ndarray,
    win_start: np.ndarray,
    win_end: np.ndarray,
    duration: np.ndarray,
    rating: np.ndarray,
    pricing: PricingModel,
    starts_out: np.ndarray,
) -> None:
    """The python build: one plain-list sweep per day segment.

    ``order[bounds[k]:bounds[k + 1]]`` is segment ``k``'s rows in
    processing order; each segment starts from an empty day.  The columns
    are gathered into processing order and lowered to lists once for the
    whole batch, and the starts scattered back in one assignment.
    """
    quadratic = isinstance(pricing, QuadraticPricing)
    marginal = pricing.marginal_cost
    columns = [
        column[order].tolist() for column in (win_start, win_end, duration, rating)
    ]
    placed = []
    for lo, hi in zip(bounds, bounds[1:]):
        prefix = [0.0] * (HOURS_PER_DAY + 1)
        loads = [0.0] * HOURS_PER_DAY
        for a, b, v, r in zip(*(column[lo:hi] for column in columns)):
            if quadratic:
                # Load under the block for every begin slot a..b-v.
                costs = list(map(sub, prefix[a + v:b + 1], prefix[a:b - v + 1]))
            else:
                window = [0.0, *accumulate(map(marginal, loads[a:b], repeat(r)))]
                costs = list(map(sub, window[v:], window[:b - a - v + 1]))
            s = a + costs.index(min(costs))
            placed.append(s)
            e = s + v
            if quadratic:
                for j in range(s + 1, e):
                    prefix[j] += r * (j - s)
                block = r * v
                prefix[e:] = [total + block for total in prefix[e:]]
            else:
                loads[s:e] = [load + r for load in loads[s:e]]
    starts_out[order] = placed
