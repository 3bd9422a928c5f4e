"""Numba ``@njit`` builds of the two hot inner loops.

Imported only through :func:`repro.kernels._load_impl`, so a missing or
broken numba never touches the rest of the package.  Every function here
replicates, float operation for float operation, the pure-python
reference builds in :mod:`repro.kernels.placement` and
:mod:`repro.kernels.bnb`:

* prefix sums accumulate left to right exactly like ``np.cumsum``;
* candidate scans keep the **first** minimum, like ``np.argmin``;
* the child ordering is a stable insertion sort, which produces the one
  ordering ``np.argsort(kind="stable")`` defines (ascending, ties in
  original index order) — the algorithm differs, the answer cannot.

So allocations, costs, node counts and verdicts are bit-identical across
backends; ``tests/test_kernels.py`` pins it property-by-property.

``cache=True`` persists compiled machine code in ``__pycache__`` next to
this file; the first process on a box pays the compile (recorded as
``jit_compile_seconds`` in BENCH meta), later processes only a cache load.
"""

from __future__ import annotations

import numpy as np
from numba import njit


@njit(cache=True)
def place_quadratic(
    order, win_start, win_end, duration, rating, loads, prefix, starts_out
):
    """Ordered greedy placement under quadratic pricing.

    For each household (in the caller-fixed ``order``) the marginal cost
    of a begin slot is, up to a placement-independent constant, the sum of
    existing loads under the block — ``prefix[s + v] - prefix[s]`` against
    the maintained prefix sum.  The prefix vector is updated incrementally
    with the ramp ``r * min(j - s, v)``, the same increments the python
    sweep adds.
    """
    hours = loads.shape[0]
    for at in range(order.shape[0]):
        i = order[at]
        a = win_start[i]
        v = duration[i]
        r = rating[i]
        count = win_end[i] - a - v + 1
        best = prefix[a + v] - prefix[a]
        best_k = 0
        for k in range(1, count):
            value = prefix[a + k + v] - prefix[a + k]
            if value < best:
                best = value
                best_k = k
        s = a + best_k
        starts_out[i] = s
        for h in range(s, s + v):
            loads[h] += r
        for j in range(s + 1, hours + 1):
            d = j - s
            if d > v:
                d = v
            prefix[j] += r * d


@njit(cache=True)
def place_twostep(
    order,
    win_start,
    win_end,
    duration,
    rating,
    threshold,
    low_rate,
    high_rate,
    loads,
    window_prefix,
    starts_out,
):
    """Ordered greedy placement under two-step piecewise-linear pricing.

    Per household: the per-hour marginal cost over its window (the literal
    ``low*min(l, T) + high*max(l - T, 0)`` difference the batched python
    path evaluates), a running window prefix (``np.cumsum`` order), and
    the first-minimum sliding-window delta — then the block lands and the
    running loads update.  No load prefix sum is maintained; this pricing
    path never reads one.
    """
    for at in range(order.shape[0]):
        i = order[at]
        a = win_start[i]
        b = win_end[i]
        v = duration[i]
        r = rating[i]
        width = b - a
        window_prefix[0] = 0.0
        for t in range(width):
            load = loads[a + t]
            base = load if load < threshold else threshold
            excess = load - threshold
            if excess < 0.0:
                excess = 0.0
            bumped = load + r
            base1 = bumped if bumped < threshold else threshold
            excess1 = bumped - threshold
            if excess1 < 0.0:
                excess1 = 0.0
            hourly = (low_rate * base1 + high_rate * excess1) - (
                low_rate * base + high_rate * excess
            )
            window_prefix[t + 1] = window_prefix[t] + hourly
        count = width - v + 1
        best = window_prefix[v] - window_prefix[0]
        best_k = 0
        for k in range(1, count):
            value = window_prefix[k + v] - window_prefix[k]
            if value < best:
                best = value
                best_k = k
        s = a + best_k
        starts_out[i] = s
        for h in range(s, s + v):
            loads[h] += r


@njit(cache=True)
def place_quadratic_batch(
    offsets, order, win_start, win_end, duration, rating, loads, prefix, starts_out
):
    """D stacked :func:`place_quadratic` sweeps; state resets between days.

    ``order[offsets[d]:offsets[d + 1]]`` holds day ``d``'s rows (global
    indices into the stacked columns) in processing order.  The inner
    body is byte-for-byte :func:`place_quadratic`'s, so each day's output
    is bit-identical to a separate per-day call.
    """
    hours = loads.shape[0]
    for d in range(offsets.shape[0] - 1):
        if d:
            for h in range(hours):
                loads[h] = 0.0
            for j in range(hours + 1):
                prefix[j] = 0.0
        for at in range(offsets[d], offsets[d + 1]):
            i = order[at]
            a = win_start[i]
            v = duration[i]
            r = rating[i]
            count = win_end[i] - a - v + 1
            best = prefix[a + v] - prefix[a]
            best_k = 0
            for k in range(1, count):
                value = prefix[a + k + v] - prefix[a + k]
                if value < best:
                    best = value
                    best_k = k
            s = a + best_k
            starts_out[i] = s
            for h in range(s, s + v):
                loads[h] += r
            for j in range(s + 1, hours + 1):
                dd = j - s
                if dd > v:
                    dd = v
                prefix[j] += r * dd


@njit(cache=True)
def place_twostep_batch(
    offsets,
    order,
    win_start,
    win_end,
    duration,
    rating,
    threshold,
    low_rate,
    high_rate,
    loads,
    window_prefix,
    starts_out,
):
    """D stacked :func:`place_twostep` sweeps; loads reset between days."""
    hours = loads.shape[0]
    for d in range(offsets.shape[0] - 1):
        if d:
            for h in range(hours):
                loads[h] = 0.0
        for at in range(offsets[d], offsets[d + 1]):
            i = order[at]
            a = win_start[i]
            b = win_end[i]
            v = duration[i]
            r = rating[i]
            width = b - a
            window_prefix[0] = 0.0
            for t in range(width):
                load = loads[a + t]
                base = load if load < threshold else threshold
                excess = load - threshold
                if excess < 0.0:
                    excess = 0.0
                bumped = load + r
                base1 = bumped if bumped < threshold else threshold
                excess1 = bumped - threshold
                if excess1 < 0.0:
                    excess1 = 0.0
                hourly = (low_rate * base1 + high_rate * excess1) - (
                    low_rate * base + high_rate * excess
                )
                window_prefix[t + 1] = window_prefix[t] + hourly
            count = width - v + 1
            best = window_prefix[v] - window_prefix[0]
            best_k = 0
            for k in range(1, count):
                value = window_prefix[k + v] - window_prefix[k]
                if value < best:
                    best = value
                    best_k = k
            s = a + best_k
            starts_out[i] = s
            for h in range(s, s + v):
                loads[h] += r


@njit(cache=True)
def bnb_children(
    loads, starts_idx, ends_idx, two_sigma_r, self_term, prefix, deltas, order
):
    """B&B child enumeration: per-candidate cost deltas, visited stably.

    Rebuilds the 24-hour load prefix sum (``np.cumsum`` accumulation
    order), evaluates every begin candidate's exact marginal cost
    ``2*sigma*r * window_sum + sigma*r^2*v`` through the compiled
    begin/end index vectors, and writes the stable cheapest-first child
    order into ``order[:count]``.  The transposition table, bounds and
    recursion stay in Python — this is only the per-node expansion.
    """
    hours = loads.shape[0]
    acc = 0.0
    for h in range(hours):
        acc += loads[h]
        prefix[h + 1] = acc
    count = starts_idx.shape[0]
    for k in range(count):
        deltas[k] = (
            two_sigma_r * (prefix[ends_idx[k]] - prefix[starts_idx[k]]) + self_term
        )
    for k in range(count):
        order[k] = k
    for k in range(1, count):
        moved = order[k]
        key = deltas[moved]
        j = k - 1
        while j >= 0 and deltas[order[j]] > key:
            order[j + 1] = order[j]
            j -= 1
        order[j + 1] = moved
    return count


def warm() -> None:
    """Compile every kernel for its production signature (tiny inputs)."""
    order = np.zeros(1, dtype=np.intp)
    win_start = np.zeros(1, dtype=np.intp)
    win_end = np.full(1, 2, dtype=np.intp)
    duration = np.ones(1, dtype=np.intp)
    rating = np.ones(1, dtype=np.float64)
    loads = np.zeros(24, dtype=np.float64)
    prefix = np.zeros(25, dtype=np.float64)
    starts = np.zeros(1, dtype=np.intp)
    place_quadratic(
        order, win_start, win_end, duration, rating, loads.copy(), prefix.copy(), starts
    )
    place_twostep(
        order,
        win_start,
        win_end,
        duration,
        rating,
        1.0,
        1.0,
        2.0,
        loads.copy(),
        prefix.copy(),
        starts,
    )
    offsets = np.array([0, 1], dtype=np.intp)
    place_quadratic_batch(
        offsets,
        order,
        win_start,
        win_end,
        duration,
        rating,
        loads.copy(),
        prefix.copy(),
        starts,
    )
    place_twostep_batch(
        offsets,
        order,
        win_start,
        win_end,
        duration,
        rating,
        1.0,
        1.0,
        2.0,
        loads.copy(),
        prefix.copy(),
        starts,
    )
    starts_idx = np.zeros(1, dtype=np.intp)
    ends_idx = np.ones(1, dtype=np.intp)
    deltas = np.zeros(24, dtype=np.float64)
    child_order = np.zeros(24, dtype=np.intp)
    bnb_children(
        loads, starts_idx, ends_idx, 1.0, 1.0, prefix.copy(), deltas, child_order
    )
