"""The JIT kernel subsystem: registry semantics and bit-identity.

Two families of guarantees are pinned here:

* **Registry** (:mod:`repro.kernels`): backend resolution order
  (``set_backend`` > ``ENKI_KERNELS`` > auto), env mirroring so worker
  processes inherit the choice, graceful once-logged degradation when
  numba is missing or forced-but-unimportable, idempotent warm-up, and
  the ``--kernels`` CLI flag.
* **Bit-identity**: the kernelized ``solve_columnar`` sweep reproduces a
  verbatim copy of the pre-kernel placement loop — identical starts and
  costs across random compiled problems, both pricing models, degenerate
  (slack-free and full-day) windows, n = 0/1 — and every backend that is
  importable agrees with every other on greedy placements and on B&B
  costs, node counts and proven verdicts.  As in the other equivalence
  suites, ratings are exact binary floats so bit-identity is
  well-defined.

On boxes without numba, ``BACKENDS`` collapses to ``["python"]``: the
cross-backend assertions then exercise the fallback against the legacy
oracle only, and the numba legs skip with the reason logged.
"""

from __future__ import annotations

import logging
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.allocation.arrays import CompiledProblem
from repro.allocation.base import problem_from_compiled
from repro.allocation.greedy import GreedyFlexibilityAllocator
from repro.allocation.optimal import BranchAndBoundAllocator
from repro.core.flexibility import flexibility_vector
from repro.core.intervals import HOURS_PER_DAY
from repro.kernels.bnb import child_expander
from repro.kernels.placement import PlacementScratch, place_batch, place_day
from repro.pricing.base import PricingModel
from repro.pricing.load_profile import LoadProfile
from repro.pricing.piecewise import TwoStepPricing
from repro.pricing.quadratic import QuadraticPricing

#: Exactly-representable ratings (binary fractions, the paper's 2.0 among
#: them), keeping every load sum exact so "bit-identical" is meaningful.
_EXACT_RATINGS = (0.5, 1.0, 2.0, 4.0)

_PRICINGS = (
    QuadraticPricing(sigma=0.3),
    TwoStepPricing(threshold_kw=6.0, low_rate=1.0, high_rate=4.0),
)

#: Ratings whose load sums round: identity must hold beyond exact floats.
_INEXACT_RATINGS = (0.3, 1.37, 2.9)


class _HourlyOnlyPricing(PricingModel):
    """A custom convex price defining only ``hourly_cost``.

    Placement under it runs the generic ``marginal_cost`` path.
    """

    def hourly_cost(self, load_kw: float) -> float:
        return 0.05 * load_kw * load_kw * load_kw + 0.7 * load_kw


#: Every backend usable on this box; the identity suites quantify over it.
BACKENDS = ["python"] + (["numba"] if kernels.numba_available() else [])


@pytest.fixture(autouse=True)
def clean_registry(monkeypatch):
    """Each test starts from an unforced, unprobed registry and clean env."""
    monkeypatch.delenv(kernels.KERNELS_ENV, raising=False)
    kernels._reset_backend_state()
    yield
    kernels._reset_backend_state()


# ------------------------------------------------------------------ oracle

#: Verbatim copy of the pre-kernel ``_RAMPS`` table.
_LEGACY_RAMPS = [None] + [
    np.minimum(np.arange(1, HOURS_PER_DAY + 1, dtype=float), float(v))
    for v in range(1, HOURS_PER_DAY + 1)
]


def _legacy_solve_columnar(allocator, compiled, pricing, rng):
    """The pre-kernel ``solve_columnar`` placement loop, kept verbatim.

    The oracle for the bit-identity suite: starts and cost exactly as the
    shipped implementation computed them before ``repro.kernels`` existed
    (per-item fancy-indexed window sums, per-item
    ``np.concatenate(([0.0], np.cumsum(...)))``, ``_RAMPS`` prefix
    updates).
    """
    n = len(compiled)
    starts_out = np.zeros(n, dtype=np.intp)
    if n == 0:
        return starts_out, pricing.cost(LoadProfile())
    flex = flexibility_vector(
        compiled.win_start, compiled.win_end, compiled.duration
    )
    keys = np.fromiter((rng.random() for _ in range(n)), dtype=float, count=n)
    order = np.lexsort((keys, flex if allocator.ascending else -flex))
    quadratic = isinstance(pricing, QuadraticPricing)
    loads = np.zeros(HOURS_PER_DAY, dtype=float)
    prefix = np.zeros(HOURS_PER_DAY + 1, dtype=float)
    win_start = compiled.win_start.tolist()
    win_end = compiled.win_end.tolist()
    duration = compiled.duration.tolist()
    rating = compiled.rating.tolist()
    start_index = compiled.start_index
    end_index = compiled.end_index
    for i in order.tolist():
        a, v, r = win_start[i], duration[i], rating[i]
        if quadratic:
            sums = prefix[end_index[i]] - prefix[start_index[i]]
            s = a + int(np.argmin(sums))
        else:
            b = win_end[i]
            hourly = pricing.marginal_cost_batch(loads[a:b], r)
            window_prefix = np.concatenate(([0.0], np.cumsum(hourly)))
            deltas = window_prefix[v:] - window_prefix[:-v]
            s = a + int(np.argmin(deltas))
        starts_out[i] = s
        loads[s:s + v] += r
        prefix[s + 1:] += r * _LEGACY_RAMPS[v][:HOURS_PER_DAY - s]
    profile = LoadProfile.from_arrays(
        starts_out, starts_out + compiled.duration, compiled.rating
    )
    return starts_out, pricing.cost(profile)


# -------------------------------------------------------------- strategies

@st.composite
def compiled_problems(
    draw, max_n=25, ratings=_EXACT_RATINGS, pricings=_PRICINGS
):
    """Random compiled instances including n = 0/1 and degenerate windows.

    Windows include slack-free ones (window length == duration: exactly
    one placement) and full-day ones; ratings are drawn from ``ratings``
    (exact binary floats by default).
    """
    n = draw(st.integers(min_value=0, max_value=max_n))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    win_start, win_end, duration, rating = [], [], [], []
    for _ in range(n):
        a = rng.randint(0, HOURS_PER_DAY - 1)
        v = rng.randint(1, HOURS_PER_DAY - a)
        slack = rng.randint(0, HOURS_PER_DAY - a - v)
        win_start.append(a)
        win_end.append(a + v + slack)
        duration.append(v)
        rating.append(rng.choice(ratings))
    pricing = draw(st.sampled_from(pricings))
    compiled = CompiledProblem.from_arrays(
        ids=tuple(f"h{j:03d}" for j in range(n)),
        win_start=np.array(win_start, dtype=np.intp),
        win_end=np.array(win_end, dtype=np.intp),
        duration=np.array(duration, dtype=np.intp),
        rating=np.array(rating, dtype=np.float64),
        pricing=pricing,
    )
    return compiled, pricing


# ----------------------------------------------------- placement identity

class TestPlacementBitIdentity:
    @given(compiled_problems(), st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=40, deadline=None)
    def test_every_backend_matches_the_legacy_loop(self, case, seed):
        compiled, pricing = case
        allocator = GreedyFlexibilityAllocator()
        legacy_starts, legacy_cost = _legacy_solve_columnar(
            allocator, compiled, pricing, random.Random(seed)
        )
        for backend in BACKENDS:
            with kernels.forced_backend(backend):
                result = allocator.solve_columnar(
                    compiled, pricing, random.Random(seed)
                )
            assert np.array_equal(result.starts, legacy_starts), backend
            assert result.cost == legacy_cost, backend
            if len(compiled) and type(pricing) in (
                QuadraticPricing, TwoStepPricing
            ):
                assert result.kernel_backend == backend

    @given(compiled_problems(max_n=12), st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_place_day_backends_agree(self, case, seed):
        """Kernel-level identity, independent of the allocator wrapper."""
        compiled, pricing = case
        n = len(compiled)
        rng = np.random.default_rng(seed)
        order = np.asarray(rng.permutation(n), dtype=np.intp)
        reference = None
        for backend in BACKENDS:
            starts_out = np.zeros(n, dtype=np.intp)
            with kernels.forced_backend(backend):
                used = place_day(
                    order,
                    compiled.win_start,
                    compiled.win_end,
                    compiled.duration,
                    compiled.rating,
                    pricing,
                    starts_out,
                    PlacementScratch(),
                )
            assert used == backend
            if reference is None:
                reference = starts_out
            else:
                assert np.array_equal(starts_out, reference)

    @given(
        compiled_problems(
            ratings=_INEXACT_RATINGS,
            pricings=_PRICINGS + (_HourlyOnlyPricing(),),
        ),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_inexact_ratings_match_the_legacy_loop(self, case, seed):
        """Same float operations in the same order: identity for any rating."""
        compiled, pricing = case
        allocator = GreedyFlexibilityAllocator()
        legacy_starts, legacy_cost = _legacy_solve_columnar(
            allocator, compiled, pricing, random.Random(seed)
        )
        for backend in BACKENDS:
            with kernels.forced_backend(backend):
                result = allocator.solve_columnar(
                    compiled, pricing, random.Random(seed)
                )
            assert np.array_equal(result.starts, legacy_starts), backend
            assert result.cost == legacy_cost, backend

    @given(
        st.lists(
            compiled_problems(
                max_n=15,
                ratings=_EXACT_RATINGS + _INEXACT_RATINGS,
                pricings=(_PRICINGS[0],),
            ),
            min_size=1,
            max_size=5,
        ),
        st.sampled_from(_PRICINGS + (_HourlyOnlyPricing(),)),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_place_batch_matches_separate_days(self, cases, pricing, seed):
        """D ragged segments, empty days included, equal D place_day calls."""
        days = [compiled for compiled, _ in cases]
        empty = np.zeros(0, dtype=np.intp)
        days.insert(len(days) // 2, CompiledProblem.from_arrays(
            ids=(), win_start=empty, win_end=empty, duration=empty,
            rating=np.zeros(0),
        ))
        rng = np.random.default_rng(seed)
        lengths = [len(day) for day in days]
        offsets = np.concatenate(([0], np.cumsum(lengths))).astype(np.intp)
        local_orders = [
            np.asarray(rng.permutation(n), dtype=np.intp) for n in lengths
        ]
        order = np.concatenate(
            [local + offsets[k] for k, local in enumerate(local_orders)]
        ).astype(np.intp)
        stacked = [
            np.concatenate([getattr(day, name) for day in days])
            for name in ("win_start", "win_end", "duration", "rating")
        ]
        for backend in BACKENDS:
            with kernels.forced_backend(backend):
                batch_out = np.zeros(int(offsets[-1]), dtype=np.intp)
                place_batch(offsets, order, *stacked, pricing, batch_out)
                for k, day in enumerate(days):
                    day_out = np.zeros(lengths[k], dtype=np.intp)
                    place_day(
                        local_orders[k],
                        day.win_start,
                        day.win_end,
                        day.duration,
                        day.rating,
                        pricing,
                        day_out,
                        PlacementScratch(),
                    )
                    assert np.array_equal(
                        batch_out[offsets[k]:offsets[k + 1]], day_out
                    ), (backend, k)

    def test_subclassed_pricing_takes_the_python_path(self):
        """``type() is`` dispatch: pricing subclasses never hit the JIT."""

        class TracedQuadratic(QuadraticPricing):
            pass

        compiled = CompiledProblem.from_arrays(
            ids=("a", "b"),
            win_start=np.array([0, 4], dtype=np.intp),
            win_end=np.array([6, 12], dtype=np.intp),
            duration=np.array([2, 3], dtype=np.intp),
            rating=np.array([2.0, 2.0]),
        )
        pricing = TracedQuadratic(sigma=0.3)
        starts_out = np.zeros(2, dtype=np.intp)
        order = np.array([0, 1], dtype=np.intp)
        for backend in BACKENDS:
            with kernels.forced_backend(backend):
                used = place_day(
                    order,
                    compiled.win_start,
                    compiled.win_end,
                    compiled.duration,
                    compiled.rating,
                    pricing,
                    starts_out,
                    PlacementScratch(),
                )
            assert used == "python"


# ----------------------------------------------------------- B&B identity

def _bnb_instances():
    """A handful of fixed small instances, symmetric households included."""
    cases = []
    rng = random.Random(11)
    for n in (1, 4, 7, 10):
        win_start, win_end, duration = [], [], []
        for _ in range(n):
            a = rng.randint(0, 16)
            v = rng.randint(1, 4)
            slack = rng.randint(0, min(6, HOURS_PER_DAY - a - v))
            win_start.append(a)
            win_end.append(a + v + slack)
            duration.append(v)
        compiled = CompiledProblem.from_arrays(
            ids=tuple(f"h{j}" for j in range(n)),
            win_start=np.array(win_start, dtype=np.intp),
            win_end=np.array(win_end, dtype=np.intp),
            duration=np.array(duration, dtype=np.intp),
            rating=np.full(n, 2.0),
            pricing=_PRICINGS[0],
        )
        cases.append(problem_from_compiled(compiled, _PRICINGS[0]))
    return cases


class TestBnbBitIdentity:
    def test_backends_agree_on_cost_nodes_and_verdict(self):
        for problem in _bnb_instances():
            reference = None
            for backend in BACKENDS:
                with kernels.forced_backend(backend):
                    result = BranchAndBoundAllocator(
                        time_limit_s=None, seed=1
                    ).solve(problem, random.Random(3))
                assert result.kernel_backend == backend
                summary = (
                    result.cost,
                    result.nodes_explored,
                    result.proven_optimal,
                    tuple(
                        result.allocation[item.household_id].start
                        for item in problem.items
                    ),
                )
                if reference is None:
                    reference = summary
                else:
                    assert summary == reference, backend

    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None)
    def test_expander_matches_inline_reference(self, seed):
        """One node expansion equals the exact numpy lines it replaced."""
        rng = np.random.default_rng(seed)
        loads_arr = rng.integers(0, 5, HOURS_PER_DAY).astype(np.float64) * 2.0
        a = int(rng.integers(0, 20))
        v = int(rng.integers(1, 4))
        count = int(rng.integers(1, HOURS_PER_DAY - a - v + 2))
        starts_idx = np.arange(a, a + count, dtype=np.intp)
        ends_idx = starts_idx + v
        two_sigma_r, self_term = 1.2, 3.6

        reference_prefix = np.zeros(HOURS_PER_DAY + 1)
        np.cumsum(loads_arr, out=reference_prefix[1:])
        reference_deltas = (
            two_sigma_r * (reference_prefix[ends_idx] - reference_prefix[starts_idx])
            + self_term
        )
        reference_order = np.argsort(reference_deltas, kind="stable")

        for backend in BACKENDS:
            with kernels.forced_backend(backend):
                expand, used = child_expander()
            assert used == backend
            prefix = np.zeros(HOURS_PER_DAY + 1)
            deltas_buf = np.empty(HOURS_PER_DAY)
            order_buf = np.empty(HOURS_PER_DAY, dtype=np.intp)
            deltas, order = expand(
                loads_arr, starts_idx, ends_idx, two_sigma_r, self_term,
                prefix, deltas_buf, order_buf,
            )
            assert np.array_equal(deltas, reference_deltas)
            assert np.array_equal(order, reference_order)


# ------------------------------------------------------- registry semantics

class TestRegistry:
    def test_env_var_forces_python(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNELS_ENV, "python")
        assert kernels.active_backend() == "python"
        # And the whole solve path still works under the forced fallback.
        compiled = CompiledProblem.from_arrays(
            ids=("a",),
            win_start=np.array([2], dtype=np.intp),
            win_end=np.array([10], dtype=np.intp),
            duration=np.array([3], dtype=np.intp),
            rating=np.array([2.0]),
        )
        result = GreedyFlexibilityAllocator(seed=0).solve_columnar(
            compiled, _PRICINGS[0]
        )
        assert result.kernel_backend == "python"

    def test_set_backend_mirrors_env_and_auto_clears(self, monkeypatch):
        import os

        kernels.set_backend("python")
        assert os.environ[kernels.KERNELS_ENV] == "python"
        assert kernels.active_backend() == "python"
        kernels.set_backend("auto")
        assert kernels.KERNELS_ENV not in os.environ

    def test_set_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="kernel backend"):
            kernels.set_backend("cython")

    def test_invalid_env_value_falls_back_to_auto(self, monkeypatch, caplog):
        monkeypatch.setenv(kernels.KERNELS_ENV, "jit")
        with caplog.at_level(logging.INFO, logger="repro.kernels"):
            first = kernels.active_backend()
            kernels.active_backend()
        assert first in ("numba", "python")
        warnings = [r for r in caplog.records if "unrecognized" in r.message]
        assert len(warnings) == 1

    def test_missing_numba_degrades_with_one_info_line(self, monkeypatch, caplog):
        monkeypatch.setattr(
            kernels, "_import_numba",
            lambda: (_ for _ in ()).throw(ImportError("No module named 'numba'")),
        )
        with caplog.at_level(logging.INFO, logger="repro.kernels"):
            assert kernels.active_backend() == "python"
            assert kernels.active_backend() == "python"
            assert not kernels.numba_available()
        infos = [
            r for r in caplog.records
            if "falling back to python kernels" in r.getMessage()
        ]
        assert len(infos) == 1
        assert infos[0].levelno == logging.INFO
        # The degraded registry still serves solves.
        meta = kernels.warm_kernels()
        assert meta["kernel_backend"] == "python"
        assert meta["numba_version"] is None
        assert meta["jit_compile_seconds"] == 0.0

    def test_forced_numba_without_numba_degrades_logged(self, monkeypatch, caplog):
        monkeypatch.setattr(
            kernels, "_import_numba",
            lambda: (_ for _ in ()).throw(ImportError("nope")),
        )
        with caplog.at_level(logging.INFO, logger="repro.kernels"):
            assert kernels.set_backend("numba") == "python"
            kernels.active_backend()
        assert any(
            "requested but numba is not importable" in r.getMessage()
            for r in caplog.records
        )

    def test_forced_backend_restores_previous_state(self, monkeypatch):
        import os

        monkeypatch.setenv(kernels.KERNELS_ENV, "auto")
        with kernels.forced_backend("python") as active:
            assert active == "python"
            assert os.environ[kernels.KERNELS_ENV] == "python"
        assert os.environ[kernels.KERNELS_ENV] == "auto"
        assert kernels._forced is None

    def test_warm_is_idempotent_and_jit_meta_consistent(self):
        first = kernels.warm_kernels()
        second = kernels.warm_kernels()
        assert first == second
        if kernels.numba_available():
            assert first["kernel_backend"] == "numba"
            assert first["numba_version"]
        else:
            assert first["kernel_backend"] == "python"

    def test_cli_kernels_flag_sets_backend(self, monkeypatch, capsys):
        import os

        from repro.cli import main

        monkeypatch.delenv(kernels.KERNELS_ENV, raising=False)
        assert main(["list", "--kernels", "python"]) == 0
        assert os.environ[kernels.KERNELS_ENV] == "python"
        assert kernels.active_backend() == "python"
        capsys.readouterr()
