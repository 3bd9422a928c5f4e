"""The four benchmark workloads and their output checks.

Each workload is built from the seed alone and driven through a public
entry point of the program, inline in this process (``workers=1``):

* ``city_batch`` -- :func:`repro.service.serve_city` on a 200k-household
  city in 16 shards, clean whole-shard wire arrays through
  :func:`repro.mechanisms.enki.serving_mechanism` (clamp quarantine),
  journaled to a :class:`~repro.robustness.checkpoint.CheckpointStore`
  that fsyncs once per shard.
* ``city_stream`` -- the same city with ``stream=True`` in 128-report
  interleaved, out-of-order chunks, with
  :func:`~repro.robustness.chaos.plan_service_faults` flooding a quarter
  of the shards (exactly four, chosen by the seed) with malformed reports.
* ``study_greedy`` -- a greedy-only columnar
  :class:`~repro.sim.engine.SocialWelfareStudy` sweep shaped like fig4 and
  fig6, on the batched multi-day engine.
* ``exact_n50`` -- a study shaped like fig5 at n=50: greedy plus
  :class:`~repro.allocation.optimal.BranchAndBoundAllocator` under a node
  budget and no time limit.

Every budget on the measured path is a count, so every output -- and the
counts derived from it -- repeats exactly at one seed; only the timings
carry the host's noise.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.allocation.arrays import reset_compile_cache
from repro.allocation.greedy import GreedyFlexibilityAllocator
from repro.allocation.optimal import BranchAndBoundAllocator
from repro.mechanisms.enki import serving_mechanism
from repro.robustness.chaos import (
    ChaosInjector,
    ChaosPlan,
    ServiceChaosPlan,
    plan_service_faults,
)
from repro.robustness.checkpoint import CheckpointStore
from repro.robustness.errors import ServiceOverloadError
from repro.service import (
    ShardService,
    sample_shard,
    serve_city,
    settlement_digest,
    shard_sizes,
)
from repro.sim.engine import SocialWelfareStudy
from repro.sim.rng import root_entropy, spawn_seed

CITY_HOUSEHOLDS = 200_000
CITY_SHARDS = 16
STREAM_CHUNK = 128
#: Shards flooded with malformed reports: a quarter of them on every seed.
FLOOD_SHARDS = 4

STUDY_POPULATIONS = (30, 50, 100, 150, 200, 1000)
STUDY_DAYS = 64
STUDY_BATCH_DAYS = 16

EXACT_HOUSEHOLDS = 50
EXACT_BLOCKS = 15
EXACT_BLOCK_DAYS = 20
EXACT_NODE_LIMIT = 500

#: Largest tolerated Theorem 1 drift |revenue - xi*cost| / (xi*cost).
THM1_TOLERANCE = 1e-9


def flood_plan(root: int, shards: int, count: int) -> ServiceChaosPlan:
    """``plan_service_faults`` at the flood rate that floods exactly ``count`` shards.

    A shard floods when its seed-keyed draw falls below the rate, so the
    flooded set only grows with the rate; bisecting on it keeps the
    ``count`` lowest draws.  A fixed rate would flood a binomial number of
    shards, and the pass's work would then vary with the seed.
    """
    low, high = 0.0, 1.0
    for _ in range(64):
        rate = (low + high) / 2
        if len(plan_service_faults(root, shards, flood_rate=rate).flood_shards) < count:
            low = rate
        else:
            high = rate
    plan = plan_service_faults(root, shards, flood_rate=high)
    if len(plan.flood_shards) != count:
        raise ValueError(f"no flood rate floods exactly {count} of {shards} shards")
    return plan


def unit_digest(value: Any) -> str:
    """Short SHA-256 of a deterministic value's ``repr`` (floats are exact)."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


@dataclass
class PassResult:
    """What one pass returns: timing, per-unit identities, checks, counts.

    ``block_s`` times the blocks of work a pass does one after another
    (each shard's settlement plus the rest of a city pass; one study run
    per block for the studies); ``wall_s`` is their sum.
    """

    block_s: List[float]
    units: Dict[str, str]
    failures: Dict[str, List[str]] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    latencies_ms: List[float] = field(default_factory=list)
    proven: Dict[str, float] = field(default_factory=dict)
    #: The program's own return values, kept for :meth:`check`.
    raw: Any = None

    @property
    def wall_s(self) -> float:
        return sum(self.block_s)

    def fail(self, unit: str, message: str) -> None:
        self.failures.setdefault(unit, []).append(message)


class _Patch:
    """Temporarily replace ``owner.attr`` (restored on exit)."""

    def __init__(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        self.owner, self.attr = owner, attr
        self.original = owner.__dict__[attr]
        self.replacement = make(self.original)

    def __enter__(self) -> "_Patch":
        setattr(self.owner, self.attr, self.replacement)
        return self

    def __exit__(self, *exc_info) -> None:
        setattr(self.owner, self.attr, self.original)


class CityWorkload:
    """``serve_city`` on the 200k city, batch or streamed with a flood."""

    def __init__(self, seed: int, workdir: Path, stream: bool) -> None:
        self.seed = seed
        self.stream = stream
        self.root = root_entropy(seed)
        self.sizes = shard_sizes(CITY_HOUSEHOLDS, CITY_SHARDS)
        self.mechanism = serving_mechanism()
        self.journal_path = workdir / "journal.jsonl"
        self.chaos: Optional[ChaosInjector] = None
        if stream:
            self.chaos = ChaosInjector(
                plan=ChaosPlan(root=self.root),
                fault_dir=str(workdir / "faults"),
                service_plan=flood_plan(self.root, CITY_SHARDS, FLOOD_SHARDS),
            )
        # Picks the shard re-settled outside the timed region each pass.
        self._check_rng = random.Random(seed)
        # The service object itself is built inside serve_city; building
        # one here charges its construction to set-up like the others.
        ShardService(mechanism=self.mechanism, workers=1).close()

    def run_pass(self) -> PassResult:
        journal = CheckpointStore(str(self.journal_path), fresh=True)
        services: List[ShardService] = []
        latencies: List[float] = []

        def capture(original):
            def __enter__(service):
                services.append(service)
                return original(service)

            return __enter__

        def timed(original):
            def submit_reports(service, reports):
                started = time.perf_counter()
                try:
                    accepted = original(service, reports)
                except ServiceOverloadError:
                    latencies.append(math.inf)  # a refusal misses any limit
                    raise
                latencies.append((time.perf_counter() - started) * 1e3)
                return accepted

            return submit_reports

        with _Patch(ShardService, "__enter__", capture), _Patch(
            ShardService, "submit_reports", timed
        ):
            started = time.perf_counter()
            result = serve_city(
                CITY_HOUSEHOLDS,
                CITY_SHARDS,
                workers=1,
                seed=self.seed,
                mechanism=self.mechanism,
                deadline_s=None,
                journal=journal,
                chaos=self.chaos,
                stream=self.stream,
                stream_chunk=STREAM_CHUNK,
            )
            wall_s = time.perf_counter() - started

        # Blocks: each shard's settlement, timed by the service itself
        # (``wall_time_s``), and the rest of the pass (sampling, packing,
        # ingest, journal, scheduling).
        settle_s = [r.wall_time_s for _, r in sorted(result.records.items())]
        out = PassResult(
            block_s=[wall_s - sum(settle_s)] + settle_s,
            units={
                f"shard-{i}": unit_digest(r.fingerprint())
                for i, r in sorted(result.records.items())
            },
            latencies_ms=latencies,
            raw=(result, services),
        )
        return out

    def check(self, out: PassResult) -> None:
        """Output checks, run after the pass with tracing off."""
        result, services = out.raw
        xi = self.mechanism.xi
        for index in range(CITY_SHARDS):
            unit = f"shard-{index}"
            record = result.records.get(index)
            if record is None:
                out.fail(unit, "not settled")
                continue
            if record.served_tier != 0 or record.degraded:
                out.fail(unit, f"served at tier {record.served_tier} ({record.degraded})")
            if record.attempts != 1:
                out.fail(unit, f"took {record.attempts} attempts")
            if record.n_input != self.sizes[index]:
                out.fail(unit, f"n_input {record.n_input} != {self.sizes[index]}")
            if record.n_settled + record.n_quarantined != record.n_input:
                out.fail(unit, "settled + quarantined != input")
            residual = abs(record.revenue - xi * record.total_cost) / (
                xi * record.total_cost
            )
            out.counts["core.thm1_residual_max"] = max(
                out.counts.get("core.thm1_residual_max", 0.0), residual
            )
            if not record.budget_balanced or residual > THM1_TOLERANCE:
                out.fail(unit, f"Theorem 1 violated (residual {residual:.3g})")
        if result.degraded or result.replayed:
            out.fail("service", f"degraded {result.degraded} replayed {result.replayed}")

        # Settle one seed-chosen shard again, directly through the
        # mechanism, outside the timed region; its digest must match.
        index = self._check_rng.randrange(CITY_SHARDS)
        neighborhood, shard_seed = sample_shard(self.root, index, self.sizes[index])
        begin, end, duration = neighborhood.truthful_wire()
        if self.chaos is not None:
            begin, end, duration = self.chaos.corrupt_shard_reports(
                index, begin, end, duration
            )
        outcome = self.mechanism.run_day_columnar_raw(
            neighborhood, begin, end, duration, rng=random.Random(shard_seed)
        )
        record = result.records.get(index)
        if record is not None and settlement_digest(outcome) != record.digest:
            out.fail(f"shard-{index}", "digest differs from a direct re-settlement")

        # No wall-clock budget may reach the measured path.
        for service in services:
            supervisor = getattr(service, "_supervisor", None)
            if getattr(supervisor, "deadline_s", None) is not None:
                out.fail("service", "a shard deadline_s reached the measured path")

        out.counts["kernels.placements"] = sum(
            r.n_settled for r in result.records.values()
        )
        out.counts["service.backpressure_refusals"] = result.overload_rejections
        out.counts["service.retries"] = result.pool_replacements + sum(
            r.attempts - 1 for r in result.records.values()
        )
        stats = services[0].stream_stats if services else None
        if stats is not None:
            out.counts["service.ingest_rows"] = stats.reports_in
            out.counts["service.flushes"] = stats.flushes
            if stats.reports_in != CITY_HOUSEHOLDS:
                out.fail("service", f"ingested {stats.reports_in} reports")
        elif self.stream:
            out.fail("service", "streamed pass kept no stream stats")


class StudyWorkload:
    """Columnar ``SocialWelfareStudy`` runs: greedy sweep, or greedy + B&B.

    A pass is a sequence of study runs, each with its own seed drawn the
    way :meth:`SocialWelfareStudy.sweep` draws them: one per population for
    ``study_greedy`` (exactly a sweep), fifteen 20-day n=50 runs for
    ``exact_n50``.  Timing each run separately lets a noisy host phase be
    told apart from the program at run granularity.  ``between_runs`` is
    called before each run, outside its timer.
    """

    def __init__(
        self,
        seed: int,
        exact: bool,
        between_runs: Callable[[], None] = lambda: None,
    ) -> None:
        self.exact = exact
        self.between_runs = between_runs
        allocators: list = [GreedyFlexibilityAllocator()]
        self.bnb: Optional[BranchAndBoundAllocator] = None
        if exact:
            self.bnb = BranchAndBoundAllocator(
                time_limit_s=None, node_limit=EXACT_NODE_LIMIT
            )
            allocators.append(self.bnb)
        self.study = SocialWelfareStudy(allocators, columnar=True)
        rng = random.Random(seed)
        if exact:
            self.blocks = [
                (f"b{k}-", EXACT_HOUSEHOLDS, EXACT_BLOCK_DAYS, spawn_seed(rng))
                for k in range(EXACT_BLOCKS)
            ]
        else:
            self.blocks = [
                ("", n, STUDY_DAYS, spawn_seed(rng)) for n in STUDY_POPULATIONS
            ]

    def run_pass(self) -> PassResult:
        # Every pass starts from the cold compile cache a fresh run sees.
        reset_compile_cache()
        block_s: List[float] = []
        by_day: Dict[str, list] = defaultdict(list)
        for label, n, days, seed in self.blocks:
            self.between_runs()
            started = time.perf_counter()
            records = self.study.run(
                n,
                days,
                seed=seed,
                workers=1,
                timeout_s=None,
                batch_days=1 if self.exact else STUDY_BATCH_DAYS,
            )
            block_s.append(time.perf_counter() - started)
            for record in records:
                by_day[f"{label}n{record.n_households}-day{record.day}"].append(record)
        return PassResult(
            block_s=block_s,
            units={
                unit: unit_digest(
                    tuple(
                        (r.allocator, r.par, r.cost, r.proven_optimal,
                         r.nodes_explored, r.served_tier)
                        for r in day
                    )
                )
                for unit, day in sorted(by_day.items())
            },
            raw=by_day,
        )

    def check(self, out: PassResult) -> None:
        """Output checks and the counts derived from the records."""
        by_day = out.raw
        names = [a.name for a in self.study.allocators]
        expected = {
            f"{label}n{n}-day{d}"
            for label, n, days, _ in self.blocks
            for d in range(days)
        }
        for unit in sorted(expected - set(by_day)):
            out.fail(unit, "no records")
        placements = nodes = proven = 0
        for unit, day in by_day.items():
            if unit not in expected or [r.allocator for r in day] != names:
                out.fail(unit, f"unexpected records {[r.allocator for r in day]}")
                continue
            for r in day:
                if not (math.isfinite(r.cost) and r.cost > 0 and r.par >= 1.0 - 1e-12):
                    out.fail(unit, f"{r.allocator}: cost {r.cost} par {r.par}")
                if r.served_tier != 0 or r.cache_hit:
                    out.fail(unit, f"{r.allocator}: tier {r.served_tier} cache {r.cache_hit}")
            greedy = day[0]
            placements += greedy.n_households
            if not self.exact:
                continue
            bnb = day[1]
            nodes += bnb.nodes_explored
            if bnb.proven_optimal:
                proven += 1
                out.proven[unit] = bnb.cost
                if bnb.nodes_explored > EXACT_NODE_LIMIT:
                    out.fail(unit, f"proven after {bnb.nodes_explored} nodes")
                if bnb.cost > greedy.cost + 1e-9 * greedy.cost:
                    out.fail(unit, f"proven cost {bnb.cost} above greedy {greedy.cost}")
            elif bnb.nodes_explored != EXACT_NODE_LIMIT:
                out.fail(unit, f"unproven after {bnb.nodes_explored} nodes")
        out.counts["kernels.placements"] = placements
        if self.exact:
            out.counts["allocation.bnb_nodes"] = nodes
            out.counts["proven_fraction"] = proven / len(expected)
            bnb = self.bnb
            if bnb.time_limit_s is not None or bnb.node_limit != EXACT_NODE_LIMIT:
                out.fail("bnb", "a wall-clock budget reached the measured path")


def build(
    name: str,
    seed: int,
    workdir: Path,
    between_runs: Callable[[], None] = lambda: None,
):
    """Construct workload ``name`` -- the part of set-up after imports.

    ``between_runs`` is called between the study runs of a pass, untimed.
    """
    if name in ("city_batch", "city_stream"):
        return CityWorkload(seed, workdir, stream=name == "city_stream")
    if name in ("study_greedy", "exact_n50"):
        return StudyWorkload(seed, name == "exact_n50", between_runs)
    raise ValueError(f"unknown workload {name!r}")


def config() -> Dict[str, Any]:
    """The input sizes the reference and the docs are stated for."""
    return {
        "city_households": CITY_HOUSEHOLDS,
        "city_shards": CITY_SHARDS,
        "stream_chunk": STREAM_CHUNK,
        "flood_rate": FLOOD_SHARDS / CITY_SHARDS,
        "study_populations": list(STUDY_POPULATIONS),
        "study_days": STUDY_DAYS,
        "study_batch_days": STUDY_BATCH_DAYS,
        "exact_households": EXACT_HOUSEHOLDS,
        "exact_blocks": EXACT_BLOCKS,
        "exact_block_days": EXACT_BLOCK_DAYS,
        "exact_node_limit": EXACT_NODE_LIMIT,
    }
