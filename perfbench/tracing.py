"""Span tracing for the traced benchmark run, installed from outside the program.

The program itself carries no instrumentation, so the traced run wraps the
public functions of each layer (``repro.sim``, ``repro.service``,
``repro.robustness``, ``repro.allocation``, ``repro.kernels`` and
``repro.core``) by patching them for the duration of one pass.  Every
wrapped call records a span -- name, start, end, parent span and the shard
or day it belongs to -- into memory; spans are written as JSONL when the
run ends.  A stage's self time is its spans' duration minus the part of
that interval covered by their child spans, so the self times of all
stages plus the driver's remainder sum exactly to the pass's wall time.

Counters are read where the work happens: in the wrapper of the call that
produced them (placements, B&B nodes, quarantine repairs) or from the
service objects the pass built (ingested rows, flushes, retries).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Per-layer metrics of the traced run: name -> unit.  ``_s`` metrics are
#: summed self times of the stage of the same stem; the rest are counts.
PER_LAYER_UNITS: Dict[str, str] = {
    "kernels.place_s": "s",
    "kernels.placements": "count",
    "allocation.order_s": "s",
    "allocation.compile_s": "s",
    "allocation.compile_cache_hit_ratio": "fraction",
    "allocation.bnb_s": "s",
    "allocation.warmstart_s": "s",
    "allocation.bnb_nodes": "count",
    "allocation.bnb_root_certified": "count",
    "sim.sample_s": "s",
    "sim.pack_s": "s",
    "sim.engine_s": "s",
    "service.submit_s": "s",
    "service.ingest_s": "s",
    "service.ingest_rows": "count",
    "service.flushes": "count",
    "service.backpressure_refusals": "count",
    "service.backpressure_wait_s": "s",
    "service.schedule_s": "s",
    "service.shard_s": "s",
    "service.journal_s": "s",
    "service.digest_s": "s",
    "service.retries": "count",
    "robustness.screen_s": "s",
    "robustness.rows_repaired": "count",
    "robustness.rows_dropped": "count",
    "core.settle_s": "s",
    "core.thm1_residual_max": "ratio",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.driver_s": "s",
}

#: Stages whose self time is reported; each maps to ``<stage>_s``.
STAGES = tuple(
    name[:-2]
    for name in PER_LAYER_UNITS
    if name.endswith("_s") and not name.startswith("trace.")
)


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    fn: str
    unit: Optional[str]
    start: float
    end: float


def _day_placements(args, kwargs, result, tracer) -> None:
    tracer.count("kernels.placements", len(args[0]))  # place_day(order, ...)


def _batch_placements(args, kwargs, result, tracer) -> None:
    tracer.count("kernels.placements", len(args[1]))  # place_batch(offsets, order, ...)


def _bnb_result(args, kwargs, result, tracer) -> None:
    tracer.count("allocation.bnb_nodes", result.nodes_explored)
    if result.proven_optimal and result.nodes_explored <= 1:
        tracer.count("allocation.bnb_root_certified", 1)


def _screen_result(args, kwargs, result, tracer) -> None:
    screened = result if isinstance(result, list) else [result]
    for day in screened:
        for decision in day.decisions:
            if decision.action == "clamped":
                tracer.count("robustness.rows_repaired", 1)
            else:
                tracer.count("robustness.rows_dropped", 1)


def _refusal(exc: BaseException, tracer) -> None:
    from repro.robustness.errors import ServiceOverloadError

    if isinstance(exc, ServiceOverloadError):
        tracer.refused = True


def _pump_stage(args, kwargs, tracer) -> str:
    # A pump right after a refused submission is the client waiting out
    # backpressure; any other pump is ordinary scheduling.
    if tracer.refused:
        tracer.refused = False
        return "service.backpressure_wait"
    return "service.schedule"


def _shard_unit(args, kwargs) -> str:
    return f"shard-{args[1] if len(args) > 1 else kwargs['index']}"


def _day_unit(args, kwargs) -> str:
    task = args[0]
    if isinstance(task[2], list):
        return f"days-{task[2][0]}-{task[2][-1]}"
    return f"day-{task[2]}"


#: What the traced run wraps: (module, attribute path, stage, options).
#: Functions imported by name into another module are patched where they
#: are looked up (``place_day`` in ``greedy.py``, ``settle_shard`` in
#: ``service.py``), so the call sites see the wrapper.
TARGETS: List[Tuple[str, str, str, Dict[str, Any]]] = [
    ("repro.allocation.greedy", "place_day", "kernels.place", {"on_result": _day_placements}),
    ("repro.allocation.greedy", "place_batch", "kernels.place", {"on_result": _batch_placements}),
    ("repro.allocation.greedy", "GreedyFlexibilityAllocator.solve_columnar", "allocation.order", {}),
    ("repro.allocation.greedy", "GreedyFlexibilityAllocator.solve_columnar_batch", "allocation.order", {}),
    ("repro.allocation.greedy", "GreedyFlexibilityAllocator.solve", "allocation.warmstart", {}),
    ("repro.allocation.greedy", "compile_problem", "allocation.compile", {}),
    ("repro.allocation.local_search", "compile_problem", "allocation.compile", {}),
    ("repro.core.columnar", "ColumnarReports.compile", "allocation.compile", {}),
    ("repro.allocation.optimal", "BranchAndBoundAllocator.solve", "allocation.bnb", {"on_result": _bnb_result}),
    ("repro.allocation.optimal", "improve_allocation", "allocation.warmstart", {}),
    ("repro.sim.profiles", "ProfileGenerator.sample_population_columnar", "sim.sample", {}),
    ("repro.sim.profiles", "ProfileGenerator.sample_population_columnar_batch", "sim.sample", {}),
    ("repro.service.city", "sample_shard", "sim.sample", {"unit": _shard_unit}),
    ("repro.sim.shm", "SharedArena.pack_day", "sim.pack", {}),
    ("repro.sim.engine", "SocialWelfareStudy.run", "sim.engine", {}),
    ("repro.sim.engine", "SocialWelfareStudy.sweep", "sim.engine", {}),
    ("repro.sim.engine", "_run_study_day", "sim.engine", {"unit": _day_unit}),
    ("repro.sim.engine", "_run_study_batch", "sim.engine", {"unit": _day_unit}),
    ("repro.service.service", "ShardService.submit_shard", "service.submit", {"unit": _shard_unit, "on_error": _refusal}),
    ("repro.service.service", "ShardService.register_stream_shard", "service.ingest", {"unit": _shard_unit}),
    ("repro.service.service", "ShardService.submit_reports", "service.ingest", {"on_error": _refusal}),
    ("repro.service.service", "ShardService.flush_reports", "service.ingest", {}),
    ("repro.service.service", "ShardService.finish_streams", "service.ingest", {}),
    ("repro.service.service", "ShardService.pump", "service.schedule", {"stage": _pump_stage}),
    ("repro.service.service", "ShardService.drain", "service.schedule", {}),
    ("repro.service.service", "settle_shard", "service.shard", {"unit": lambda a, k: f"shard-{a[0][0].index}"}),
    ("repro.robustness.checkpoint", "CheckpointStore.append", "service.journal", {}),
    ("repro.service.shard", "settlement_digest", "service.digest", {}),
    ("repro.robustness.quarantine", "Quarantine.screen_columnar", "robustness.screen", {"on_result": _screen_result}),
    ("repro.robustness.quarantine", "Quarantine.screen_columnar_batch", "robustness.screen", {"on_result": _screen_result}),
    ("repro.core.mechanism", "EnkiMechanism.finish_day_columnar", "core.settle", {}),
    ("repro.core.mechanism", "EnkiMechanism.settle_arrays_batch", "core.settle", {}),
]


class Tracer:
    """In-memory span recorder with install/uninstall of the layer wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.refused = False
        self._stack: List[Tuple[int, Optional[str]]] = []
        self._next_id = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def reset(self) -> None:
        """Forget the spans and counters of the previous pass."""
        self.spans = []
        self.counters = {}
        self.refused = False
        self._stack = []

    def _wrap(self, original: Callable, stage: str, options: Dict[str, Any]) -> Callable:
        tracer = self
        fn_name = original.__name__
        unit_of = options.get("unit")
        stage_of = options.get("stage")
        on_result = options.get("on_result")
        on_error = options.get("on_error")

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name = stage_of(args, kwargs, tracer) if stage_of else stage
            parent, unit = tracer._stack[-1] if tracer._stack else (None, None)
            if unit_of is not None:
                unit = unit_of(args, kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            tracer._stack.append((span_id, unit))
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc, tracer)
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(
                    Span(span_id, parent, name, fn_name, unit, start, end)
                )
            if on_result is not None:
                on_result(args, kwargs, result, tracer)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every target in place; :meth:`uninstall` restores them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, path, stage, options in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, stage, options))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # ------------------------------------------------------------- analysis

    def self_times(self) -> Dict[str, float]:
        """Summed self time per stage over the recorded spans."""
        child_time: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] = (
                    child_time.get(span.parent, 0.0) + span.end - span.start
                )
        totals: Dict[str, float] = {stage: 0.0 for stage in STAGES}
        for span in self.spans:
            own = span.end - span.start - child_time.get(span.id, 0.0)
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def root_time(self) -> float:
        """Time covered by top-level spans (the rest is the driver's)."""
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def jsonl_lines(self, pass_index: int) -> List[str]:
        """The pass's spans as JSON lines, times relative to its first span."""
        origin = min((s.start for s in self.spans), default=0.0)
        return [
            json.dumps(
                {
                    "pass": pass_index,
                    "id": s.id,
                    "parent": s.parent,
                    "name": s.name,
                    "fn": s.fn,
                    "unit": s.unit,
                    "start": round(s.start - origin, 9),
                    "end": round(s.end - origin, 9),
                }
            )
            for s in self.spans
        ]
