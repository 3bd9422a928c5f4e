"""Command-line interface: ``enki-repro <experiment> [options]``.

Examples::

    enki-repro list
    enki-repro fig4 --days 3 --populations 10,20
    enki-repro tab2 --seed 99
    enki-repro all --days 2 --populations 10
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .experiments.runner import EXPERIMENTS, run_experiment
from .robustness.errors import ReproError

#: Experiments that accept the social-welfare sweep options.
_SWEEP_EXPERIMENTS = {"fig4", "fig5", "fig6"}

#: Experiments driven by the user-study seed only.
_STUDY_EXPERIMENTS = {"tab2", "tab3", "tab4", "fig8", "fig9"}


def _workers_arg(value: str) -> int:
    """Argparse type for ``--workers``: reject nonsense below ``-1`` early."""
    workers = int(value)
    if workers < -1:
        raise argparse.ArgumentTypeError(
            f"workers must be >= -1 (0 or -1 = all cores), got {workers}"
        )
    return workers


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enki-repro",
        description=(
            "Regenerate the tables and figures of 'A Mechanism for "
            "Cooperative Demand-Side Management' (Enki, ICDCS 2017)."
        ),
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see 'list'), or 'all', 'list', 'simulate', 'city'",
    )
    parser.add_argument(
        "--n", type=int, default=20, help="households (simulate/city)"
    )
    parser.add_argument(
        "--audit",
        type=str,
        default=None,
        help="JSONL audit log path (simulate/city)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=8,
        help="shards the city is split into (city)",
    )
    parser.add_argument(
        "--queue-capacity",
        type=int,
        default=64,
        help="ingestion queue high watermark before backpressure (city)",
    )
    parser.add_argument(
        "--deadline-s",
        type=float,
        default=None,
        help="per-shard wall-clock deadline on the primary pool (city)",
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help=(
            "ingest the city as an interleaved out-of-order report stream "
            "(columnar micro-batching) instead of whole-shard arrays; "
            "settlements are digest-identical either way (city)"
        ),
    )
    parser.add_argument(
        "--stream-chunk",
        type=int,
        default=4096,
        help="rows per streamed report chunk with --stream (city)",
    )
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument(
        "--workers",
        type=_workers_arg,
        default=None,
        help=(
            "worker processes for the day/session fan-out (1 = serial, "
            "0 = all cores); results are identical for any value"
        ),
    )
    parser.add_argument(
        "--bnb-workers",
        type=_workers_arg,
        default=None,
        help=(
            "worker processes for the exact solver's subtree fan-out "
            "(fig4/fig5/fig6; 1 = serial, 0 = all cores); completed runs "
            "are bit-identical to serial"
        ),
    )
    parser.add_argument(
        "--checkpoint",
        type=str,
        default=None,
        help=(
            "JSONL checkpoint file: each simulated day is persisted as it "
            "completes (fig4/fig5/fig6/simulate)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "with --checkpoint, replay the days already in the store "
            "instead of recomputing them; without it an existing store "
            "is discarded"
        ),
    )
    parser.add_argument(
        "--quarantine",
        choices=("reject", "clamp", "exclude"),
        default=None,
        help="screen reports through a quarantine policy (simulate)",
    )
    parser.add_argument(
        "--debug",
        action="store_true",
        help="print full tracebacks instead of one-line error summaries",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "run the subcommand under cProfile: print the top-25 "
            "cumulative-time entries and write a .pstats dump next to the "
            "--save output (or into the working directory)"
        ),
    )
    parser.add_argument(
        "--columnar",
        action="store_true",
        help=(
            "run days on the columnar (structure-of-arrays) fast path "
            "(fig4/fig5/fig6/simulate); required for very large --n, uses "
            "its own sampling substream"
        ),
    )
    parser.add_argument(
        "--batch-days",
        type=int,
        default=None,
        help=(
            "columnar-only: fuse up to this many consecutive days per "
            "worker task into batched array passes "
            "(fig4/fig5/fig6/simulate); results are bit-identical for "
            "every value (default 1: one-day batches)"
        ),
    )
    parser.add_argument(
        "--alloc-cache",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help=(
            "memoize allocations under a digest of the compiled problem "
            "(fig4/fig5/fig6 with --columnar, fig7); with no value the "
            "cache lives in memory, with DIR results also persist on disk "
            "for cross-run reuse; replays are byte-identical"
        ),
    )
    parser.add_argument(
        "--kernels",
        choices=("auto", "numba", "python"),
        default=None,
        help=(
            "hot-loop kernel backend: 'numba' forces the JIT build, "
            "'python' forces the pure-python fallback, 'auto' (default) "
            "uses numba when importable; both are bit-identical — only "
            "speed changes"
        ),
    )
    parser.add_argument(
        "--days", type=int, default=None, help="simulated days per setting"
    )
    parser.add_argument(
        "--populations",
        type=str,
        default=None,
        help="comma-separated population sizes (fig4/fig5/fig6)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="repeats per candidate (fig7)"
    )
    parser.add_argument(
        "--time-limit",
        type=float,
        default=None,
        help="exact-solver time limit in seconds (fig4/fig5/fig6)",
    )
    parser.add_argument(
        "--save",
        type=str,
        default=None,
        help="also write the rendered table(s) to this text file",
    )
    parser.add_argument(
        "--csv",
        type=str,
        default=None,
        help="also write the table as CSV to this file (single experiment only)",
    )
    return parser


def _alloc_cache_for(args: argparse.Namespace):
    """Build the ``--alloc-cache`` store (``""`` = memory-only)."""
    if args.alloc_cache is None:
        return None
    from .allocation.cache import AllocationCache

    return AllocationCache(directory=args.alloc_cache or None)


def _overrides_for(experiment_id: str, args: argparse.Namespace) -> dict:
    overrides: dict = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.workers is not None and experiment_id in (
        _SWEEP_EXPERIMENTS | _STUDY_EXPERIMENTS
    ):
        overrides["workers"] = args.workers
    if experiment_id in _SWEEP_EXPERIMENTS:
        if args.days is not None:
            overrides["days"] = args.days
        if args.populations is not None:
            overrides["populations"] = tuple(
                int(part) for part in args.populations.split(",") if part
            )
        if args.time_limit is not None:
            overrides["optimal_time_limit_s"] = args.time_limit
        if args.checkpoint is not None:
            overrides["checkpoint_path"] = args.checkpoint
            overrides["resume"] = args.resume
        if args.columnar:
            overrides["columnar"] = True
        if args.bnb_workers is not None:
            overrides["bnb_workers"] = args.bnb_workers
        if args.batch_days is not None and args.columnar:
            overrides["batch_days"] = args.batch_days
        cache = _alloc_cache_for(args)
        if cache is not None and args.columnar:
            overrides["alloc_cache"] = cache
    if experiment_id == "fig7":
        if args.repeats is not None:
            overrides["repeats"] = args.repeats
        cache = _alloc_cache_for(args)
        if cache is not None:
            overrides["alloc_cache"] = cache
    if experiment_id in {"abl-order", "abl-pricing"} and args.days is not None:
        overrides["days"] = args.days
    return overrides


def _simulate(args: argparse.Namespace) -> int:
    """Run a multi-day §VI neighborhood and print the daily ledger."""
    import numpy as np

    from .core.mechanism import EnkiMechanism
    from .io.audit import AuditLog
    from .robustness.checkpoint import CheckpointStore
    from .robustness.quarantine import Quarantine
    from .sim.engine import NeighborhoodSimulation
    from .sim.profiles import ProfileGenerator, neighborhood_from_profiles
    from .sim.results import format_table

    seed = args.seed if args.seed is not None else 2017
    days = args.days if args.days is not None else 7
    generator = ProfileGenerator()
    quarantine = Quarantine(args.quarantine) if args.quarantine else None
    if args.columnar and args.checkpoint:
        print("--columnar does not support --checkpoint", file=sys.stderr)
        return 2
    if args.columnar and args.audit:
        print("--columnar does not support --audit", file=sys.stderr)
        return 2
    if args.columnar:
        cols = generator.sample_population_columnar(
            np.random.default_rng(seed), args.n
        )
        neighborhood = cols.to_neighborhood("wide")
        checkpoint = None
    else:
        profiles = generator.sample_population(np.random.default_rng(seed), args.n)
        neighborhood = neighborhood_from_profiles(profiles, "wide")
        checkpoint = (
            CheckpointStore(args.checkpoint, fresh=not args.resume)
            if args.checkpoint
            else None
        )
    simulation = NeighborhoodSimulation(
        EnkiMechanism(seed=seed, quarantine=quarantine),
        columnar=args.columnar,
    )
    outcomes = simulation.run(
        neighborhood,
        days=days,
        seed=seed,
        workers=args.workers if args.workers is not None else 1,
        checkpoint=checkpoint,
        batch_days=args.batch_days if args.batch_days is not None else 1,
    )

    audit = AuditLog(args.audit) if args.audit else None
    rows = []
    for day, outcome in enumerate(outcomes):
        settlement = outcome.settlement
        if args.columnar:
            defectors = int(
                (outcome.consumption_starts != outcome.allocation_starts).sum()
            )
        else:
            defectors = sum(
                1 for hid in outcome.allocation if outcome.defected(hid)
            )
        rows.append(
            (
                day,
                f"{settlement.total_cost:.1f}",
                f"{settlement.neighborhood_utility:.2f}",
                f"{settlement.load_profile.peak_kw:.1f}",
                f"{settlement.load_profile.peak_to_average_ratio():.2f}",
                defectors,
            )
        )
        if audit is not None:
            audit.log_day(day, outcome)
    print(
        format_table(
            ["day", "cost ($)", "surplus ($)", "peak (kW)", "PAR", "defectors"],
            rows,
        )
    )
    if audit is not None:
        print(f"audit log written to {args.audit}")
    return 0


def _city(args: argparse.Namespace) -> int:
    """Settle a sharded city through the supervised shard service."""
    from collections import Counter

    from .io.audit import AuditLog
    from .mechanisms.enki import serving_mechanism
    from .robustness.checkpoint import CheckpointStore
    from .service import serve_city
    from .sim.results import format_table

    seed = args.seed if args.seed is not None else 2017
    journal = (
        CheckpointStore(args.checkpoint, fresh=not args.resume)
        if args.checkpoint
        else None
    )
    audit = AuditLog(args.audit) if args.audit else None
    mechanism = serving_mechanism(
        seed=seed,
        quarantine_policy=args.quarantine if args.quarantine else "clamp",
    )
    result = serve_city(
        n=args.n,
        shards=args.shards,
        workers=args.workers if args.workers is not None else 1,
        seed=seed,
        mechanism=mechanism,
        queue_capacity=args.queue_capacity,
        deadline_s=args.deadline_s,
        journal=journal,
        audit=audit,
        stream=args.stream,
        stream_chunk=args.stream_chunk,
    )
    tiers = Counter(record.served_tier for record in result.records.values())
    rows = [
        ("shards settled", result.settled),
        ("households", result.n_households),
        ("degraded shards", len(result.degraded)),
        ("replayed from journal", len(result.replayed)),
        ("overload rejections", result.overload_rejections),
        ("pool replacements", result.pool_replacements),
        ("tiers served", ", ".join(f"{t}:{c}" for t, c in sorted(tiers.items()))),
        ("budget balanced (Thm 1)", "yes" if result.all_budget_balanced() else "NO"),
        ("wall time (s)", f"{result.wall_time_s:.2f}"),
    ]
    print(format_table(["metric", "value"], rows))
    if audit is not None:
        print(f"audit log written to {args.audit}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Robustness failures (:class:`~repro.robustness.errors.ReproError`)
    exit with their class's distinct code and a one-line message;
    ``--debug`` surfaces the full traceback instead.
    """
    args = _build_parser().parse_args(argv)
    if args.kernels is not None:
        from .kernels import set_backend

        set_backend(args.kernels)
    try:
        if args.profile:
            return _profiled_dispatch(args)
        return _dispatch(args)
    except ReproError as exc:
        if args.debug:
            raise
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return exc.exit_code


def _profile_dump_path(args: argparse.Namespace) -> str:
    """Where the ``.pstats`` dump goes: next to the output, else the cwd."""
    import os

    anchor = args.save or args.csv
    if anchor:
        return os.path.splitext(anchor)[0] + ".pstats"
    return f"{args.experiment}.pstats"


def _profiled_dispatch(args: argparse.Namespace) -> int:
    """Run ``_dispatch`` under cProfile (the ``--profile`` flag).

    Prints the 25 heaviest entries by cumulative time — the hot-path view
    that pointed at the allocator in the first place — and writes the raw
    stats next to the output for later ``pstats``/``snakeviz`` digging.

    With ``--workers`` above 1, each worker process dumps its own
    ``worker-<pid>.pstats`` into a sibling directory; those are merged
    into the printed report and the final dump, so time spent inside the
    fan-out is attributed rather than vanishing into ``map_tasks``.
    """
    import cProfile
    import glob
    import os
    import pstats

    from .sim.parallel import WORKER_PROFILE_DIR_ENV as _WORKER_PROFILE_DIR_ENV

    dump_path = _profile_dump_path(args)
    worker_dir = os.path.splitext(dump_path)[0] + "-workers"
    os.environ[_WORKER_PROFILE_DIR_ENV] = worker_dir
    profiler = cProfile.Profile()
    try:
        exit_code = profiler.runcall(_dispatch, args)
    finally:
        os.environ.pop(_WORKER_PROFILE_DIR_ENV, None)
        profiler.create_stats()
        stats = pstats.Stats(profiler, stream=sys.stdout)
        worker_dumps = sorted(glob.glob(os.path.join(worker_dir, "worker-*.pstats")))
        for worker_dump in worker_dumps:
            stats.add(worker_dump)
        stats.sort_stats("cumulative").print_stats(25)
        stats.dump_stats(dump_path)
        print(f"profile written to {dump_path}")
        if worker_dumps:
            print(
                f"merged {len(worker_dumps)} worker profile(s) from {worker_dir}"
            )
    return exit_code


def _dispatch(args: argparse.Namespace) -> int:
    """Route a parsed command line to its experiment or subcommand."""
    if args.resume and not args.checkpoint:
        print("--resume requires --checkpoint", file=sys.stderr)
        return 2
    if args.batch_days is not None and args.batch_days < 1:
        print("--batch-days must be >= 1", file=sys.stderr)
        return 2
    if args.batch_days is not None and args.batch_days > 1 and not args.columnar:
        print("--batch-days requires --columnar", file=sys.stderr)
        return 2
    if (
        args.alloc_cache is not None
        and args.experiment in _SWEEP_EXPERIMENTS
        and not args.columnar
    ):
        print(
            "--alloc-cache with fig4/fig5/fig6 requires --columnar",
            file=sys.stderr,
        )
        return 2

    if args.experiment == "list":
        for experiment_id in EXPERIMENTS:
            print(experiment_id)
        return 0

    if args.experiment == "simulate":
        return _simulate(args)

    if args.experiment == "city":
        return _city(args)

    if args.experiment == "all":
        chunks = []
        for experiment_id in EXPERIMENTS:
            report = run_experiment(
                experiment_id, **_overrides_for(experiment_id, args)
            )
            chunk = f"== {report.experiment_id} ==\n{report.rendered}\n"
            print(chunk)
            chunks.append(chunk)
        if args.save:
            with open(args.save, "w", encoding="utf-8") as handle:
                handle.write("\n".join(chunks))
        return 0

    if args.experiment not in EXPERIMENTS:
        print(
            f"unknown experiment {args.experiment!r}; try 'list'", file=sys.stderr
        )
        return 2

    report = run_experiment(args.experiment, **_overrides_for(args.experiment, args))
    print(report.rendered)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as handle:
            handle.write(report.rendered + "\n")
    if args.csv:
        from .io.csvout import table_text_to_csv

        # Convert only the leading table block (some renders add footers).
        lines = report.rendered.splitlines()
        table_lines = []
        for index, line in enumerate(lines):
            if index >= 2 and not line.strip():
                break
            table_lines.append(line)
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(table_text_to_csv("\n".join(table_lines)))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
