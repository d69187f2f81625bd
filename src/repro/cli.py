"""Command-line interface: ``python -m repro <command>``.

Exposes every experiment runner so the paper's tables and figures can
be regenerated without writing Python:

- ``python -m repro table1`` / ``table2``
- ``python -m repro figure 1`` … ``figure 9``
- ``python -m repro spread restaurants phone``
- ``python -m repro discover`` (bootstrapping, perfect vs budgeted)
- ``python -m repro crawl`` (focused-crawl policy comparison)
- ``python -m repro resolve`` (entity-resolution demo)
- ``python -m repro serve`` / ``serve-bench`` (the online query
  service over a finished ``repro all`` run, and its load generator)
- ``python -m repro journal-gc`` (reap old run journals)
- ``python -m repro bench --history`` (cross-PR benchmark trajectory)

``table1``, ``table2`` and ``figure N`` print the text ``repro all``
writes for that table or figure, and ``--csv DIR`` writes the same CSV
files; both render through :data:`repro.pipeline.experiments.ARTIFACTS`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.pipeline.config import ExperimentConfig

__all__ = ["build_parser", "main"]


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        scale=args.scale,
        seed=args.seed,
        traffic_entities=args.traffic_entities,
        traffic_events=args.traffic_events,
        traffic_cookies=args.traffic_cookies,
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        default="small",
        choices=("tiny", "small", "medium", "paper", "ladder"),
        help="corpus scale preset (default: small)",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--csv", type=Path, default=None, metavar="DIR",
                        help="also write series as CSV into DIR")
    parser.add_argument("--traffic-entities", type=int, default=20000)
    parser.add_argument("--traffic-events", type=int, default=200000)
    parser.add_argument("--traffic-cookies", type=int, default=50000)


def _maybe_csv(args: argparse.Namespace, name: str, series: dict) -> None:
    if args.csv is None:
        return
    from repro.report.figures import write_csv

    path = write_csv(args.csv / f"{name}.csv", series)
    print(f"(series written to {path})", file=sys.stderr)


def _artifact_cache(args: argparse.Namespace):
    """The artifact cache ``--cache-dir`` and ``--cache-budget-mb`` name."""
    from repro.perf import ArtifactCache

    budget_mb = args.cache_budget_mb
    return ArtifactCache(
        directory=args.cache_dir,
        max_bytes=None if budget_mb is None else budget_mb * 1024 * 1024,
    )


# -- command handlers --------------------------------------------------------


def _cmd_artifact(args: argparse.Namespace) -> int:
    """``table1``/``table2``/``figure N``: print the files ``repro all``
    writes for that task, one empty line apart; ``--csv`` writes its CSVs."""
    from repro.pipeline.experiments import ARTIFACTS

    name = f"figure{args.number}" if args.command == "figure" else args.command
    if name not in ARTIFACTS:
        print(f"unknown figure {args.number}; the paper has figures 1-9",
              file=sys.stderr)
        return 2
    texts = []
    for __, text, csvs in ARTIFACTS[name].render(_config_from(args)):
        texts.append(text)
        for stem, series in csvs.items():
            _maybe_csv(args, stem, series)
    print("\n\n".join(texts))
    return 0


def _cmd_spread(args: argparse.Namespace) -> int:
    from repro.core.coverage import sites_needed_for_coverage
    from repro.pipeline.experiments import run_spread

    result = run_spread(args.domain, args.attribute, _config_from(args))
    print(result.render())
    needed = sites_needed_for_coverage(result.incidence, args.target, k=args.k)
    print(
        f"\nsites needed for {args.target:.0%} coverage at k={args.k}: {needed}"
    )
    _maybe_csv(args, f"spread_{args.domain}_{args.attribute}", result.series())
    return 0


def _cmd_discover(args: argparse.Namespace) -> int:
    from repro.core.graph import EntitySiteGraph
    from repro.discovery.bootstrap import BootstrapExpansion
    from repro.discovery.noisy import NoisyExpansion
    from repro.webgen.profiles import get_profile

    config = _config_from(args)
    incidence = get_profile(args.domain, args.attribute).generate(
        config.scale_preset, seed=config.seed
    )
    graph = EntitySiteGraph(incidence)
    diameter = graph.diameter()
    print(f"corpus: {incidence}, diameter {diameter} (bound: d/2 = {diameter // 2})")

    perfect = BootstrapExpansion(incidence).random_seed_trial(
        seed_size=args.seeds, rng=config.seed
    )
    print(
        f"perfect expansion:  {perfect.iterations} iterations, "
        f"{perfect.entity_fraction(incidence.n_entities):.1%} of database, "
        f"entity trajectory {perfect.entity_counts}"
    )
    noisy = NoisyExpansion(
        incidence,
        retrieval_budget=args.budget,
        extraction_recall=args.recall,
        seed=config.seed,
    ).run(perfect.entities[: args.seeds].tolist())
    print(
        f"budgeted expansion: {noisy.iterations} iterations, "
        f"{noisy.entity_fraction(incidence.n_entities):.1%} of database, "
        f"{noisy.queries_issued} queries "
        f"(budget={args.budget}, recall={args.recall})"
    )
    return 0


def _cmd_crawl(args: argparse.Namespace) -> int:
    from repro.discovery.crawler import FocusedCrawler
    from repro.webgen.profiles import get_profile

    config = _config_from(args)
    incidence = get_profile(args.domain, args.attribute).generate(
        config.scale_preset, seed=config.seed
    )
    crawler = FocusedCrawler(incidence)
    results = crawler.compare_policies(args.pages, rng=config.seed)
    print(f"corpus: {incidence}; page budget {args.pages}")
    for policy, result in results.items():
        final = float(result.coverage[-1]) if len(result.coverage) else 0.0
        print(
            f"  {policy:<14} sites={result.sites_crawled:<6} "
            f"pages={result.total_pages:<8} coverage={final:.1%}"
        )
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    import signal

    # SIGTERM takes Ctrl-C's path: KeyboardInterrupt unwinds the run,
    # and each executor shuts its worker pool down on the way out (the
    # workers themselves exit once this process is gone).
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        return _run_all(args)
    except KeyboardInterrupt:
        print(
            f"\ninterrupted; finish the journaled run with: "
            f"repro all {args.output} --resume",
            file=sys.stderr,
        )
        return 130
    finally:
        signal.signal(signal.SIGTERM, previous)


def _run_all(args: argparse.Namespace) -> int:
    from repro.pipeline.config import ExecutionSettings
    from repro.pipeline.runall import run_everything_with_report
    from repro.resilience import JournalMismatchError

    status = _install_fault_plan(args.inject_faults)
    if status:
        return status
    if args.compile_store and args.no_cache:
        print(
            "--compile-store emits cache-addressed store blobs and needs "
            "the artifact cache; drop --no-cache",
            file=sys.stderr,
        )
        return 2

    cache = _artifact_cache(args)
    resume = args.resume is not None
    run_id = args.run_id
    if resume and args.resume:  # `--resume RUN_ID` names the journal directly
        run_id = args.resume
    settings = ExecutionSettings(
        workers=args.workers,
        use_cache=not args.no_cache,
        cache_dir=str(cache.directory),
        cache_budget_bytes=cache.max_bytes,
        retries=args.retries,
        task_timeout=args.task_timeout,
        failure_mode="raise" if args.fail_fast else "continue",
        keep_journal=True,
        run_id=run_id,
        resume=resume,
        journal_dir=None if args.journal_dir is None else str(args.journal_dir),
    )
    try:
        written, report = run_everything_with_report(
            args.output, _config_from(args), settings=settings
        )
    except JournalMismatchError as exc:
        print(f"cannot resume: {exc}", file=sys.stderr)
        return 2
    print(f"\n{len(written)} artifacts in {args.output}")
    stats = report.cache
    if report.cache_enabled:
        quarantine = (
            f", {stats.quarantined} quarantined" if stats.quarantined else ""
        )
        print(
            f"cache: {stats.hits} hits / {stats.misses} misses "
            f"(hit rate {stats.hit_rate:.0%}{quarantine}) at {report.cache_dir}"
        )
    print(f"total: {report.total_seconds:.1f}s with {report.workers} worker(s)")
    if report.ok and args.compile_store:
        from repro.perf import configure_cache
        from repro.store import build_store, load_manifest

        configure_cache(cache)
        # The run's (CPU-clamped) worker count; one timing per pair.
        store = build_store(
            load_manifest(args.output),
            workers=report.workers,
            on_complete=lambda outcome: report.add_timing(
                outcome.name, outcome.seconds
            ),
        )
        print(
            f"store compiled [{store.identity[:12]}]: "
            f"{len(store.pair_blobs)} pair blob sets"
        )
    if args.perf_report is not None:
        path = report.write(args.perf_report)
        print(f"perf report written to {path}")
    if not report.ok:
        print(
            f"\n{len(report.failures)} task(s) failed, "
            f"{len(report.skipped)} skipped; rerun just the missing work "
            f"with: repro all {args.output} --resume {report.run_id}",
            file=sys.stderr,
        )
        return 3
    return 0


def _install_fault_plan(plan_text: str | None) -> int:
    """Validate and install an ``--inject-faults`` plan; 0 on success."""
    import os

    from repro.resilience import ENV_FAULTS, FaultPlan, FaultPlanError, clear_plan_cache

    if plan_text is None:
        return 0
    try:
        FaultPlan.parse(plan_text)
    except FaultPlanError as exc:
        print(f"bad --inject-faults plan: {exc}", file=sys.stderr)
        return 2
    # Through the environment so forked worker processes inherit it.
    os.environ[ENV_FAULTS] = plan_text
    clear_plan_cache()
    return 0


def _resolve_backend(args: argparse.Namespace) -> str:
    """Validate the ``--backend`` / ``--no-cache`` combination.

    The mmap tier maps cache-addressed store blobs, so it needs the
    artifact cache; ``auto`` quietly degrades to ``ram`` when the cache
    is off, while an explicit ``mmap`` is an error.
    """
    backend = getattr(args, "backend", "auto")
    if args.no_cache and backend == "mmap":
        raise ValueError(
            f"--backend {backend} compiles cache-addressed store blobs "
            "and needs the artifact cache; drop --no-cache"
        )
    if args.no_cache and backend == "auto":
        return "ram"
    return backend


def _build_serve_index(args: argparse.Namespace, manifest_path=None):
    """Load a run manifest and build the serving index (cache-aware)."""
    from repro.perf import configure_cache
    from repro.serve import build_index, load_manifest

    backend = _resolve_backend(args)
    if not args.no_cache:
        configure_cache(_artifact_cache(args))
    if manifest_path is None:
        manifest_path = args.artifacts
    manifest = load_manifest(manifest_path)
    index = build_index(manifest, backend=backend)
    print(
        f"index built in {index.build_seconds:.2f}s: "
        f"{len(index.pairs)} (domain, attribute) pairs, "
        f"{len(index.demand)} traffic sites "
        f"[{index.backend} backend, fingerprint {index.identity[:12]}]"
    )
    return index


def _serve_settings(args: argparse.Namespace, port: int):
    """ServeSettings from the shared serve/serve-bench flag set."""
    from repro.serve import ServeSettings

    return ServeSettings(
        host=args.host,
        port=port,
        deadline_seconds=args.deadline,
        query_threads=args.query_threads,
        response_cache_entries=(
            0 if args.no_response_cache else args.response_cache_entries
        ),
    )


def _expand_run_paths(paths: list[Path]) -> list[Path]:
    """Expand a single registry directory into its run directories.

    A lone path that is a directory *without* its own ``manifest.json``
    but whose children have one is a registry: every child run is
    served.  Anything else passes through unchanged.
    """
    from repro.pipeline.config import MANIFEST_NAME

    if len(paths) == 1:
        root = paths[0]
        if root.is_dir() and not (root / MANIFEST_NAME).exists():
            children = sorted(
                child
                for child in root.iterdir()
                if child.is_dir() and (child / MANIFEST_NAME).exists()
            )
            if children:
                return children
    return paths


def _run_id_of(path: Path) -> str:
    """Registry name of a run: its directory name."""
    from repro.pipeline.config import MANIFEST_NAME

    resolved = Path(path)
    if resolved.name == MANIFEST_NAME:
        resolved = resolved.parent
    return resolved.name


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import time

    from repro.serve import ShardPlan, ShardedServer, build_index

    status = _install_fault_plan(args.inject_faults)
    if status:
        return status
    run_paths = _expand_run_paths([Path(p) for p in args.artifacts])
    run_ids = [_run_id_of(path) for path in run_paths]
    duplicates = sorted({rid for rid in run_ids if run_ids.count(rid) > 1})
    if duplicates:
        print(
            f"duplicate run id(s) {duplicates}: run directories must "
            "have distinct names",
            file=sys.stderr,
        )
        return 2
    primary_path, extra_paths = run_paths[0], run_paths[1:]
    extra_runs = dict(zip(run_ids[1:], extra_paths))
    try:
        backend = _resolve_backend(args)
        server = ShardedServer(
            index=_build_serve_index(args, manifest_path=primary_path),
            manifest_path=primary_path,
            settings=_serve_settings(args, args.port),
            plan=ShardPlan(
                workers=args.workers, reload_poll_seconds=args.reload_poll
            ),
            # Reloads (and extra-run builds) rebuild into the same tier.
            builder=lambda manifest: build_index(manifest, backend=backend),
            extra_runs=extra_runs,
            default_run=run_ids[0],
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"no manifest: {exc}", file=sys.stderr)
        return 2
    host, port = server.start()
    # SIGTERM takes Ctrl-C's path: stop() below, then exit 0.  Installed
    # after start(), so forked workers keep the default action and
    # stop()'s terminate() still ends them; before the banner, so a
    # caller that waits for it can already stop the server cleanly.
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        if extra_runs:
            print(f"multi-run registry: {sorted(run_ids)} (default: {run_ids[0]})")
        shards = "" if args.workers == 1 else f" with {args.workers} workers"
        print(f"serving on http://{host}:{port}{shards} (Ctrl-C to stop)")
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        signal.signal(signal.SIGTERM, previous)
    return 0


def _parse_sweep(text: str | None) -> list[float] | None:
    """Parse a ``--sweep`` rate ladder ('a,b,c' of positive req/s)."""
    if text is None:
        return None
    try:
        rates = [float(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        raise ValueError(f"unparseable sweep rates: {text!r}") from None
    if not rates or any(rate <= 0 for rate in rates):
        raise ValueError(f"sweep rates must be positive: {text!r}")
    return rates


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import json

    from repro.perf import peak_rss_mb
    from repro.serve import ShardPlan, ShardedServer
    from repro.serve.loadgen import (
        LoadPlan,
        OpenLoadPlan,
        build_open_schedule,
        build_streams,
        fetch,
        find_knee,
        run_load,
        run_open_load,
        stream_digest,
        write_bench_report,
    )

    status = _install_fault_plan(args.inject_faults)
    if status:
        return status
    try:
        sweep_rates = _parse_sweep(args.sweep)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        index = _build_serve_index(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"no manifest: {exc}", file=sys.stderr)
        return 2

    open_mode = args.mode == "open"
    if open_mode:
        open_plan = OpenLoadPlan(
            seed=args.seed,
            rate=args.rate,
            duration_seconds=args.duration,
            connections=args.connections,
            zipf_exponent=args.zipf_exponent,
        )
        plan = open_plan.closed_plan()
    else:
        plan = LoadPlan(
            seed=args.seed,
            clients=args.clients,
            requests=args.requests,
            zipf_exponent=args.zipf_exponent,
        )
    summary = index.summary()
    streams = build_streams(summary, plan)
    print(f"request stream sha256: {stream_digest(streams)}")
    if args.dry_run:
        return 0

    # Self-hosted target: ephemeral port, torn down after the run.
    server = ShardedServer(
        index=index,
        settings=_serve_settings(args, 0),
        plan=ShardPlan(workers=args.workers),
    )
    host, port = server.start()

    sweep = None
    warmup = None
    metrics = None
    try:
        if open_mode:
            if args.warmup == "on":
                # Replay the largest rung once, unmeasured, so the sweep
                # reports warm steady-state latency.  Connections are
                # established sequentially, so worker i is warmed with
                # the same stream it will serve in the measured runs.
                warm_rate = max(sweep_rates or [], default=open_plan.rate)
                warm_plan = open_plan.at_rate(max(warm_rate, open_plan.rate))
                warm_streams = build_streams(summary, warm_plan.closed_plan())
                print(
                    f"warmup: replaying {warm_plan.requests} requests at "
                    f"{warm_plan.rate:g} req/s (unmeasured)"
                )
                warm_result = run_open_load(
                    host,
                    port,
                    warm_streams,
                    build_open_schedule(warm_plan),
                    warm_plan.rate,
                )
                warmup = {
                    "rate_rps": warm_plan.rate,
                    "requests": warm_plan.requests,
                    "transport_errors": warm_result.transport_errors,
                }
            knee_result = None
            if sweep_rates is not None:
                sweep, knee_result = find_knee(
                    host,
                    port,
                    summary,
                    open_plan,
                    sweep_rates,
                    p99_budget_ms=args.p99_budget_ms,
                )
                for row in sweep["rates"]:
                    print(
                        f"  rate {row['offered_rate_rps']:>10} req/s -> "
                        f"{row['throughput_rps']:>10} achieved, "
                        f"p99 {row['p99_ms']}ms "
                        f"{'ok' if row['ok'] else 'OVER BUDGET'}"
                    )
                if knee_result is not None:
                    open_plan = open_plan.at_rate(sweep["knee_rate_rps"])
            if knee_result is not None:
                # Report the very run that established the knee instead
                # of re-measuring it (a second run has its own noise).
                result = knee_result
            else:
                result = run_open_load(
                    host,
                    port,
                    streams,
                    build_open_schedule(open_plan),
                    open_plan.rate,
                )
        else:
            result = run_load(host, port, streams, keep_alive=args.keep_alive == "on")
        if args.workers == 1:
            # With N > 1 workers, /metrics would answer for one shard.
            metrics = json.loads(fetch(host, port, "/metrics")[1])
    finally:
        # Peak RSS must be read while the serving processes are alive:
        # /proc/<pid>/status vanishes with the worker.
        rss_mb = peak_rss_mb(server.worker_pids())
        server.stop()

    target = (
        f"self-hosted {host}:{port} "
        f"({args.workers} worker(s), {args.mode} loop)"
    )
    payload = write_bench_report(
        args.report,
        open_plan if open_mode else plan,
        result,
        server_metrics=metrics,
        target=target,
        rss_mb=rss_mb,
        sweep=sweep,
        warmup=warmup,
    )
    if open_mode:
        print(
            f"offered {payload['offered_rate_rps']} req/s for "
            f"{open_plan.duration_seconds}s over "
            f"{open_plan.connections} connection(s): "
            f"{result.total_requests} completed "
            f"({payload['throughput_rps']} req/s achieved)"
        )
        if sweep is not None:
            print(
                f"knee: {sweep['knee_rate_rps']} req/s offered with p99 "
                f"under {sweep['p99_budget_ms']}ms"
            )
    else:
        print(
            f"{result.total_requests} requests in {result.wall_seconds:.2f}s "
            f"({payload['throughput_rps']} req/s) with {plan.clients} client(s)"
        )
    if payload["per_worker"]:
        print(f"per-worker requests: {payload['per_worker']}")
    latency = payload["latency_ms"]
    print(
        f"latency p50={latency['p50_ms']}ms p95={latency['p95_ms']}ms "
        f"p99={latency['p99_ms']}ms"
    )
    print(f"statuses: {payload['statuses']}")
    if rss_mb is not None:
        print(f"server peak rss: {rss_mb} MB")
    print(f"report written to {args.report}")
    return 1 if result.transport_errors else 0


def _cmd_journal_gc(args: argparse.Namespace) -> int:
    from repro.resilience import gc_journals

    try:
        result = gc_journals(
            directory=args.journal_dir,
            keep=args.keep,
            max_age_days=args.max_age_days,
            protect=tuple(args.protect),
            grace_seconds=args.grace_seconds,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(result.summary())
    for run_id in result.removed:
        print(f"  removed {run_id}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf import collect_bench_rows, format_history, update_performance_doc

    if not args.history:
        print("nothing to do; pass --history", file=sys.stderr)
        return 2
    rows = collect_bench_rows(args.root)
    if not args.no_doc:
        update_performance_doc(args.doc, rows)
        print(f"(history table written to {args.doc})\n")
    print(format_history(rows))
    return 0


def _cmd_evolve(args: argparse.Namespace) -> int:
    from repro.report.figures import ascii_plot
    from repro.webgen.evolution import (
        CorpusEvolver,
        recrawl_comparison,
        staleness_curve,
    )
    from repro.webgen.profiles import get_profile

    config = _config_from(args)
    incidence = get_profile(args.domain, args.attribute).generate(
        config.scale_preset, seed=config.seed
    )
    evolver = CorpusEvolver(
        edge_drop_rate=args.churn, edge_add_rate=args.churn
    )
    snapshots = evolver.evolve(incidence, epochs=args.epochs, rng=config.seed)
    decay = staleness_curve(snapshots, incidence)
    print(
        ascii_plot(
            {"still-true fraction": (range(1, len(decay) + 1), decay)},
            title=f"Snapshot staleness ({args.churn:.0%} churn per epoch)",
            x_label="epochs since crawl",
            y_label="fraction of facts still true",
        )
    )
    policies = recrawl_comparison(
        incidence,
        evolver,
        epochs=args.epochs,
        budget_per_epoch=args.budget,
        rng=config.seed,
    )
    print(f"\nfinal accuracy with {args.budget} re-crawled sites/epoch:")
    for policy, value in policies.items():
        print(f"  {policy:<14} {value:.3f}")
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    from repro.crawl.deepweb import DeepWebProber, DeepWebSite
    from repro.entities.business import generate_listings

    hidden = generate_listings(args.domain, args.entities, seed=args.seed)
    site = DeepWebSite("forms.example.com", hidden, page_size=args.page_size)
    prober = DeepWebProber(hidden[: args.seeds], max_queries=args.queries)
    result = prober.probe(site)
    print(f"hidden records: {site.n_hidden} (page size {site.page_size})")
    print(f"seeds: {args.seeds} known entities; budget {args.queries} queries")
    print(f"harvested: {len(result.harvested)} ({result.coverage:.1%})")
    print(f"queries issued: {result.queries_issued} "
          f"({result.queries_per_record:.2f} per record)")
    return 0


def _cmd_resolve(args: argparse.Namespace) -> int:
    from repro.entities.business import generate_listings
    from repro.linking.mentions import MentionGenerator
    from repro.linking.resolution import EntityResolver

    listings = generate_listings(args.domain, args.entities, seed=args.seed)
    mentions = MentionGenerator(seed=args.seed + 1).corpus(
        listings, mentions_per_listing=args.mentions
    )
    resolver = EntityResolver(listings, threshold=args.threshold)
    report = resolver.evaluate(mentions)
    print(f"listings: {len(listings)}, mentions: {report.n_mentions}")
    print(f"linked: {report.n_linked}")
    print(f"precision: {report.precision:.3f}")
    print(f"recall:    {report.recall:.3f}")
    print(f"F1:        {report.f1:.3f}")
    print(f"mean blocking candidates per mention: {report.mean_candidates:.1f} "
          f"(vs {len(listings)} for a full scan)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce 'An Analysis of Structured Data on the Web' "
            "(VLDB 2012) on a synthetic substrate."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    table1 = commands.add_parser("table1", help="domain inventory (Table 1)")
    table1.set_defaults(handler=_cmd_artifact)
    _add_common(table1)

    table2 = commands.add_parser("table2", help="graph metrics (Table 2)")
    table2.set_defaults(handler=_cmd_artifact)
    _add_common(table2)

    figure = commands.add_parser("figure", help="reproduce figure 1-9")
    figure.add_argument("number", type=int, help="figure number (1-9)")
    figure.set_defaults(handler=_cmd_artifact)
    _add_common(figure)

    spread = commands.add_parser("spread", help="k-coverage for one panel")
    spread.add_argument("domain")
    spread.add_argument("attribute")
    spread.add_argument("--target", type=float, default=0.9)
    spread.add_argument("-k", type=int, default=1)
    spread.set_defaults(handler=_cmd_spread)
    _add_common(spread)

    discover = commands.add_parser(
        "discover", help="bootstrapping discovery, perfect vs budgeted"
    )
    discover.add_argument("--domain", default="restaurants")
    discover.add_argument("--attribute", default="phone")
    discover.add_argument("--seeds", type=int, default=5)
    discover.add_argument("--budget", type=int, default=10)
    discover.add_argument("--recall", type=float, default=0.9)
    discover.set_defaults(handler=_cmd_discover)
    _add_common(discover)

    crawl = commands.add_parser("crawl", help="focused-crawl policy comparison")
    crawl.add_argument("--domain", default="restaurants")
    crawl.add_argument("--attribute", default="phone")
    crawl.add_argument("--pages", type=int, default=2000)
    crawl.set_defaults(handler=_cmd_crawl)
    _add_common(crawl)

    run_all = commands.add_parser(
        "all", help="regenerate every table and figure into a directory"
    )
    run_all.add_argument("output", type=Path, help="output directory")
    run_all.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the staged executor (default: 1)",
    )
    run_all.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-addressed artifact cache",
    )
    run_all.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="cache location (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-artifacts)",
    )
    run_all.add_argument(
        "--cache-budget-mb",
        type=int,
        default=None,
        metavar="MB",
        help="LRU byte budget for the cache (default: unlimited)",
    )
    run_all.add_argument(
        "--perf-report",
        type=Path,
        default=None,
        metavar="FILE",
        help="write a JSON performance report (timings, cache stats, "
        "failure report)",
    )
    run_all.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="extra attempts per task after the first (default: 2)",
    )
    run_all.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-attempt wall-clock budget (pooled execution only)",
    )
    run_all.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort on the first terminal task failure instead of "
        "completing independent branches (exit code 1 instead of 3)",
    )
    run_all.add_argument(
        "--resume",
        nargs="?",
        const="",
        default=None,
        metavar="RUN_ID",
        help="skip tasks an existing journal records as done; with no "
        "RUN_ID the id is re-derived from the config and output dir",
    )
    run_all.add_argument(
        "--run-id",
        default=None,
        metavar="ID",
        help="journal id to checkpoint under (default: derived)",
    )
    run_all.add_argument(
        "--journal-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="journal location (default: $REPRO_JOURNAL_DIR or "
        "~/.cache/repro-journals)",
    )
    run_all.add_argument(
        "--inject-faults",
        default=None,
        metavar="PLAN",
        help="deterministic fault-injection plan for chaos testing, "
        "e.g. 'op=error,task=figure3,times=1; op=corrupt,key=*' "
        "(see docs/robustness.md)",
    )
    run_all.add_argument(
        "--compile-store",
        action="store_true",
        help="after the run, compile the store's array blobs so `repro "
        "serve --backend ram|mmap` starts against warm artifacts (needs "
        "the cache)",
    )
    run_all.set_defaults(handler=_cmd_all)
    _add_common(run_all)

    def add_serve_common(
        sub: argparse.ArgumentParser, multi: bool = False
    ) -> None:
        if multi:
            sub.add_argument(
                "artifacts",
                type=Path,
                nargs="+",
                help="output directories of finished `repro all` runs "
                "(or their manifest.json files); several runs (or one "
                "registry directory of runs) serve behind "
                "/v1/run/{run_id}/ prefixes, first run is the default",
            )
        else:
            sub.add_argument(
                "artifacts",
                type=Path,
                help="output directory of a finished `repro all` run "
                "(or its manifest.json)",
            )
        sub.add_argument(
            "--backend",
            choices=("auto", "ram", "mmap"),
            default="auto",
            help="storage tier for the serving index: the compiled CSR "
            "blobs loaded whole or memory-mapped; auto picks by "
            "manifest size (see docs/storage.md)",
        )
        sub.add_argument("--host", default="127.0.0.1", help="bind address")
        sub.add_argument(
            "--workers",
            type=int,
            default=1,
            metavar="N",
            help="worker processes sharing the port (default: 1)",
        )
        sub.add_argument(
            "--deadline",
            type=float,
            default=5.0,
            metavar="SECONDS",
            help="per-request wall-clock budget (default: 5.0)",
        )
        sub.add_argument(
            "--query-threads",
            type=int,
            default=8,
            help="worker threads executing query bodies (default: 8)",
        )
        sub.add_argument(
            "--response-cache-entries",
            type=int,
            default=1024,
            metavar="N",
            help="LRU response-cache capacity (default: 1024)",
        )
        sub.add_argument(
            "--no-response-cache",
            action="store_true",
            help="disable the response cache (byte-identity checks)",
        )
        sub.add_argument(
            "--no-cache",
            action="store_true",
            help="build the index without the artifact cache",
        )
        sub.add_argument(
            "--cache-dir",
            type=Path,
            default=None,
            metavar="DIR",
            help="artifact cache location (default: $REPRO_CACHE_DIR or "
            "~/.cache/repro-artifacts)",
        )
        sub.add_argument(
            "--cache-budget-mb",
            type=int,
            default=None,
            metavar="MB",
            help="LRU byte budget for the artifact cache",
        )
        sub.add_argument(
            "--inject-faults",
            default=None,
            metavar="PLAN",
            help="fault plan targeting serve handlers, e.g. "
            "'op=hang,task=serve:setcover,seconds=30'",
        )

    serve = commands.add_parser(
        "serve", help="HTTP query service over a finished run's artifacts"
    )
    serve.add_argument(
        "--port", type=int, default=8123, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--reload-poll",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="poll the manifest and hot-swap the index on change "
        "(default: 0 = off)",
    )
    add_serve_common(serve, multi=True)
    serve.set_defaults(handler=_cmd_serve)

    serve_bench = commands.add_parser(
        "serve-bench",
        help="seeded load generator (closed or open loop) against a "
        "self-hosted server",
    )
    serve_bench.add_argument("--seed", type=int, default=7, help="stream seed")
    serve_bench.add_argument(
        "--mode",
        choices=("closed", "open"),
        default="closed",
        help="closed: clients wait for responses (PR4-compatible); "
        "open: seeded Poisson arrivals at --rate (default: closed)",
    )
    serve_bench.add_argument(
        "--clients", type=int, default=4, help="concurrent closed-loop clients"
    )
    serve_bench.add_argument(
        "--requests", type=int, default=200, help="total requests across clients"
    )
    serve_bench.add_argument(
        "--keep-alive",
        choices=("on", "off"),
        default="on",
        help="closed loop: reuse one connection per client, or open a "
        "fresh connection per request (default: on)",
    )
    serve_bench.add_argument(
        "--rate",
        type=float,
        default=2000.0,
        metavar="RPS",
        help="open loop: offered request rate (default: 2000)",
    )
    serve_bench.add_argument(
        "--duration",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="open loop: run length per measurement (default: 2.0)",
    )
    serve_bench.add_argument(
        "--connections",
        type=int,
        default=2,
        metavar="N",
        help="open loop: pipelined keep-alive connections (default: 2)",
    )
    serve_bench.add_argument(
        "--sweep",
        default=None,
        metavar="R1,R2,...",
        help="open loop: sweep these offered rates ascending and report "
        "the knee (highest rate with p99 under --p99-budget-ms)",
    )
    serve_bench.add_argument(
        "--p99-budget-ms",
        type=float,
        default=50.0,
        metavar="MS",
        help="open loop: p99 latency budget the knee must meet "
        "(default: 50)",
    )
    serve_bench.add_argument(
        "--warmup",
        choices=("on", "off"),
        default="off",
        help="open loop: replay the largest rung once before measuring "
        "so rates report warm steady state (default: off)",
    )
    serve_bench.add_argument(
        "--zipf-exponent",
        type=float,
        default=1.1,
        help="popularity skew of entity/site/depth picks (default: 1.1)",
    )
    serve_bench.add_argument(
        "--report",
        type=Path,
        default=Path("BENCH_PR7.json"),
        metavar="FILE",
        help="latency/throughput report path (default: BENCH_PR7.json)",
    )
    serve_bench.add_argument(
        "--dry-run",
        action="store_true",
        help="print the request-stream digest without issuing requests",
    )
    add_serve_common(serve_bench)
    serve_bench.set_defaults(handler=_cmd_serve_bench)

    journal_gc = commands.add_parser(
        "journal-gc", help="reap old run journals (keep/max-age retention)"
    )
    journal_gc.add_argument(
        "--journal-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="journal location (default: $REPRO_JOURNAL_DIR or "
        "~/.cache/repro-journals)",
    )
    journal_gc.add_argument(
        "--keep",
        type=int,
        default=10,
        metavar="N",
        help="keep the N most recent unprotected journals (default: 10)",
    )
    journal_gc.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        metavar="D",
        help="additionally remove journals older than D days",
    )
    journal_gc.add_argument(
        "--protect",
        action="append",
        default=[],
        metavar="RUN_ID",
        help="run id that must survive (repeatable); e.g. one about to "
        "be --resume'd",
    )
    journal_gc.add_argument(
        "--grace-seconds",
        type=float,
        default=3600.0,
        metavar="S",
        help="journals touched within S seconds are treated as in "
        "flight and kept (default: 3600)",
    )
    journal_gc.set_defaults(handler=_cmd_journal_gc)

    bench = commands.add_parser(
        "bench", help="benchmark tooling (currently: --history)"
    )
    bench.add_argument(
        "--history",
        action="store_true",
        help="aggregate BENCH_PR*.json into the cross-PR trajectory table",
    )
    bench.add_argument(
        "--root",
        type=Path,
        default=Path("."),
        metavar="DIR",
        help="directory holding BENCH_PR*.json (default: .)",
    )
    bench.add_argument(
        "--doc",
        type=Path,
        default=Path("docs/performance.md"),
        metavar="FILE",
        help="performance doc whose data section to refresh "
        "(default: docs/performance.md)",
    )
    bench.add_argument(
        "--no-doc",
        action="store_true",
        help="print the table without touching the doc",
    )
    bench.set_defaults(handler=_cmd_bench)

    evolve = commands.add_parser(
        "evolve", help="corpus churn, staleness, re-crawl policies"
    )
    evolve.add_argument("--domain", default="banks")
    evolve.add_argument("--attribute", default="phone")
    evolve.add_argument("--epochs", type=int, default=6)
    evolve.add_argument("--churn", type=float, default=0.08)
    evolve.add_argument("--budget", type=int, default=30)
    evolve.set_defaults(handler=_cmd_evolve)
    _add_common(evolve)

    probe = commands.add_parser("probe", help="deep-web harvesting demo")
    probe.add_argument("--domain", default="restaurants")
    probe.add_argument("--entities", type=int, default=500)
    probe.add_argument("--seeds", type=int, default=10)
    probe.add_argument("--queries", type=int, default=3000)
    probe.add_argument("--page-size", type=int, default=15)
    probe.add_argument("--seed", type=int, default=0)
    probe.set_defaults(handler=_cmd_probe)

    resolve = commands.add_parser("resolve", help="entity-resolution demo")
    resolve.add_argument("--domain", default="restaurants")
    resolve.add_argument("--entities", type=int, default=300)
    resolve.add_argument("--mentions", type=int, default=3)
    resolve.add_argument("--threshold", type=float, default=0.7)
    resolve.add_argument("--seed", type=int, default=0)
    resolve.set_defaults(handler=_cmd_resolve)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return int(args.handler(args))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
