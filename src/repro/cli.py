"""Command-line interface.

Subcommands::

    repro list                      # the policy zoo, by category
    repro simulate ...              # one policy x one trace
    repro hierarchy ...             # DRAM->flash->backend tiered replay
    repro corpus ...                # materialise the synthetic corpus
    repro experiment <id> ...       # regenerate a paper table/figure
    repro loadgen ...               # hammer the cache service layer
    repro metrics ...               # render an observability snapshot
    repro timeseries ...            # windowed curves as sparklines/CSV
    repro trace ...                 # list/show/export kept request traces
    repro diff RUN_A RUN_B          # regression-diff two run journals

Examples::

    repro simulate --policy QD-LP-FIFO --family cdn --size 0.1
    repro simulate --policy LRU --trace mytrace.csv --size 0.01
    repro hierarchy --family cdn --policy qd-lp-fifo --admission ghost
    repro corpus --out traces/ --format binary --traces-per-family 2
    repro experiment fig5 --tier quick
    repro experiment fig5 --tier full --checkpoint --retries 3
    repro experiment fig5 --tier full --resume 20260806-101500-ab12cd
    repro experiment outage --tier quick
    repro loadgen --policy QD-LP-FIFO --threads 8 --requests 20000
    repro metrics --run RUN_ID --select 'sweep_*' --labels path=fast
    repro timeseries --run RUN_ID --select 'sim_misses*'
    repro loadgen --open-loop --trace-sample 0.05 --requests 20000
    repro trace list results/loadgen_open_reqtrace.jsonl --slowest 10
    repro trace show results/loadgen_open_reqtrace.jsonl ab12cd
    repro diff baseline-run fresh-run --miss-ratio-tolerance 0.05

Exit codes::

    0    success
    1    runtime failure (unexpected error, a sweep lost cells,
         `repro diff` found a regression beyond tolerance, or the
         reader closed stdout, as `| head` does; nothing on stderr)
    2    user error (bad arguments, unknown policy/family, corrupt or
         missing trace file, unknown resume run id)
    130  interrupted (Ctrl-C); checkpointed sweeps stay resumable
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.experiments.common import FULL, QUICK, TINY

_TIERS = {"tiny": TINY, "quick": QUICK, "full": FULL}

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_INTERRUPT = 130

#: ``repro experiment`` ids -> runner ``repro.experiments.<module>.
#: <function>`` and what it takes: the tier's ``config``, a ``sweep``'s
#: config, ``--workers`` and exec options, the tier's ``scale`` or
#: ``nothing``.  The parser's ``id`` choices are this table's keys.
_EXPERIMENTS: Dict[str, Tuple[str, str, str]] = {
    "table1": ("table1", "run", "config"),
    "fig2": ("fig2", "run", "sweep"),
    "fig3": ("fig3", "run", "scale"),
    "table2": ("fig3", "run", "scale"),
    "fig5": ("fig5", "run", "sweep"),
    "throughput": ("throughput", "run", "nothing"),
    "scalability": ("scalability", "run", "nothing"),
    "ablation-probation": ("ablations", "run_probation_sweep", "config"),
    "ablation-ghost": ("ablations", "run_ghost_sweep", "config"),
    "ablation-clockbits": ("ablations", "run_clock_bits_sweep", "config"),
    "extensions": ("extensions", "run", "sweep"),
    "size-sweep": ("size_sweep", "run", "config"),
    "sized-study": ("sized_study", "run", "config"),
    "outage": ("outage", "run", "config"),
    "outage-cluster": ("outage_cluster", "run", "config"),
    "overload": ("overload_study", "run", "config"),
    "tiered": ("tiered", "run", "config"),
}


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.policies.registry import _SPECS, sized_names

    by_category: dict = {}
    for spec in _SPECS:
        by_category.setdefault(spec.category, []).append(spec.name)
    for category in ("baseline", "lp-fifo", "sota", "qd", "offline",
                     "extension"):
        print(f"{category}:")
        for name in by_category.get(category, []):
            print(f"  {name}")
    print("sized (byte-budgeted; `repro hierarchy`, tier configs):")
    for name in sized_names():
        print(f"  {name}")
    return EXIT_OK


def _load_trace(args: argparse.Namespace):
    from repro.traces.corpus import FAMILY_BY_NAME, build_trace
    from repro.traces.io import read_binary, read_csv

    if args.trace:
        path = Path(args.trace)
        if not path.exists():
            print(f"error: trace file {path} not found", file=sys.stderr)
            return None
        try:
            if path.suffix in (".bin", ".rptr"):
                return read_binary(path)
            return read_csv(path)
        except ValueError as exc:
            print(f"error: cannot load trace: {exc}", file=sys.stderr)
            return None
    family = FAMILY_BY_NAME.get(args.family)
    if family is None:
        known = ", ".join(sorted(FAMILY_BY_NAME))
        print(f"error: unknown family {args.family!r}; known: {known}",
              file=sys.stderr)
        return None
    return build_trace(family, args.index, args.scale, args.seed)


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.policies.registry import make, resolve
    from repro.sim.simulator import simulate

    trace = _load_trace(args)
    if trace is None:
        return EXIT_USAGE
    try:
        spec = resolve(args.policy)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    capacity = trace.cache_size(args.size)
    capacity = max(capacity, spec.min_capacity)
    policy = make(spec.name, capacity)
    result = simulate(policy, trace)
    print(f"trace       : {trace.name} ({trace.num_requests} requests, "
          f"{trace.num_unique} objects)")
    print(f"policy      : {spec.name}")
    print(f"capacity    : {capacity} objects "
          f"({args.size:.3%} of unique objects)")
    print(f"miss ratio  : {result.miss_ratio:.4f}")
    print(f"hits/misses : {result.hits}/{result.misses}")
    return EXIT_OK


def _cmd_hierarchy(args: argparse.Namespace) -> int:
    from repro.hierarchy import dram_flash_config, simulate_hierarchy
    from repro.sized.workloads import attach_sizes, unique_bytes

    trace = _load_trace(args)
    if trace is None:
        return EXIT_USAGE
    sized = attach_sizes(trace, args.size_dist, seed=args.size_seed)
    footprint = unique_bytes(sized)
    dram_bytes = args.dram_bytes or max(
        4096, round(footprint * args.dram_fraction))
    flash_bytes = args.flash_bytes or max(
        4096, round(footprint * args.flash_fraction))
    try:
        config = dram_flash_config(
            dram_bytes=dram_bytes, flash_bytes=flash_bytes,
            dram_policy=args.policy, flash_policy=args.flash_policy,
            flash_admission=args.admission, ttl=args.ttl,
            promote_on_hit=not args.no_promote)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    result = simulate_hierarchy(config, sized)
    print(f"trace     : {trace.name} ({trace.num_requests} requests, "
          f"{footprint} footprint bytes)")
    print(f"dram      : {dram_bytes} bytes, "
          f"{config.tiers[0].policy}")
    print(f"flash     : {flash_bytes} bytes, "
          f"{config.tiers[1].policy}, admission={args.admission}")
    if args.ttl:
        print(f"ttl       : {args.ttl} requests")
    print(result.render())
    return EXIT_OK


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.traces.corpus import build_corpus
    from repro.traces.io import write_binary, write_csv
    from repro.traces.stats import compute_stats

    corpus = build_corpus(scale=args.scale,
                          traces_per_family=args.traces_per_family,
                          seed=args.seed)
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    for trace in corpus:
        stats = compute_stats(trace)
        print(f"{trace.name:22s} {trace.group:5s} "
              f"req={stats.num_requests:8d} obj={stats.num_objects:8d} "
              f"one-hit={stats.one_hit_wonder_ratio:5.1%} "
              f"meanfreq={stats.mean_frequency:6.1f}")
        if out:
            if args.format == "binary":
                write_binary(trace, out / f"{trace.name}.bin")
            else:
                write_csv(trace, out / f"{trace.name}.csv")
    if out:
        print(f"\nwrote {len(corpus)} traces to {out}/")
    return EXIT_OK


def _exec_options(args: argparse.Namespace):
    """Build ExecOptions from the experiment subcommand's flags."""
    from repro.exec import ExecOptions, RetryPolicy

    retry = RetryPolicy(
        max_attempts=args.retries,
        base_delay=args.retry_delay,
        timeout=args.task_timeout,
    )
    return ExecOptions(
        retry=retry,
        resume=args.resume,
        run_id=args.run_id,
        checkpoint=args.checkpoint,
        runs_dir=Path(args.runs_dir) if args.runs_dir else None,
    )


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = _TIERS[args.tier]
    try:
        options = _exec_options(args)
    except ValueError as exc:
        # invalid --retries/--retry-delay/--task-timeout combination
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    module, function, takes = _EXPERIMENTS[args.id]
    if takes != "sweep" and (args.resume or args.checkpoint or args.run_id):
        print(f"note: experiment {args.id!r} does not run a sweep matrix; "
              f"--resume/--checkpoint/--run-id are ignored",
              file=sys.stderr)
    run = getattr(importlib.import_module(f"repro.experiments.{module}"),
                  function)
    try:
        if takes == "sweep":
            result = run(config, workers=args.workers, options=options)
        elif takes == "scale":
            result = run(scale=config.scale)
        elif takes == "config":
            result = run(config)
        else:
            result = run()
    except FileNotFoundError as exc:
        # unknown --resume run id: user error, not a runtime crash
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(result.render())
    failures = getattr(result, "failures", None)
    if failures:
        # partial results were rendered; signal the loss to scripts
        return EXIT_RUNTIME
    return EXIT_OK


def _make_request_tracer(args: argparse.Namespace, registry, clock=None):
    """Build the loadgen's :class:`RequestTracer` (None when not asked).

    ``--trace-sample`` opts in; the tracer shares the run's seed, clock
    and metrics registry so kept traces, exemplars and the
    ``reqtrace_*`` counters all line up.
    """
    if args.trace_sample is None:
        return None
    from repro.obs import RequestTracer

    return RequestTracer(sample=args.trace_sample, seed=args.seed,
                         clock=clock, registry=registry)


def _write_trace_outputs(tracer, args: argparse.Namespace,
                         stem: str) -> None:
    """Flush kept traces to JSONL + validated Chrome trace and say where."""
    from repro.experiments.common import results_dir

    out = (Path(args.trace_out) if args.trace_out
           else results_dir() / f"{stem}_reqtrace.jsonl")
    tracer.write_jsonl(out)
    chrome = out.with_suffix(".chrome.json")
    tracer.write_chrome_trace(chrome)
    stats = tracer.summary()
    print(f"request traces : {out} (kept {stats['kept']} of "
          f"{stats['sampled']} sampled / {stats['requests']} requests; "
          f"render with `repro trace list {out}`)\n"
          f"chrome trace   : {chrome}", file=sys.stderr)


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.experiments.common import results_dir, write_result
    from repro.obs import MetricsRegistry, write_jsonl
    from repro.policies.registry import make, resolve
    from repro.service import (
        CacheService,
        InMemoryBackend,
        LoadInterrupted,
        ServiceConfig,
        run_load,
    )
    from repro.traces.synthetic import zipf_trace

    try:
        spec = resolve(args.policy)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    registry = MetricsRegistry()
    if args.open_loop:
        return _run_open_loadgen(args, spec, registry)
    if args.shards:
        return _run_cluster_loadgen(args, spec, registry)
    try:
        config = ServiceConfig(ttl=args.ttl, max_inflight=args.max_inflight)
        capacity = max(spec.min_capacity, int(args.objects * args.size))
        tracer = _make_request_tracer(args, registry)
        service = CacheService(make(spec.name, capacity),
                               InMemoryBackend(), config,
                               registry=registry, tracer=tracer)
        if args.requests < 1 or args.threads < 1:
            raise ValueError("--requests and --threads must be >= 1")
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rng = np.random.default_rng(args.seed)
    keys = zipf_trace(args.objects, args.requests, args.alpha, rng).tolist()
    try:
        report = run_load(service, keys, threads=args.threads)
    except LoadInterrupted as exc:
        # Exit-code contract from PR 1: Ctrl-C means 130 -- but flush
        # the partial metrics first so the run wasn't for nothing.
        path = write_result("loadgen_partial", exc.report.render())
        print(f"interrupted; partial metrics written to {path}",
              file=sys.stderr)
        return EXIT_INTERRUPT
    report.check_accounting()
    print(report.render())
    write_result("loadgen", report.render())
    metrics_path = results_dir() / "loadgen_metrics.jsonl"
    write_jsonl(registry, metrics_path)
    print(f"metrics snapshot: {metrics_path} "
          f"(render with `repro metrics {metrics_path}`)", file=sys.stderr)
    if tracer is not None:
        _write_trace_outputs(tracer, args, "loadgen")
    return EXIT_OK


def _run_open_loadgen(args: argparse.Namespace, spec, registry) -> int:
    """``repro loadgen --open-loop``: arrival-driven overload mode.

    Demand comes from an arrival schedule on a deterministic
    VirtualClock instead of closed-loop worker threads, so offered
    load can exceed capacity: requests queue in a bounded admission
    queue, dispatch under a static or AIMD-adaptive concurrency limit,
    and are dropped (deadline/displacement) or shed (queue full) when
    the system cannot keep up.  Promotion work is charged on a
    serialised lock timeline via the service-cost model, which is what
    makes the hit-ratio-vs-throughput trade-off measurable.
    """
    import numpy as np

    from repro.experiments.common import results_dir, write_result
    from repro.exec.clock import VirtualClock
    from repro.exec.retry import RetryPolicy
    from repro.obs import TimeSeriesRecorder, write_jsonl
    from repro.policies.registry import make
    from repro.service import (
        CacheService,
        InMemoryBackend,
        ServiceConfig,
        run_open_load,
    )
    from repro.service.overload import (
        AdmissionQueue,
        AimdConfig,
        RetryBudgetConfig,
        ServiceCostModel,
        make_limiter,
        make_schedule,
    )
    from repro.traces.synthetic import zipf_trace

    try:
        if args.requests < 1:
            raise ValueError(f"--requests must be >= 1, got {args.requests}")
        if args.shards:
            raise ValueError("--open-loop does not combine with --shards "
                             "yet; use run_open_cluster_load from Python")
        schedule = make_schedule(
            args.arrival, rate=args.rate, duration=args.duration,
            peak_rate=args.peak_rate, burst=args.burst, seed=args.seed)
        queue = AdmissionQueue(capacity=args.queue,
                               policy=args.queue_policy,
                               deadline=args.queue_deadline)
        limiter = make_limiter(
            args.limiter, static_limit=args.max_inflight or 8,
            aimd=AimdConfig(target_delay=args.target_delay))
        cost = ServiceCostModel(promotion_cost=args.promotion_cost)
        retry_budget = (RetryBudgetConfig(deposit=args.retry_budget)
                        if args.retry_budget is not None else None)
        config = ServiceConfig(
            ttl=args.ttl,
            retry=(RetryPolicy(max_attempts=3, base_delay=0.01)
                   if retry_budget is not None else ServiceConfig().retry),
            retry_budget=retry_budget,
        )
        clock = VirtualClock()
        capacity = max(spec.min_capacity, int(args.objects * args.size))
        tracer = _make_request_tracer(args, registry, clock=clock)
        service = CacheService(make(spec.name, capacity),
                               InMemoryBackend(), config, clock=clock,
                               registry=registry, tracer=tracer)
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rng = np.random.default_rng(args.seed)
    keys = zipf_trace(args.objects, args.requests, args.alpha, rng).tolist()
    recorder = TimeSeriesRecorder(registry, cadence=1.0)
    report = run_open_load(service, keys, schedule, queue=queue,
                           limiter=limiter, cost=cost,
                           timeseries=recorder, registry=registry,
                           tracer=tracer)
    report.check_conservation()
    print(report.render())
    write_result("loadgen_open", report.render())
    metrics_path = results_dir() / "loadgen_open_metrics.jsonl"
    write_jsonl(registry, metrics_path)
    series_path = results_dir() / "loadgen_open_timeseries.jsonl"
    recorder.write_jsonl(series_path)
    print(f"metrics snapshot: {metrics_path}\n"
          f"windowed series : {series_path} "
          f"(render with `repro timeseries {series_path}`)",
          file=sys.stderr)
    if tracer is not None:
        _write_trace_outputs(tracer, args, "loadgen_open")
    return EXIT_OK


def _run_cluster_loadgen(args: argparse.Namespace, spec,
                         registry) -> int:
    """``repro loadgen --shards N``: drive a sharded cluster instead.

    With ``--kill-shard`` the run switches to single-threaded
    tick-paced virtual time (the only mode where a kill window is
    deterministic) and takes the named shard down for the middle
    [0.4, 0.7) of the run, mirroring the X3-cluster experiment.
    """
    from repro.experiments.common import results_dir, write_result
    from repro.exec.clock import VirtualClock
    from repro.obs import write_jsonl
    from repro.policies.registry import make
    from repro.service import LoadInterrupted
    from repro.cluster import (
        ClusterConfig,
        build_cluster,
        make_cluster_workload,
        run_cluster_load,
    )

    try:
        if args.requests < 1 or args.threads < 1:
            raise ValueError("--requests and --threads must be >= 1")
        if args.shards < 1:
            raise ValueError(f"--shards must be >= 1, got {args.shards}")
        if args.kill_shard and args.shards < 2:
            raise ValueError("--kill-shard needs at least 2 shards")
        capacity = max(spec.min_capacity,
                       int(args.objects * args.size / args.shards))
        config = ClusterConfig(replicas=args.replicas)
        kill = args.kill_shard
        tick = args.tick if args.tick is not None else (0.01 if kill else 0.0)
        threads = 1 if kill else args.threads
        clock = VirtualClock() if tick else None
        tracer = _make_request_tracer(args, registry, clock=clock)
        cluster = build_cluster(
            lambda: make(spec.name, capacity),
            shards=args.shards,
            config=config,
            clock=clock,
            registry=registry,
            tracer=tracer,
        )
        checkpoints = None
        if kill:
            if kill not in cluster.shards:
                raise ValueError(
                    f"--kill-shard must be one of "
                    f"{', '.join(sorted(cluster.shards))}, got {kill!r}")
            duration = args.requests * tick
            cluster.kill(kill, 0.4 * duration, 0.7 * duration)
            checkpoints = [0.4 * duration, 0.7 * duration]
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    workload = make_cluster_workload(args.requests, universe=args.objects,
                                     alpha=max(args.alpha, 0.01),
                                     seed=args.seed)
    try:
        report = run_cluster_load(cluster, workload.keys, threads=threads,
                                  tick=tick, checkpoints=checkpoints)
    except LoadInterrupted as exc:
        path = write_result("loadgen_cluster_partial", exc.report.render())
        print(f"interrupted; partial metrics written to {path}",
              file=sys.stderr)
        return EXIT_INTERRUPT
    report.check_accounting()
    print(report.render())
    write_result("loadgen_cluster", report.render())
    metrics_path = results_dir() / "loadgen_cluster_metrics.jsonl"
    write_jsonl(registry, metrics_path)
    print(f"metrics snapshot: {metrics_path} "
          f"(render with `repro metrics {metrics_path} "
          f"--labels shard=*`)", file=sys.stderr)
    if tracer is not None:
        _write_trace_outputs(tracer, args, "loadgen_cluster")
    return EXIT_OK


def _parse_label_filters(pairs) -> Optional[List[tuple]]:
    """``["k=v", ...]`` -> ``[(k, v), ...]``; None on a malformed pair."""
    filters = []
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key:
            return None
        filters.append((key, value))
    return filters


def _filter_metric_rows(rows, select: Optional[str],
                        label_filters: List[tuple]) -> List[dict]:
    """Apply ``--select`` / ``--labels`` to snapshot rows."""
    from fnmatch import fnmatch

    if select:
        rows = [row for row in rows
                if fnmatch(row.get("name", ""), select)]
    for key, value in label_filters:
        # Values are fnmatch globs, so `--labels shard=*` selects every
        # per-shard row (rows without the label never match).
        rows = [row for row in rows
                if key in (row.get("labels") or {})
                and fnmatch(str(row["labels"][key]), value)]
    return rows


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs import (
        read_jsonl,
        render_metrics_table,
        to_jsonl,
        to_prometheus,
    )

    if bool(args.source) == bool(args.run):
        print("error: pass a metrics .jsonl file or --run RUN_ID "
              "(exactly one)", file=sys.stderr)
        return EXIT_USAGE
    label_filters = _parse_label_filters(args.labels)
    if label_filters is None:
        print("error: --labels expects k=v pairs", file=sys.stderr)
        return EXIT_USAGE
    if args.run:
        from repro.exec.journal import Journal

        try:
            # JournalState keeps only the *last* metrics line, so a
            # resumed run that journalled several snapshots renders
            # deterministically: latest wins.
            state = Journal.open(args.run, root=args.runs_dir).load()
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if state.metrics is None:
            print(f"error: run {args.run!r} recorded no metrics snapshot "
                  f"(sweeps record one when run with SimOptions(metrics=...))",
                  file=sys.stderr)
            return EXIT_RUNTIME
        rows, title = state.metrics, f"run {args.run}"
    else:
        try:
            rows = read_jsonl(args.source)
        except FileNotFoundError:
            print(f"error: no such file: {args.source}", file=sys.stderr)
            return EXIT_USAGE
        title = args.source
    rows = _filter_metric_rows(rows, args.select, label_filters)
    if not rows:
        print("error: no metric rows found", file=sys.stderr)
        return EXIT_RUNTIME
    if args.format == "prom":
        print(to_prometheus(rows), end="")
    elif args.format == "jsonl":
        print(to_jsonl(rows), end="")
    else:
        print(render_metrics_table(rows, title=title))
    return EXIT_OK


def _cmd_timeseries(args: argparse.Namespace) -> int:
    from fnmatch import fnmatch

    from repro.obs import (
        read_timeseries_jsonl,
        render_csv,
        render_sparklines,
        series_from_rows,
    )

    if bool(args.source) == bool(args.run):
        print("error: pass a timeseries .jsonl file or --run RUN_ID "
              "(exactly one)", file=sys.stderr)
        return EXIT_USAGE
    if args.run:
        from repro.exec.journal import Journal

        try:
            state = Journal.open(args.run, root=args.runs_dir).load()
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if state.timeseries is None:
            print(f"error: run {args.run!r} recorded no time series "
                  f"(sweeps record one when run with "
                  f"SimOptions(timeseries=...))", file=sys.stderr)
            return EXIT_RUNTIME
        rows = state.timeseries
    else:
        try:
            rows = read_timeseries_jsonl(args.source)
        except FileNotFoundError:
            print(f"error: no such file: {args.source}", file=sys.stderr)
            return EXIT_USAGE
    series_map = series_from_rows(rows)
    if args.select:
        series_map = {key: points for key, points in series_map.items()
                      if fnmatch(key, args.select)}
    if not series_map:
        print("error: no matching series", file=sys.stderr)
        return EXIT_RUNTIME
    if args.format == "csv":
        print(render_csv(series_map), end="")
    else:
        print(render_sparklines(series_map, width=args.width))
    return EXIT_OK


def _cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace list|show|export`` over a kept-trace JSONL file."""
    import json

    from repro.obs import (
        chrome_from_rows,
        read_trace_jsonl,
        render_trace_list,
        render_trace_tree,
        validate_chrome_trace,
    )

    try:
        rows = read_trace_jsonl(args.source)
    except FileNotFoundError:
        print(f"error: no such file: {args.source}", file=sys.stderr)
        return EXIT_USAGE
    if args.action == "list":
        print(render_trace_list(rows, slowest=args.slowest,
                                outcome=args.outcome))
        return EXIT_OK
    if args.action == "show":
        # Prefix match, the way `git show` treats abbreviated hashes --
        # `repro metrics` exemplar lines print full 12-hex ids, but a
        # unique prefix is enough.
        if not args.trace_id:
            print("error: empty trace id", file=sys.stderr)
            return EXIT_USAGE
        matches = [row for row in rows
                   if row["trace_id"].startswith(args.trace_id)]
        if not matches:
            print(f"error: no kept trace matching {args.trace_id!r} "
                  f"in {args.source}", file=sys.stderr)
            return EXIT_RUNTIME
        if len(matches) > 1:
            ids = ", ".join(row["trace_id"] for row in matches)
            print(f"error: ambiguous trace id {args.trace_id!r} "
                  f"(matches: {ids})", file=sys.stderr)
            return EXIT_USAGE
        print(render_trace_tree(matches[0]))
        return EXIT_OK
    # export: rebuild the chrome document from rows so a hand-merged or
    # filtered JSONL still exports, and re-validate before writing.
    doc = chrome_from_rows(rows)
    try:
        validate_chrome_trace(doc)
    except ValueError as exc:
        print(f"error: invalid chrome trace: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    print(f"chrome trace: {out} ({len(rows)} trace(s); open in "
          f"chrome://tracing or ui.perfetto.dev)")
    return EXIT_OK


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.obs.diff import DEFAULT_IGNORES, DiffThresholds, diff_runs

    try:
        thresholds = DiffThresholds(
            metric_rel=args.metric_tolerance,
            miss_ratio_abs=args.miss_ratio_tolerance,
            timeseries_rel=args.timeseries_tolerance,
            ignore=tuple(args.ignore) if args.ignore else DEFAULT_IGNORES,
        )
        report = diff_runs(args.run_a, args.run_b, thresholds,
                           runs_dir=args.runs_dir)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"diff {args.run_a} -> {args.run_b}")
    print(report.render(show_all=args.show_all))
    return EXIT_OK if report.ok else EXIT_RUNTIME


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'FIFO can be Better than LRU' "
                    "(HotOS'23)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered policies")

    sim = sub.add_parser("simulate", help="run one policy over one trace")
    sim.add_argument("--policy", required=True)
    sim.add_argument("--trace", help="CSV or .bin trace file")
    sim.add_argument("--family", default="msr",
                     help="synthetic family when no --trace (default msr)")
    sim.add_argument("--index", type=int, default=0)
    sim.add_argument("--scale", type=float, default=1.0)
    sim.add_argument("--seed", type=int, default=42)
    sim.add_argument("--size", type=float, default=0.1,
                     help="cache size as a fraction of unique objects")

    hier = sub.add_parser(
        "hierarchy",
        help="replay one trace through a DRAM->flash->backend hierarchy")
    hier.add_argument("--trace", help="CSV or .bin trace file")
    hier.add_argument("--family", default="cdn",
                      help="synthetic family when no --trace (default cdn)")
    hier.add_argument("--index", type=int, default=0)
    hier.add_argument("--scale", type=float, default=1.0)
    hier.add_argument("--seed", type=int, default=42)
    hier.add_argument("--policy", default="qd-lp-fifo",
                      help="DRAM-tier policy (unified sized registry)")
    hier.add_argument("--flash-policy", default="fifo",
                      help="flash-tier policy (default fifo)")
    hier.add_argument("--admission", default="admit-all",
                      choices=("admit-all", "ghost", "frequency"),
                      help="flash admission controller")
    hier.add_argument("--dram-bytes", type=int, default=None,
                      help="DRAM budget in bytes (overrides "
                           "--dram-fraction)")
    hier.add_argument("--flash-bytes", type=int, default=None,
                      help="flash budget in bytes (overrides "
                           "--flash-fraction)")
    hier.add_argument("--dram-fraction", type=float, default=0.1,
                      help="DRAM budget as a fraction of the byte "
                           "footprint (default 0.1)")
    hier.add_argument("--flash-fraction", type=float, default=0.2,
                      help="flash budget as a fraction of the byte "
                           "footprint (default 0.2)")
    hier.add_argument("--ttl", type=int, default=0,
                      help="object TTL in requests (0 = no expiry)")
    hier.add_argument("--no-promote", action="store_true",
                      help="lazy promotion: serve flash hits in place "
                           "instead of copying back into DRAM")
    hier.add_argument("--size-dist", choices=("lognormal", "pareto"),
                      default="lognormal",
                      help="object-size distribution (default lognormal)")
    hier.add_argument("--size-seed", type=int, default=1,
                      help="seed for the size distribution (default 1)")

    corpus = sub.add_parser("corpus", help="build / export the corpus")
    corpus.add_argument("--scale", type=float, default=1.0)
    corpus.add_argument("--traces-per-family", type=int, default=None)
    corpus.add_argument("--seed", type=int, default=42)
    corpus.add_argument("--out", help="directory to write trace files to")
    corpus.add_argument("--format", choices=("csv", "binary"),
                        default="binary")

    exp = sub.add_parser("experiment", help="regenerate a paper artifact")
    exp.add_argument("id", choices=tuple(_EXPERIMENTS))
    exp.add_argument("--tier", choices=tuple(_TIERS), default="quick")
    exp.add_argument("--workers", "--jobs", dest="workers", type=int,
                     default=0,
                     help="sweep worker processes (0 = half the cores); "
                          "fast-engine cells fan out across them too")
    exp.add_argument("--resume", metavar="RUN_ID",
                     help="resume a checkpointed sweep from its journal")
    exp.add_argument("--checkpoint", action="store_true",
                     help="journal completed cells under runs/<run-id>/")
    exp.add_argument("--run-id",
                     help="explicit run id for a new checkpointed sweep")
    exp.add_argument("--runs-dir",
                     help="journal root (default $REPRO_RUNS_DIR or runs/)")
    exp.add_argument("--retries", type=int, default=3, metavar="N",
                     help="max attempts per sweep cell (default 3)")
    exp.add_argument("--retry-delay", type=float, default=0.5,
                     metavar="SECONDS",
                     help="base exponential-backoff delay (default 0.5)")
    exp.add_argument("--task-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="per-cell wall-clock budget (default unbounded)")

    load = sub.add_parser(
        "loadgen",
        help="closed-loop load test of the cache service layer")
    load.add_argument("--policy", default="QD-LP-FIFO")
    load.add_argument("--threads", type=int, default=4)
    load.add_argument("--requests", type=int, default=20000)
    load.add_argument("--objects", type=int, default=2000,
                      help="distinct keys in the synthetic workload")
    load.add_argument("--alpha", type=float, default=1.0,
                      help="Zipf skew of the synthetic workload")
    load.add_argument("--size", type=float, default=0.1,
                      help="cache capacity as a fraction of --objects")
    load.add_argument("--ttl", type=float, default=None,
                      help="value freshness lifetime in seconds")
    load.add_argument("--shards", type=int, default=0,
                      help="run a sharded cluster with this many shards "
                           "instead of one service (0 = single-node)")
    load.add_argument("--replicas", type=int, default=1,
                      help="hot-key replica copies per key "
                           "(cluster mode only)")
    load.add_argument("--kill-shard", metavar="NAME",
                      help="take this shard down for the middle of the "
                           "run (cluster mode; forces deterministic "
                           "tick-paced virtual time)")
    load.add_argument("--tick", type=float, default=None,
                      help="virtual seconds between requests "
                           "(cluster mode; implies threads=1)")
    load.add_argument("--max-inflight", type=int, default=None,
                      help="shed misses beyond this many concurrent fetches"
                           " (open-loop: the static dispatch limit)")
    load.add_argument("--seed", type=int, default=42)
    load.add_argument("--open-loop", action="store_true",
                      help="arrival-driven overload mode on a virtual "
                           "clock: demand follows --arrival/--rate "
                           "regardless of completions")
    load.add_argument("--arrival",
                      choices=("poisson", "onoff", "diurnal", "step"),
                      default="step",
                      help="open-loop arrival schedule (default step)")
    load.add_argument("--rate", type=float, default=200.0,
                      help="baseline arrival rate in req/s (open-loop)")
    load.add_argument("--peak-rate", type=float, default=None,
                      help="step-overload peak rate in req/s "
                           "(default --burst x --rate)")
    load.add_argument("--duration", type=float, default=30.0,
                      help="virtual seconds of open-loop schedule")
    load.add_argument("--burst", type=float, default=4.0,
                      help="on/off burst multiplier (and the default "
                           "peak/base ratio for step)")
    load.add_argument("--queue", type=int, default=256,
                      help="admission queue capacity (open-loop)")
    load.add_argument("--queue-policy",
                      choices=("fifo", "lifo", "drop-oldest"),
                      default="fifo",
                      help="overflow/service discipline of the "
                           "admission queue")
    load.add_argument("--queue-deadline", type=float, default=None,
                      help="seconds a request may wait before it is "
                           "dropped instead of served late")
    load.add_argument("--limiter", choices=("static", "aimd"),
                      default="static",
                      help="dispatch concurrency limiter (open-loop): "
                           "static cap or AIMD on observed queue delay")
    load.add_argument("--target-delay", type=float, default=0.05,
                      help="AIMD limiter's queue-delay setpoint, seconds")
    load.add_argument("--promotion-cost", type=float, default=0.002,
                      help="serialised seconds charged per policy "
                           "promotion in the service-cost model")
    load.add_argument("--retry-budget", type=float, default=None,
                      metavar="RATIO",
                      help="retry-budget deposit ratio (e.g. 0.1 caps "
                           "retry amplification at ~10%%); also enables "
                           "a 3-attempt retry policy")
    load.add_argument("--trace-sample", type=float, default=None,
                      metavar="P",
                      help="head-sample this fraction of requests into "
                           "per-request traces (tail rules keep errors, "
                           "drops and the slow tail); off by default")
    load.add_argument("--trace-out", metavar="PATH",
                      help="kept-trace JSONL path (default "
                           "results/<mode>_reqtrace.jsonl; a validated "
                           ".chrome.json is written next to it)")

    metrics = sub.add_parser(
        "metrics",
        help="render a recorded observability snapshot")
    metrics.add_argument("source", nargs="?",
                         help="metrics .jsonl file (e.g. "
                              "results/loadgen_metrics.jsonl)")
    metrics.add_argument("--run", metavar="RUN_ID",
                         help="read the snapshot from a checkpointed "
                              "sweep's journal instead")
    metrics.add_argument("--runs-dir",
                         help="journal root (default $REPRO_RUNS_DIR "
                              "or runs/)")
    metrics.add_argument("--format", choices=("table", "prom", "jsonl"),
                         default="table",
                         help="output format (default table)")
    metrics.add_argument("--select", metavar="NAME",
                         help="only metrics whose name matches this "
                              "glob (e.g. 'sweep_*')")
    metrics.add_argument("--labels", metavar="K=V", action="append",
                         help="only metrics carrying this label value "
                              "(repeatable; filters AND together)")

    timeseries = sub.add_parser(
        "timeseries",
        help="render recorded windowed time series")
    timeseries.add_argument("source", nargs="?",
                            help="timeseries .jsonl file (written by "
                                 "TimeSeriesRecorder.write_jsonl)")
    timeseries.add_argument("--run", metavar="RUN_ID",
                            help="read the series from a checkpointed "
                                 "sweep's journal instead")
    timeseries.add_argument("--runs-dir",
                            help="journal root (default $REPRO_RUNS_DIR "
                                 "or runs/)")
    timeseries.add_argument("--format", choices=("spark", "csv"),
                            default="spark",
                            help="ASCII sparklines or long-format CSV")
    timeseries.add_argument("--select", metavar="GLOB",
                            help="only series whose key matches this "
                                 "glob (e.g. 'sim_misses*LRU*')")
    timeseries.add_argument("--width", type=int, default=64,
                            help="sparkline width in characters")

    trace = sub.add_parser(
        "trace",
        help="list/show/export kept request traces")
    trace_sub = trace.add_subparsers(dest="action", required=True)
    trace_list = trace_sub.add_parser(
        "list", help="table of kept traces in a reqtrace .jsonl file")
    trace_list.add_argument("source",
                            help="kept-trace .jsonl (written by "
                                 "`repro loadgen --trace-sample`)")
    trace_list.add_argument("--slowest", type=int, default=None,
                            metavar="N",
                            help="only the N slowest traces, "
                                 "slowest first")
    trace_list.add_argument("--outcome", metavar="NAME",
                            help="only traces with this root outcome "
                                 "(e.g. error, dropped, shed)")
    trace_show = trace_sub.add_parser(
        "show", help="one kept trace as an indented span tree")
    trace_show.add_argument("source", help="kept-trace .jsonl file")
    trace_show.add_argument("trace_id",
                            help="trace id (unique prefix accepted; "
                                 "`repro metrics` exemplar lines print "
                                 "the full id)")
    trace_export = trace_sub.add_parser(
        "export", help="re-export kept traces as chrome://tracing JSON")
    trace_export.add_argument("source", help="kept-trace .jsonl file")
    trace_export.add_argument("--out", required=True, metavar="PATH",
                              help="chrome trace-event JSON to write")

    diff = sub.add_parser(
        "diff",
        help="regression-diff two checkpointed runs' journals")
    diff.add_argument("run_a", metavar="RUN_A",
                      help="baseline: run id, run directory, or "
                           "journal.jsonl path")
    diff.add_argument("run_b", metavar="RUN_B",
                      help="candidate: run id, run directory, or "
                           "journal.jsonl path")
    diff.add_argument("--runs-dir",
                      help="journal root for bare run ids")
    diff.add_argument("--miss-ratio-tolerance", type=float, default=0.01,
                      metavar="ABS",
                      help="absolute per-cell miss-ratio tolerance "
                           "(default 0.01)")
    diff.add_argument("--metric-tolerance", type=float, default=0.05,
                      metavar="REL",
                      help="relative snapshot-metric tolerance "
                           "(default 0.05)")
    diff.add_argument("--timeseries-tolerance", type=float, default=0.05,
                      metavar="REL",
                      help="relative per-point time-series tolerance "
                           "(default 0.05)")
    diff.add_argument("--ignore", metavar="GLOB", action="append",
                      help="metric-name globs to skip (default: "
                           "'*_seconds' wall-time metrics; repeatable, "
                           "replaces the default)")
    diff.add_argument("--show-all", action="store_true",
                      help="also print within-tolerance drift rows")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "list": _cmd_list,
        "simulate": _cmd_simulate,
        "hierarchy": _cmd_hierarchy,
        "corpus": _cmd_corpus,
        "experiment": _cmd_experiment,
        "loadgen": _cmd_loadgen,
        "metrics": _cmd_metrics,
        "timeseries": _cmd_timeseries,
        "trace": _cmd_trace,
        "diff": _cmd_diff,
    }[args.command]
    try:
        code = handler(args)
        # Flush inside the try, so a reader that closed the pipe is
        # handled below rather than at interpreter exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (``repro metrics ... | head``).  Python's
        # documented recipe: point stdout at devnull so the flush at
        # exit cannot fail again, and exit 1 without a message.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_RUNTIME
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPT
    except Exception as exc:  # runtime failure: report, no traceback spam
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
