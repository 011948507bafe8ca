"""Fleet CLI.

    python -m repro.fleet list
    python -m repro.fleet show solar-farm-100 [--spec-json fleet.json]
    python -m repro.fleet run solar-farm-100 --workers 4 --json out.json
    python -m repro.fleet run city-block-1k --explain
    python -m repro.fleet run solar-farm-100 --trace-out run.jsonl \
        --metrics-out metrics.json [--profile]
    python -m repro.fleet run brownout-grid-256 --shards 8 \
        --ledger led/ --shard-workers 4 --json out.json
    python -m repro.fleet run brownout-grid-256 --ledger led/ --resume

``run`` executes a named scenario (or a ``--spec`` JSON file exported by
``show``), prints the fleet report, and optionally dumps the full JSON
report.  The JSON payload is deterministic in (scenario, seed): worker
count and chunking never change it, only the ``--timing`` section.

Sharded execution (``--shards``/``--shard-width`` + ``--ledger``) splits
the fleet along the device axis and checkpoints one sealed artifact per
completed shard into the ledger directory.  Kill the process — or any
``--shard-workers`` child — at any point and a later invocation with the
same ``--ledger`` (plus ``--resume`` once complete) re-runs only the
unfinished shards; the merged report is byte-identical to an unsharded
run.  ``--max-rss-mb`` bounds memory by halving the execution sub-batch
width under pressure (results unchanged).  ``--shard-workers``,
``--max-rss-mb`` and ``--lease-ttl`` configure sharded runs only, and
``--workers`` and ``--chunksize`` unsharded runs only: a run refuses
(exit 2) a flag it would otherwise ignore.

Observability (all off by default, and guaranteed not to change results):
``--trace-out`` streams span records as JSON lines (first line: the run's
provenance manifest), ``--metrics-out`` writes the collected metrics
summary (+ phase profile with ``--profile``), and ``--explain`` prints
one line per device (execution model, trace family, controller kind,
episode count — an intermittent device simulates its first episode and
replays the rest's draws) and the dispatch the run would use — serial,
W workers x C engine chunks, or N shards x K shard workers through the
ledger (the plan ``--resume`` reads back from it included) — without
simulating or writing anything.
It rejects the flag combinations the run would reject.  Combining
``--explain`` with ``--chaos PLAN.json`` additionally validates the plan
(unknown sites fail loudly) and prints the armed sites, still without
simulating.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.errors import ConfigError, ReproError
from repro.faults import FaultPlan, RetryPolicy, chaos
from repro.fleet.runner import FleetRunner
from repro.fleet.scenarios import SCENARIOS
from repro.fleet.spec import FleetSpec
from repro.obs.manifest import build_manifest
from repro.obs.recorder import observed_run


def build_retry_policy(args) -> RetryPolicy | None:
    """A RetryPolicy from CLI flags, or None (runner defaults) if unset."""
    overrides = {}
    if getattr(args, "max_retries", None) is not None:
        overrides["max_retries"] = args.max_retries
    if getattr(args, "worker_timeout", None) is not None:
        overrides["worker_timeout"] = args.worker_timeout
    return RetryPolicy(**overrides) if overrides else None


def add_fault_flags(parser) -> None:
    """The chaos/retry flags shared by the fleet and campaign CLIs."""
    parser.add_argument(
        "--chaos", default=None, metavar="PLAN.json",
        help="arm deterministic fault injection from a FaultPlan JSON file "
             "(results must survive unchanged; exercised in CI)")
    parser.add_argument(
        "--max-retries", type=int, default=None,
        help="retries per dispatch chunk before escalation (default 2)")
    parser.add_argument(
        "--worker-timeout", type=float, default=None, metavar="SECONDS",
        help="straggler watchdog: re-dispatch a pooled chunk attempt that "
             "exceeds this (default: none, or 30s under --chaos)")


def _build_spec(args, sharded: bool = False):
    """The fleet a command names: a ``--spec`` file, or a registered
    scenario rescaled by ``--devices/--seed/--duration``.  ``sharded``
    returns it as a shard source, resolving a named scenario lazily: a
    range-capable factory (megacity) materializes one shard's
    DeviceSpecs at a time."""
    overrides = {}
    if args.devices is not None:
        overrides["num_devices"] = args.devices
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.duration is not None:
        overrides["duration"] = args.duration
    if sharded:
        from repro.fleet.shards import FleetShardSource, ScenarioShardSource
    if args.spec:
        if getattr(args, "scenario", None):
            raise ConfigError(
                f"got both a scenario name ({args.scenario!r}) and --spec "
                f"({args.spec!r}); pick one"
            )
        if overrides:
            raise ConfigError(
                "--devices/--seed/--duration rescale named scenarios only; "
                "a --spec file pins its fleet exactly (edit the file instead)"
            )
        spec = FleetSpec.from_json(args.spec)
        return FleetShardSource(spec) if sharded else spec
    if sharded:
        return ScenarioShardSource(args.scenario, overrides)
    return SCENARIOS.build(args.scenario, **overrides)


def _check_flags(args, sharded: bool) -> None:
    """Reject the flags this kind of run would ignore (``run`` and
    ``--explain`` share this check)."""
    if sharded:
        if args.ledger is None:
            raise ConfigError(
                "sharded execution checkpoints into a durable ledger; pass "
                "--ledger DIR alongside --shards/--shard-width/--resume"
            )
        if args.workers > 1:
            raise ConfigError(
                "--workers parallelizes an unsharded run; sharded runs "
                "scale out with --shard-workers instead"
            )
        if args.chunksize is not None:
            raise ConfigError(
                "--chunksize sizes an unsharded run's pool chunks; sharded "
                "runs are cut with --shards/--shard-width instead"
            )
        return
    for flag, given in (
        ("--shard-workers", args.shard_workers != 1),
        ("--max-rss-mb", args.max_rss_mb is not None),
        ("--lease-ttl", args.lease_ttl is not None),
    ):
        if given:
            raise ConfigError(
                f"{flag} applies to sharded runs only; add --shards N (or "
                f"--shard-width W) and --ledger DIR, or drop {flag}"
            )


def _episode_plan(device) -> str:
    """How many episodes a device plays, and how the engine plays them:
    an intermittent device's later episodes repeat its first one's
    dynamics, so only the first is simulated."""
    n = device.episodes
    plan = f"{n} episode{'s' if n > 1 else ''}"
    if device.execution == "intermittent" and n > 1:
        plan += f" (1 simulated, {n - 1} replayed)"
    return plan


def _print_explain(args, sharded: bool) -> None:
    """One line per device, then the dispatch ``run`` would use with the
    same flags (nothing simulated or written)."""
    spec = _build_spec(args)
    if sharded:
        from repro.fleet.shards import ShardLedger

        plan = ShardLedger(args.ledger).plan_for(spec, args.shards, args.shard_width)
        dispatch = (
            f"sharded, {plan.num_shards} shard(s) x {args.shard_workers} "
            f"shard worker(s) via {args.ledger}"
        )
    else:
        runner = FleetRunner(spec, workers=args.workers, chunksize=args.chunksize)
        workers, chunks = runner.dispatch_plan()
        dispatch = (
            "serial, in-process" if workers == chunks == 1
            else f"{workers} worker(s) x {chunks} chunk(s)"
        )
    print(f"fleet {spec.name!r}: {spec.num_devices} devices on the batched engine")
    for device in spec.devices:
        print(
            f"  {device.name:<18} {device.execution:<13} "
            f"{device.trace['family']:<9} {device.controller['kind']:<10} "
            f"{_episode_plan(device)}"
        )
    print(f"  dispatch: {dispatch}")


def _print_report(result, args, sharded: bool) -> None:
    agg = result.aggregate()
    where = f" — sharded x{result.num_shards} via {args.ledger}" if sharded else ""
    print(
        f"fleet {agg['fleet']!r}: {agg['devices']} devices, "
        f"seed {agg['seed']}{where}"
    )
    print(
        f"  events {agg['events']}  processed {agg['processed']}  "
        f"missed {agg['missed']} {agg['miss_counts']}  correct {agg['correct']}"
    )
    print(
        f"  fleet IEpmJ {agg['fleet_iepmj']:.4f}  "
        f"avg accuracy {agg['average_accuracy']:.3f}  "
        f"device IEpmJ p10/p50/p90 "
        + "/".join(f"{v:.3f}" for v in agg["device_iepmj_percentiles"].values())
    )
    if sharded:
        print(
            f"  shards: {result.shards_executed} executed, "
            f"{result.shards_resumed} resumed from ledger, "
            f"{result.shards_stolen} lease(s) stolen, "
            f"{result.degraded} degradation(s); wall {result.wall_s:.2f}s "
            f"with {result.workers} worker(s)"
        )
        return
    print(
        f"  wall {result.wall_s:.2f}s with {result.workers} worker(s) "
        f"({result.devices_per_second:.1f} devices/s)"
    )
    if not args.quiet:
        print(f"  {'device':<18} {'profile':<18} {'IEpmJ':>7} {'acc':>6} "
              f"{'proc':>5} {'miss':>5} {'p90 lat(s)':>11}")
        for d in result.devices:
            print(
                f"  {d.name:<18} {d.profile:<18} {d.iepmj:7.3f} "
                f"{d.average_accuracy:6.3f} {d.num_processed:5d} {d.num_missed:5d} "
                f"{d.latency_percentiles.get('p90', 0.0):11.1f}"
            )
    for failure in result.failures:
        print(
            f"  ! quarantined {failure.name} (device {failure.index}) "
            f"after {failure.attempts} attempt(s) at stage "
            f"{failure.stage}: {failure.error}",
            file=sys.stderr,
        )


def _run(args, plan, sharded: bool) -> int:
    """Execute one fleet (serial, pooled or sharded) and report it."""
    fleet = _build_spec(args, sharded)
    retry = build_retry_policy(args)
    if sharded:
        from repro.fleet.shards import DEFAULT_LEASE_TTL_S, run_sharded

        ttl = DEFAULT_LEASE_TTL_S if args.lease_ttl is None else args.lease_ttl
    else:
        runner = FleetRunner(
            fleet, workers=args.workers, chunksize=args.chunksize, retry=retry
        )

    def manifest() -> dict:
        # One manifest per run: the trace and the metrics file embed it.
        return build_manifest(
            fleet=fleet.name,
            devices=fleet.num_devices,
            seed=fleet.seed,
            scenario_digest=fleet.source_digest() if sharded else fleet.digest(),
            workers=args.shard_workers if sharded else args.workers,
        )

    with chaos(plan) as injector, observed_run(
        manifest, args.trace_out, args.metrics_out, args.profile
    ):
        if sharded:
            result = run_sharded(
                fleet,
                args.ledger,
                shards=args.shards,
                shard_width=args.shard_width,
                workers=args.shard_workers,
                resume=args.resume,
                retry=retry,
                max_rss_mb=args.max_rss_mb,
                lease_ttl_s=ttl,
            )
        else:
            result = runner.run()
    if plan is not None:
        fired = sum(injector.fired_summary().values())
        print(f"chaos: {len(plan)} fault(s) planned, {fired} injected")
    _print_report(result, args, sharded)
    if args.json:
        result.to_json(args.json, include_timing=args.timing)
        print(f"wrote JSON report to {args.json}")
    if args.trace_out:
        print(f"wrote trace to {args.trace_out}")
    if args.metrics_out:
        print(f"wrote metrics to {args.metrics_out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Run multi-device energy-harvesting fleet simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered scenarios")

    show = sub.add_parser("show", help="print (or export) a scenario's FleetSpec")
    show.add_argument("scenario")
    show.add_argument("--devices", type=int, default=None, help="override device count")
    show.add_argument("--seed", type=int, default=None, help="override fleet seed")
    show.add_argument("--duration", type=float, default=None, help="override trace duration (s)")
    show.add_argument("--spec-json", default=None, help="write the FleetSpec to this path")

    run = sub.add_parser("run", help="execute a scenario and report")
    run.add_argument("scenario", nargs="?", default=None, help="registered scenario name")
    run.add_argument("--spec", default=None, help="run a FleetSpec JSON file instead")
    run.add_argument("--workers", type=int, default=1, help="process count (<=1: serial)")
    run.add_argument("--chunksize", type=int, default=None,
                     help="devices per pool chunk (unsharded runs only)")
    run.add_argument("--devices", type=int, default=None, help="override device count")
    run.add_argument("--seed", type=int, default=None, help="override fleet seed")
    run.add_argument("--duration", type=float, default=None, help="override trace duration (s)")
    run.add_argument("--shards", type=int, default=None, metavar="N",
                     help="shard the fleet into N device-shards through a "
                          "durable ledger (requires --ledger)")
    run.add_argument("--shard-width", type=int, default=None, metavar="W",
                     help="shard the fleet into W-device shards (alternative "
                          "to --shards)")
    run.add_argument("--ledger", default=None, metavar="DIR",
                     help="shard ledger directory: one sealed artifact per "
                          "completed shard; re-running over the same ledger "
                          "skips finished shards (crash-safe resume)")
    run.add_argument("--shard-workers", type=int, default=1, metavar="N",
                     help="drain the shard ledger with N work-stealing "
                          "processes (sharded runs only; default 1)")
    run.add_argument("--resume", action="store_true",
                     help="allow re-merging an already-complete ledger; the "
                          "shard plan is read back from the ledger when "
                          "--shards/--shard-width are omitted")
    run.add_argument("--max-rss-mb", type=float, default=None, metavar="MB",
                     help="memory budget: halve the shard execution sub-batch "
                          "width whenever peak RSS exceeds this (sharded runs "
                          "only; results unchanged; fleet.shard.degraded "
                          "telemetry)")
    run.add_argument("--lease-ttl", type=float, default=None, metavar="SECONDS",
                     help="shard lease time-to-live before another worker may "
                          "steal it (sharded runs only; default 120; must "
                          "exceed one shard's runtime)")
    run.add_argument("--json", default=None, help="dump the full JSON report to this path")
    run.add_argument("--timing", action="store_true",
                     help="include wall-clock timing in the JSON report")
    run.add_argument("--quiet", action="store_true", help="suppress the per-device table")
    run.add_argument("--explain", action="store_true",
                     help="print each device's execution model, trace family, "
                          "controller kind and episode count, plus the dispatch plan "
                          "(serial, workers x chunks, or shards x shard "
                          "workers via the ledger), instead of running; "
                          "writes nothing")
    run.add_argument("--trace-out", default=None, metavar="PATH",
                     help="write tracing spans as JSON lines (first line: "
                          "the run manifest)")
    run.add_argument("--metrics-out", default=None, metavar="PATH",
                     help="write the collected metrics summary as JSON")
    run.add_argument("--profile", action="store_true",
                     help="collect the engine phase profile (reported via "
                          "--metrics-out)")
    add_fault_flags(run)

    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            for name in SCENARIOS.names():
                print(f"{name:<24} {SCENARIOS.describe(name)}")
            return 0
        if args.command == "show":
            args.spec = None
            spec = _build_spec(args)
            if args.spec_json:
                spec.to_json(args.spec_json)
                print(f"wrote {spec.num_devices}-device spec to {args.spec_json}")
            else:
                json.dump(spec.to_dict(), sys.stdout, indent=2, sort_keys=True)
                print()
            return 0
        # run
        if not args.spec and not args.scenario:
            run.error("need a scenario name or --spec FILE")
        # Validate the chaos plan before anything else: --explain --chaos
        # is the dry-run path for vetting a plan file, and an unknown
        # site must fail loudly here, not 20 minutes into a campaign.
        plan = FaultPlan.from_json(args.chaos) if args.chaos else None
        sharded = (
            args.shards is not None
            or args.shard_width is not None
            or args.ledger is not None
            or args.resume
        )
        _check_flags(args, sharded)
        if args.explain:
            _print_explain(args, sharded)
            if plan is not None:
                sites = sorted(plan.sites())
                print(
                    f"chaos plan {args.chaos!r}: {len(plan)} fault(s) armed "
                    f"across site(s) {', '.join(sites) if sites else '(none)'}"
                )
            return 0
        return _run(args, plan, sharded)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Output piped into e.g. `head`; suppress the shutdown flush error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
