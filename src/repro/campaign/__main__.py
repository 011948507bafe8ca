"""Campaign CLI.

    python -m repro.campaign list
    python -m repro.campaign show policy-shootout [--spec-json grid.json]
    python -m repro.campaign run policy-shootout --out runs/shootout \
        [--workers 4] [--resume] [--report-json report.json]
    python -m repro.campaign run --spec grid.json --out runs/custom
    python -m repro.campaign resume runs/shootout [--workers 4]
    python -m repro.campaign report runs/shootout [--json report.json]

``run`` executes a registered campaign (or a ``--spec`` JSON grid),
checkpointing one artifact per completed cell under ``--out``; a killed
run continues with ``--resume`` (or the ``resume`` subcommand, which
reads the grid back from the store) and produces a report byte-identical
to an uninterrupted run.  ``report`` re-aggregates from checkpoints
without executing anything.

``run`` also takes ``--trace-out`` (span JSONL, first line the run's
provenance manifest) and ``--metrics-out`` (metrics summary JSON); every
run stamps ``manifest.json`` into the store, the same manifest the trace
and the metrics file carry.  Observability never touches the
simulation — reports stay byte-identical with it on or off.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.campaign.builtins import CAMPAIGNS
from repro.campaign.runner import CampaignRunner, report_from_store
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore
from repro.errors import ConfigError, ReproError
from repro.faults import FaultPlan, chaos
from repro.fleet.__main__ import add_fault_flags, build_retry_policy
from repro.obs.recorder import observed_run


def _build_spec(args) -> CampaignSpec:
    if args.spec:
        if getattr(args, "campaign", None):
            raise ConfigError(
                f"got both a campaign name ({args.campaign!r}) and --spec "
                f"({args.spec!r}); pick one"
            )
        return CampaignSpec.from_json(args.spec)
    if not args.campaign:
        raise ConfigError("need a campaign name or --spec FILE")
    return CAMPAIGNS.build(args.campaign)


def _progress(cell, status) -> None:
    if status == "corrupt":
        print(f"  ! {cell.key}  (checkpoint corrupt: quarantined, re-running)")
        return
    marker = "·" if status == "skip" else ">"
    print(f"  {marker} {cell.key}" + ("  (checkpointed, skipping)" if status == "skip" else ""))


def _run(
    spec: CampaignSpec, out: str, workers: int, resume: bool, report_json,
    trace_out=None, metrics_out=None,
    chaos_plan=None, retry=None, shard_devices=None,
) -> int:
    store = CampaignStore(out)
    runner = CampaignRunner(
        spec, store=store, workers=workers, resume=resume,
        retry=retry, shard_devices=shard_devices,
    )
    # One manifest per run: the store, the trace and the metrics file.
    with chaos(chaos_plan) as injector, observed_run(
        lambda: runner.manifest, trace_out, metrics_out
    ):
        result = runner.run(progress=_progress)
    if chaos_plan is not None:
        fired = sum(injector.fired_summary().values())
        print(f"chaos: {len(chaos_plan)} fault(s) planned, {fired} injected")
    quarantined = (
        f", {runner.quarantined} corrupt checkpoint(s) quarantined + re-run"
        if runner.quarantined
        else ""
    )
    legacy = (
        f", {runner.legacy_unverified} legacy cell(s) loaded unverified "
        "(no checksum)"
        if runner.legacy_unverified
        else ""
    )
    print(
        f"campaign {spec.name!r}: {runner.executed} cell(s) executed, "
        f"{runner.skipped} loaded from checkpoints{quarantined}{legacy}"
    )
    print(result.render_text())
    print(f"wrote report to {store.report_path}")
    if report_json:
        result.to_json(report_json)
        print(f"wrote report copy to {report_json}")
    if trace_out:
        print(f"wrote trace to {trace_out}")
    if metrics_out:
        print(f"wrote metrics to {metrics_out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Run resumable controller×scenario×seed sweep campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered campaigns")

    show = sub.add_parser("show", help="print (or export) a campaign's grid spec")
    show.add_argument("campaign")
    show.add_argument("--spec-json", default=None, help="write the CampaignSpec to this path")

    run = sub.add_parser("run", help="execute a campaign with checkpointing")
    run.add_argument("campaign", nargs="?", default=None, help="registered campaign name")
    run.add_argument("--spec", default=None, help="run a CampaignSpec JSON file instead")
    run.add_argument("--out", required=True, help="checkpoint/report directory")
    run.add_argument("--workers", type=int, default=1, help="process count (<=1: serial)")
    run.add_argument("--resume", action="store_true",
                     help="skip cells already checkpointed under --out")
    run.add_argument("--shard-cells", type=int, default=None, metavar="N",
                     help="route cells larger than N devices through a "
                          "durable shard ledger (N-device shards under "
                          "<out>/shard-ledgers/; crash-safe at shard "
                          "granularity, reports byte-identical)")
    run.add_argument("--report-json", default=None, help="also write the report here")
    run.add_argument("--trace-out", default=None, metavar="PATH",
                     help="write tracing spans as JSON lines (first line: "
                          "the run manifest)")
    run.add_argument("--metrics-out", default=None, metavar="PATH",
                     help="write the collected metrics summary as JSON")
    add_fault_flags(run)

    resume = sub.add_parser("resume", help="continue an interrupted run from its store")
    resume.add_argument("out", help="checkpoint directory of the interrupted run")
    resume.add_argument("--workers", type=int, default=1, help="process count (<=1: serial)")
    resume.add_argument("--report-json", default=None, help="also write the report here")
    add_fault_flags(resume)

    report = sub.add_parser("report", help="re-aggregate a finished run (no execution)")
    report.add_argument("out", help="checkpoint directory")
    report.add_argument("--json", default=None, help="also write the report here")

    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            for name in CAMPAIGNS.names():
                print(f"{name:<24} {CAMPAIGNS.describe(name)}")
            return 0
        if args.command == "show":
            spec = CAMPAIGNS.build(args.campaign)
            if args.spec_json:
                spec.to_json(args.spec_json)
                print(f"wrote {spec.num_cells}-cell campaign spec to {args.spec_json}")
            else:
                print(spec.canonical_json())
            return 0
        if args.command == "run":
            spec = _build_spec(args)
            plan = FaultPlan.from_json(args.chaos) if args.chaos else None
            return _run(spec, args.out, args.workers, args.resume, args.report_json,
                        trace_out=args.trace_out,
                        metrics_out=args.metrics_out,
                        chaos_plan=plan, retry=build_retry_policy(args),
                        shard_devices=args.shard_cells)
        if args.command == "resume":
            spec = CampaignStore(args.out).load_spec()
            plan = FaultPlan.from_json(args.chaos) if args.chaos else None
            return _run(spec, args.out, args.workers, True, args.report_json,
                        chaos_plan=plan, retry=build_retry_policy(args))
        # report
        store = CampaignStore(args.out)
        result = report_from_store(store)
        print(result.render_text())
        if store.legacy_unverified:
            print(
                f"note: {store.legacy_unverified} cell(s) loaded unverified "
                "(legacy artifacts with no checksum)"
            )
        if args.json:
            result.to_json(args.json)
            print(f"wrote report copy to {args.json}")
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
