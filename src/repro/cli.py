"""Command-line interface: run workloads under any methodology.

Mirrors the paper artifact's ``testallbench.py`` / ``testdlapps.py``
scripts:

    python -m repro run relu --size 8192 --methods pka photon
    python -m repro run spmv --size 4096 --gpu mi100
    python -m repro app vgg16 --methods photon
    python -m repro app resnet50
    python -m repro sweep relu fir --sizes 2048 4096 --jobs 4
    python -m repro sweep relu --jobs 4 --shard 0/2 --json results.json
    python -m repro sweep relu fir --jobs 4 --run-dir runs/nightly
    python -m repro sweep --resume runs/nightly --jobs 4
    python -m repro sweep relu fir --fleet-dir /mnt/fleet --fleet-init
    python -m repro sweep --fleet-dir /mnt/fleet --worker
    python -m repro sweep --fleet-dir /mnt/fleet --coordinate
    python -m repro run relu --trace relu.jsonl --metrics
    python -m repro trace export relu.jsonl relu.json
    python -m repro serve --jobs 4 --trace-store traces/
    python -m repro list

Observability (see ``docs/observability.md``): ``--trace FILE``
records every bus event to FILE (``.json`` → Chrome trace for
Perfetto, anything else → JSONL); ``--metrics`` prints the event and
counter summary to stderr, keeping stdout machine-readable; ``repro
trace export`` converts a recorded JSONL trace to Chrome-trace JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .errors import ConfigError, ReproError
from .obs import (
    CORE_KINDS,
    CountingSink,
    current_bus,
    open_trace,
    to_chrome_trace,
)
from .harness.defaults import (
    EVAL_PHOTON,
    GPU_PRESET_NAMES,
    resolve_gpu,
)
from .harness.runner import (
    all_methods,
    check_methods,
    run_methods_app,
    run_methods_kernel,
    workload_factory,
)
from .harness.tables import comparison_table
from .parallel import plan_sweep, resume_sweep, run_sweep
from .reliability.watchdog import WatchdogConfig
from .timing.tracecache import TraceCache
from .tracestore import TraceStore
from .workloads import REGISTRY, build_pagerank, build_resnet, build_vgg

APP_BUILDERS = {
    "vgg16": lambda: build_vgg(16),
    "vgg19": lambda: build_vgg(19),
    "resnet18": lambda: build_resnet(18),
    "resnet34": lambda: build_resnet(34),
    "resnet50": lambda: build_resnet(50),
    "resnet101": lambda: build_resnet(101),
    "resnet152": lambda: build_resnet(152),
    "pr-1024": lambda: build_pagerank(1024, iterations=8),
    "pr-4096": lambda: build_pagerank(4096, iterations=8),
}


def _parse_shard(text: str) -> Tuple[int, int]:
    """Parse ``I/N`` shard notation (e.g. ``0/4``)."""
    try:
        index_text, count_text = text.split("/")
        return int(index_text), int(count_text)
    except ValueError:
        raise ConfigError(
            f"--shard must be I/N (e.g. 0/4), got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Photon sampled GPU simulation (MICRO 2023 repro)")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a single-kernel workload")
    run.add_argument("workload", choices=sorted(REGISTRY))
    run.add_argument("--size", type=int, default=4096,
                     help="problem size in warps (default 4096)")
    _add_cell_flags(run, ["photon"])
    _add_watchdog_flags(run)
    _add_obs_flags(run)

    app = sub.add_parser("app", help="run a multi-kernel application")
    app.add_argument("name", choices=sorted(APP_BUILDERS))
    _add_cell_flags(app, ["photon"])
    _add_watchdog_flags(app)
    _add_obs_flags(app)

    sweep = sub.add_parser(
        "sweep",
        help="parallel sweep over workloads x sizes x methods")
    sweep.add_argument("workloads", nargs="*",
                       help="single-kernel workload names (omit when "
                            "resuming: the journal stores the plan)")
    sweep.add_argument("--sizes", nargs="+", type=int, default=None,
                       help="problem sizes in warps (default: the "
                            "per-workload quick sizes)")
    _add_cell_flags(sweep, ["pka", "photon"])
    sweep.add_argument("--seed", type=int, default=None,
                       help="workload data seed (default: per-workload)")
    sweep.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes (1 = run inline)")
    sweep.add_argument("--shard", default="0/1", metavar="I/N",
                       help="run only cell shard I of N (default 0/1)")
    sweep.add_argument("--json", default=None, metavar="PATH",
                       dest="json_out",
                       help="write rows + telemetry as JSON "
                            "('-' for stdout)")
    sweep.add_argument("--sweep-deadline", type=float, default=None,
                       metavar="S",
                       help="split S wall-clock seconds into per-task "
                            "watchdog deadlines")
    sweep.add_argument("--run-dir", default=None, metavar="DIR",
                       dest="run_dir",
                       help="journal the sweep to DIR/journal.jsonl so "
                            "a killed run can be resumed (--resume DIR)")
    sweep.add_argument("--resume", default=None, metavar="DIR",
                       dest="resume_dir",
                       help="resume the journaled sweep in DIR: replay "
                            "completed tasks, re-run missing/failed "
                            "ones; ignores workloads/planning flags")
    sweep.add_argument("--fleet-dir", default=None, metavar="DIR",
                       dest="fleet_dir",
                       help="shared fleet directory for multi-host "
                            "sweeps; combine with --fleet-init, "
                            "--worker or --coordinate "
                            "(docs/parallel.md, Multi-host fleets)")
    sweep.add_argument("--fleet-init", action="store_true",
                       dest="fleet_init",
                       help="plan the sweep and write the fleet "
                            "manifest to --fleet-dir, without running "
                            "anything")
    sweep.add_argument("--worker", action="store_true",
                       dest="fleet_worker",
                       help="run as one fleet worker: claim leased "
                            "tasks from --fleet-dir until the plan is "
                            "complete (the plan comes from the "
                            "manifest; no workload arguments)")
    sweep.add_argument("--coordinate", action="store_true",
                       dest="fleet_coordinate",
                       help="coordinate the fleet in --fleet-dir: wait "
                            "for workers, run anything left over, and "
                            "merge the bitwise-deterministic result "
                            "(re-run after a crash to resume the merge)")
    sweep.add_argument("--host-id", default=None, metavar="H",
                       dest="fleet_host",
                       help="fleet host id (default: hostname-pid)")
    sweep.add_argument("--lease-seconds", type=float, default=30.0,
                       metavar="S", dest="lease_seconds",
                       help="heartbeat lease duration; an unrefreshed "
                            "lease older than this is stolen "
                            "(default 30)")
    sweep.add_argument("--fleet-timeout", type=float, default=None,
                       metavar="S", dest="fleet_timeout",
                       help="coordinator: give up waiting for live "
                            "workers after S seconds (default: wait)")
    sweep.add_argument("--fleet-grace", type=float, default=2.0,
                       metavar="S", dest="fleet_grace",
                       help="coordinator: seconds of fleet silence (no "
                            "live leases, no progress) before running "
                            "remaining tasks itself (default 2)")
    _add_watchdog_flags(sweep)
    _add_obs_flags(sweep)

    trace = sub.add_parser("trace", help="work with recorded traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    export = trace_sub.add_parser(
        "export",
        help="convert a JSONL structured trace to Chrome-trace JSON")
    export.add_argument("input", help="JSONL trace from --trace")
    export.add_argument("output",
                        help="Chrome-trace JSON path ('-' for stdout)")

    serve = sub.add_parser(
        "serve",
        help="serve simulation requests over HTTP (see docs/serve.md)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8630,
                       help="bind port; 0 picks an ephemeral port "
                            "(the bound port is printed on startup)")
    serve.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="execution worker processes (0 = inline "
                            "thread, for tests)")
    serve.add_argument("--queue-limit", type=int, default=32,
                       metavar="N", dest="queue_limit",
                       help="queued executions before 429 (default 32)")
    serve.add_argument("--max-inflight", type=int, default=None,
                       metavar="N", dest="max_inflight",
                       help="concurrent executions (default: --jobs)")
    serve.add_argument("--tenant-rate", type=float, default=0.0,
                       metavar="R", dest="tenant_rate",
                       help="per-tenant sustained requests/second "
                            "(0 = unlimited)")
    serve.add_argument("--tenant-burst", type=float, default=8.0,
                       metavar="B", dest="tenant_burst",
                       help="per-tenant burst allowance (default 8)")
    serve.add_argument("--tenant-max-inflight", type=int, default=0,
                       metavar="N", dest="tenant_max_inflight",
                       help="per-tenant concurrent requests "
                            "(0 = uncapped)")
    serve.add_argument("--result-cache", type=int, default=1024,
                       metavar="N", dest="result_cache",
                       help="cached deterministic results (default 1024)")
    serve.add_argument("--trace-store", default=None, metavar="DIR",
                       dest="trace_store",
                       help="shared persistent warp-trace store")
    serve.add_argument("--state-dir", default=None, metavar="DIR",
                       dest="state_dir",
                       help="journal requests shed during drain to "
                            "DIR/pending.jsonl")
    serve.add_argument("--drain-grace", type=float, default=30.0,
                       metavar="S", dest="drain_grace",
                       help="seconds to let in-flight work finish on "
                            "SIGTERM (default 30)")
    serve.add_argument("--metrics", action="store_true",
                       help="print the event/counter summary to stderr "
                            "after drain")

    sub.add_parser("list", help="list workloads, apps and methods")
    return parser


def _method_name(text: str) -> str:
    """``--methods`` element: a WorkloadError (exit 2, one line) for a
    typo, before any simulation work."""
    check_methods([text])
    return text


def _add_cell_flags(sub: argparse.ArgumentParser,
                    methods: List[str]) -> None:
    """``--gpu`` / ``--methods``: the same names on every subcommand."""
    sub.add_argument("--gpu", default="r9nano",
                     choices=list(GPU_PRESET_NAMES))
    sub.add_argument("--methods", nargs="+", default=methods,
                     type=_method_name, metavar="METHOD",
                     help="sampled methods to compare against full: "
                          + ", ".join(all_methods()))


def _add_watchdog_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--deadline-seconds", type=float, default=None, metavar="S",
        help="abort any single simulation after S wall-clock seconds")
    sub.add_argument(
        "--max-events", type=int, default=None, metavar="N",
        help="abort any single detailed simulation after N engine events")


def _add_obs_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--trace", default=None, metavar="FILE", dest="trace_out",
        help="record every observability event to FILE "
             "(.json → Chrome trace, anything else → JSONL)")
    sub.add_argument(
        "--metrics", action="store_true",
        help="print the event/counter summary and per-phase wall "
             "breakdown to stderr after the run")
    sub.add_argument(
        "--trace-store", default=None, metavar="DIR", dest="trace_store",
        help="persistent warp-trace store: replay FULL-mode traces "
             "from DIR instead of re-emulating, and persist new ones "
             "for the next run (see docs/tracestore.md)")
    sub.add_argument(
        "--trace-store-max-mb", type=float, default=None, metavar="MB",
        dest="trace_store_max_mb",
        help="evict least-recently-written trace-store bundles after "
             "the run until the store fits in MB megabytes")


def _watchdog_from(args: argparse.Namespace) -> Optional[WatchdogConfig]:
    if args.deadline_seconds is None and args.max_events is None:
        return None
    return WatchdogConfig(deadline_seconds=args.deadline_seconds,
                          max_events=args.max_events)


class _ObsSession:
    """CLI-scoped observability: summary accounting plus optional trace.

    A :class:`CountingSink` on the cheap ``CORE_KINDS`` is always
    attached so ``--json`` / ``--metrics`` can report what happened;
    the full-fidelity trace sink (every kind, including per-instruction
    events) only exists when the user passed ``--trace``.
    """

    def __init__(self, trace_path: Optional[str]):
        self.bus = current_bus()
        self.trace_path = trace_path
        self.counting = CountingSink()
        self.bus.add_sink(self.counting, kinds=list(CORE_KINDS))
        self.trace_sink = (open_trace(self.bus, trace_path)
                           if trace_path else None)

    def finish(self) -> None:
        if self.trace_sink is not None:
            self.bus.remove_sink(self.trace_sink)
            self.trace_sink.close()
        self.bus.remove_sink(self.counting)

    def summary(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "events": dict(sorted(self.counting.counts.items())),
            "metrics": self.bus.metrics.snapshot(),
            "phases": self.bus.metrics.phases(),
        }
        if self.trace_path is not None:
            data["trace"] = self.trace_path
        return data

    def print_summary(self) -> None:
        summary = self.summary()
        print("-- observability --", file=sys.stderr)
        for kind, count in summary["events"].items():
            print(f"event {kind}: {count}", file=sys.stderr)
        counters = summary["metrics"]["counters"]
        for name in sorted(counters):
            print(f"counter {name}: {counters[name]}", file=sys.stderr)
        phases = summary["phases"]
        total = sum(phases.values())
        if total > 0:
            print("-- phase wall breakdown --", file=sys.stderr)
            for name, seconds in sorted(phases.items()):
                share = 100.0 * seconds / total
                print(f"phase {name}: {seconds:.3f}s ({share:.0f}%)",
                      file=sys.stderr)
        if self.trace_path is not None:
            print(f"trace written to {self.trace_path}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point.  Returns 0 on success, 2 on any :class:`ReproError`
    (bad config, watchdog trip, unrecoverable simulation failure)."""
    try:
        args = build_parser().parse_args(argv)
        if args.command == "list":
            print("single-kernel workloads:", ", ".join(sorted(REGISTRY)))
            print("applications:           ",
                  ", ".join(sorted(APP_BUILDERS)))
            print("methods:                ", ", ".join(all_methods()))
            return 0
        if args.command == "trace":
            return _trace_export(args)
        if args.command == "serve":
            return _serve(args)
        return _run(args)
    except ReproError as exc:
        print(f"repro: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _serve(args: argparse.Namespace) -> int:
    """Run PhotonServe until SIGTERM/SIGINT, then drain gracefully."""
    import asyncio

    from .serve import PhotonServer, ServeConfig

    config = ServeConfig(
        host=args.host, port=args.port, jobs=args.jobs,
        queue_limit=args.queue_limit, max_inflight=args.max_inflight,
        tenant_rate=args.tenant_rate, tenant_burst=args.tenant_burst,
        tenant_max_inflight=args.tenant_max_inflight,
        result_cache=args.result_cache, trace_store=args.trace_store,
        state_dir=args.state_dir, drain_grace=args.drain_grace)
    obs = _ObsSession(None)  # same bus: PhotonServer uses current_bus()
    server = PhotonServer(config)

    def announce(host: str, port: int) -> None:
        # the exact line tooling parses to find an ephemeral port
        print(f"PhotonServe listening on http://{host}:{port}",
              flush=True)

    try:
        stats = asyncio.run(server.run(announce=announce))
    finally:
        obs.finish()
    print(f"drained: {json.dumps(stats['counts'], sort_keys=True)}",
          file=sys.stderr)
    if args.metrics:
        obs.print_summary()
    return 0


def _trace_export(args: argparse.Namespace) -> int:
    """Convert a JSONL structured trace to Chrome-trace JSON."""
    events = []
    try:
        with open(args.input) as handle:
            for n, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    events.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise ConfigError(
                        f"{args.input}:{n}: not a JSONL trace line: "
                        f"{exc}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read trace {args.input!r}: "
                          f"{exc}") from None
    trace = to_chrome_trace(events)
    payload = json.dumps(trace, allow_nan=False)
    if args.output == "-":
        print(payload)
    else:
        with open(args.output, "w") as handle:
            handle.write(payload + "\n")
        print(f"wrote {len(events)} events "
              f"({len(trace['traceEvents'])} trace records) to "
              f"{args.output}", file=sys.stderr)
    return 0


def _run(args: argparse.Namespace) -> int:
    watchdog = _watchdog_from(args)
    obs = _ObsSession(args.trace_out)
    cache = None
    store = None
    if args.trace_store is not None:
        store = TraceStore(args.trace_store,
                           max_mb=args.trace_store_max_mb)
        if args.command != "sweep":
            cache = TraceCache(backing_store=store)
    try:
        if args.command == "sweep":
            return _run_sweep(args, watchdog, obs)
        gpu = resolve_gpu(args.gpu)
        if args.command == "run":
            rows = run_methods_kernel(
                workload_factory(args.workload, args.size),
                args.workload, args.size, gpu=gpu,
                methods=tuple(args.methods),
                photon_config=EVAL_PHOTON,
                watchdog=watchdog, trace_cache=cache)
            print(comparison_table(rows))
            return 0

        out = run_methods_app(APP_BUILDERS[args.name], args.name,
                              gpu=gpu, methods=tuple(args.methods),
                              photon_config=EVAL_PHOTON,
                              watchdog=watchdog, trace_cache=cache)
        print(comparison_table(out["rows"]))
        for method in args.methods:
            if method in out:
                print(f"{method} modes: {out[method].mode_counts()}")
        return 0
    finally:
        if cache is not None:
            cache.flush()
        if store is not None:
            store.evict()
        obs.finish()
        if args.metrics:
            obs.print_summary()


def _run_sweep(args: argparse.Namespace,
               watchdog: Optional[WatchdogConfig],
               obs: _ObsSession) -> int:
    roles = [name for name, flag in (
        ("--fleet-init", args.fleet_init),
        ("--worker", args.fleet_worker),
        ("--coordinate", args.fleet_coordinate)) if flag]
    if roles and args.fleet_dir is None:
        raise ConfigError(f"{roles[0]} requires --fleet-dir DIR")
    if args.fleet_dir is not None and not roles:
        raise ConfigError(
            "--fleet-dir needs a role: --fleet-init, --worker or "
            "--coordinate")
    if len(roles) > 1:
        raise ConfigError(
            f"pick one fleet role, not {' + '.join(roles)}")
    if roles:
        return _run_fleet(args, watchdog, obs)
    if args.resume_dir is not None:
        if args.workloads:
            raise ConfigError(
                "--resume takes the plan from the journal; drop the "
                "workload arguments (and other planning flags)")
        result = resume_sweep(args.resume_dir, jobs=args.jobs,
                              sweep_deadline=args.sweep_deadline)
    else:
        result = run_sweep(_plan_from_args(args, watchdog), jobs=args.jobs,
                           sweep_deadline=args.sweep_deadline,
                           run_dir=args.run_dir)
    return _emit_sweep_result(args, result, obs)


def _emit_sweep_result(args: argparse.Namespace, result,
                       obs: _ObsSession) -> int:
    if args.json_out != "-":
        print(comparison_table(result.rows))
        print()
        print(result.report.summary())
    if args.json_out is not None:
        record = result.to_dict()
        record["obs"] = obs.summary()
        payload = json.dumps(record, indent=2, allow_nan=False)
        if args.json_out == "-":
            print(payload)
        else:
            with open(args.json_out, "w") as handle:
                handle.write(payload + "\n")
    return 0


def _plan_from_args(args: argparse.Namespace,
                    watchdog: Optional[WatchdogConfig]):
    """The plan the sweep's planning flags describe (run and fleet-init)."""
    if not args.workloads:
        raise ConfigError(
            "sweep needs workload names (only --resume DIR, --worker and "
            "--coordinate take the plan from disk)")
    return plan_sweep(
        args.workloads, sizes=args.sizes,
        methods=tuple(args.methods), gpu=args.gpu, seed=args.seed,
        photon_config=EVAL_PHOTON, watchdog=watchdog,
        shard=_parse_shard(args.shard),
        trace_store=args.trace_store)


def _run_fleet(args: argparse.Namespace,
               watchdog: Optional[WatchdogConfig],
               obs: _ObsSession) -> int:
    from .parallel import fleet_coordinate as _coordinate
    from .parallel import fleet_init, fleet_worker
    from .parallel.fleet import MANIFEST_NAME

    manifest = Path(args.fleet_dir) / MANIFEST_NAME
    if args.fleet_init:
        fleet_init(args.fleet_dir, _plan_from_args(args, watchdog))
        print(f"fleet initialized: {manifest}")
        return 0
    if args.fleet_worker:
        if args.workloads:
            raise ConfigError(
                "--worker takes the plan from the fleet manifest; "
                "drop the workload arguments")
        report = fleet_worker(args.fleet_dir, host=args.fleet_host,
                              lease_seconds=args.lease_seconds,
                              max_wait=args.fleet_timeout)
        print(f"fleet worker {report.host}: ran {report.ran} "
              f"(stolen {report.stolen}, lost races "
              f"{report.lost_races}, failed {report.failed})")
        return 0
    # --coordinate: plan-and-init first when the manifest is absent and
    # workloads were given, so one command can bootstrap a whole fleet
    if not manifest.exists() and args.workloads:
        fleet_init(args.fleet_dir, _plan_from_args(args, watchdog))
    elif manifest.exists() and args.workloads:
        raise ConfigError(
            "--coordinate takes the plan from the existing fleet "
            "manifest; drop the workload arguments")
    result = _coordinate(args.fleet_dir, timeout=args.fleet_timeout,
                         grace=args.fleet_grace,
                         coordinator_host=(args.fleet_host
                                           or "coordinator"))
    return _emit_sweep_result(args, result, obs)


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
