#!/usr/bin/env python
"""CI smoke test for TraceForge warm starts.

Runs the same tiny sweep twice against a throwaway trace store.  The
cold pass must persist traces; the warm pass must replay every warp
from disk (zero new warps persisted, visible store hits on the bus)
and render a byte-identical deterministic comparison table.  The
cold pass must also have stored what the interpreter shares — fewer
path blobs than warps — and store-served warps of one path must share
their column lists, as warps of one fresh fill do.  Any violation
exits non-zero, so CI fails loudly if the store silently stops
matching keys, replay drifts from emulation, or bundles go back to one
column set per warp.

Unlike scripts/bench_sweep.py this checks only *correctness* of the
warm path, not its speed, so it is safe on the slowest CI runner.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.harness.runner import workload_factory  # noqa: E402
from repro.harness.tables import comparison_table  # noqa: E402
from repro.obs import TRACESTORE_HIT, scoped_bus  # noqa: E402
from repro.parallel import plan_sweep, run_sweep  # noqa: E402
from repro.tracestore import TraceStore  # noqa: E402

SHARED_COLUMNS = ("static_idx", "opclass", "opcode", "dep", "is_store",
                  "bb_seq")


def check_path_sharing(root: Path, workload: str, size: int) -> list:
    """Failures of the path-blob layout in the cold pass's bundles."""
    failures = []
    n_paths = n_warps = 0
    for bundle in root.glob("*.trc"):
        with bundle.open("rb") as handle:
            header = json.loads(handle.readline())
        n_paths += len(header["paths"])
        n_warps += len(header["entries"])
    print(f"cold: {n_paths} path blobs for {n_warps} warps")
    if not n_paths < n_warps:
        failures.append(f"{n_paths} path blobs for {n_warps} warps: "
                        f"paths are not shared on disk")
    kernel = workload_factory(workload, size)()
    view = TraceStore(root).open_kernel(kernel)
    by_path = {}
    for warp in range(kernel.n_warps):
        trace = view.get(warp)
        if trace is None:
            failures.append(f"warp {warp} is not served by the store")
            continue
        first = by_path.setdefault(tuple(trace.static_idx), trace)
        if any(getattr(trace, c) is not getattr(first, c)
               for c in SHARED_COLUMNS):
            failures.append(f"warp {warp} has its own column lists")
    return failures


def run(workload: str, size: int) -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="warm-smoke-") as tmp:
        root = Path(tmp) / "traces"
        plan = lambda: plan_sweep([workload], sizes=(size,),
                                  methods=("photon",),
                                  trace_store=str(root))

        cold = run_sweep(plan(), jobs=1)
        cold_table = comparison_table(cold.rows, deterministic=True)
        persisted = (cold.trace_merge or {}).get("warps_added", 0)
        print(f"cold: {persisted} warps persisted")
        if persisted <= 0:
            failures.append("cold sweep persisted no traces")
        if not list(root.glob("*.trc")):
            failures.append("no bundle files on disk after cold sweep")
        failures += check_path_sharing(root, workload, size)

        hits = []
        with scoped_bus() as bus:
            bus.subscribe(TRACESTORE_HIT,
                          lambda *ev: hits.append(ev))
            warm = run_sweep(plan(), jobs=1)
        warm_table = comparison_table(warm.rows, deterministic=True)
        re_persisted = (warm.trace_merge or {}).get("warps_added", 0)
        print(f"warm: {len(hits)} store hits, "
              f"{re_persisted} warps re-persisted")
        if not hits:
            failures.append("warm sweep produced zero store hits")
        if re_persisted != 0:
            failures.append(
                f"warm sweep re-persisted {re_persisted} warps")
        if warm_table != cold_table:
            failures.append("warm table differs from cold table")

    if failures:
        for msg in failures:
            print(f"FAIL: {msg}", file=sys.stderr)
        return 1
    print("warm-start smoke: OK (identical tables, fully warm replay)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="relu")
    parser.add_argument("--size", type=int, default=256)
    args = parser.parse_args(argv)
    return run(args.workload, args.size)


if __name__ == "__main__":
    raise SystemExit(main())
