"""The benchmark driver: one process that never imports ``repro``.

Each workload's passes run in fresh child interpreters (so set-up time
and peak memory are per workload and cold); the driver spawns them in
their own process group, reads their result files, assembles the
metrics named in ``BENCHMARK.json`` and prints them.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

from . import SCHEMA_VERSION
from .spans import box_slowdown, median
from .spec import GOLDEN_PATH, OUT_DIR, ROOT, applies_to, load_benchmark

#: a child that runs longer than this is killed with its process group;
#: the builder's contract allows a run 180 s in all
CHILD_TIMEOUT_S = 170.0
SETUP_LAUNCHES = 3


class ChildFailed(RuntimeError):
    """A child interpreter exited non-zero, timed out or wrote no result."""


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # one source of run-to-run variation less: str hashes, and with them
    # dict and set iteration order, are the same in every child
    env["PYTHONHASHSEED"] = "0"
    return env


def _child_command(mode: str, workload: str, seed: Optional[int],
                   smoke: bool) -> List[str]:
    command = [sys.executable, "-m", "photonbench.child", mode,
               "--workload", workload]
    if seed is not None:
        command += ["--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    return command


def _reap(proc: subprocess.Popen, timeout: float) -> int:
    """Wait for ``proc``; on timeout or interrupt kill its whole group
    (pool workers, a server) and still wait, so nothing outlives us."""
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise


def measure_setup(workload: str, seed: Optional[int], smoke: bool,
                  launches: int = SETUP_LAUNCHES) -> float:
    """Median seconds, at reference box speed, from spawning a fresh
    interpreter to its ``ready``: ``import repro.cli``, every kernel of
    the workload built once and, on ``orchestrated``, a server answering
    its first health check."""
    samples = []
    before = box_slowdown()
    for _ in range(launches):
        start = time.perf_counter()
        proc = subprocess.Popen(
            _child_command("setup", workload, seed, smoke), cwd=ROOT,
            env=_child_env(), stdout=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
        finally:
            code = _reap(proc, CHILD_TIMEOUT_S)
            proc.stdout.close()
        if code != 0 or line.strip() != "ready":
            raise ChildFailed(f"{workload}: set-up child exited {code}")
        after = box_slowdown()
        samples.append(elapsed / ((before + after) / 2))
        before = after
    return median(samples)


def run_child(mode: str, workload: str, seed: Optional[int], smoke: bool,
              repeats: Optional[int] = None, seconds: float = 0.0) -> dict:
    """Run one pass of one workload in a fresh interpreter."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    result_path = OUT_DIR / f"result-{workload}-{mode}-{os.getpid()}.json"
    command = _child_command(mode, workload, seed, smoke)
    command += ["--result", str(result_path), "--seconds", repr(seconds)]
    if repeats is not None:
        command += ["--repeats", str(repeats)]
    # the child's stdout goes to our stderr: stdout is for the result
    proc = subprocess.Popen(command, cwd=ROOT, env=_child_env(),
                            stdout=sys.stderr, start_new_session=True)
    try:
        code = _reap(proc, CHILD_TIMEOUT_S)
        if code != 0:
            raise ChildFailed(f"{workload}: {mode} child exited {code}")
        try:
            return json.loads(result_path.read_text())
        except (OSError, ValueError) as exc:
            raise ChildFailed(
                f"{workload}: {mode} child wrote no result: {exc}") from exc
    finally:
        result_path.unlink(missing_ok=True)


def golden_mismatches(golden: dict, measured: Dict[str, dict]) -> int:
    """Cells whose simulated results differ from the pinned ones."""
    return sum(1 for key, entry in measured.items()
               if golden.get("cells", {}).get(key) != entry)


def load_golden() -> dict:
    if GOLDEN_PATH.exists():
        return json.loads(GOLDEN_PATH.read_text())
    return {"schema": SCHEMA_VERSION, "cells": {}}


def write_golden(measured: Dict[str, dict]) -> None:
    golden = load_golden()
    golden["cells"].update(measured)
    GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True, allow_nan=False) + "\n")


def _with_units(values: Dict[str, float], declared: List[dict],
                workload: str) -> Dict[str, dict]:
    """``{name: {"value", "unit"}}`` in ``BENCHMARK.json`` order.  A
    layer metric this workload does not measure is reported as 0, so
    that every run prints every declared name."""
    out = {}
    for metric in declared:
        name = metric["name"]
        if name not in values and workload in applies_to(name):
            raise ChildFailed(f"{workload}: metric {name} was not produced")
        out[name] = {"value": values.get(name, 0.0), "unit": metric["unit"]}
    return out


def run_workload(workload: str, *, seed: Optional[int], smoke: bool,
                 repeats: Optional[int], seconds: float, untraced: bool,
                 traced: bool, save_golden: bool = False) -> dict:
    """The requested passes of one workload -> its record entry:
    ``untraced`` is the set-up launches plus the untraced pass (the
    end-to-end metrics), ``traced`` the traced pass (per-layer)."""
    bench = load_benchmark()
    started = time.perf_counter()
    record: dict = {}
    attempted, failures = 0, []
    if untraced:
        result = run_child("untraced", workload, seed, smoke,
                           repeats=repeats, seconds=seconds)
        end_to_end = result["metrics"]
        end_to_end["setup_s"] = measure_setup(workload, seed, smoke)
        record["repeats"] = result["repeats"]
        record["end_to_end"] = _with_units(
            end_to_end, bench["end_to_end"], workload)
        attempted += result["attempted"]
        failures += result["failures"]
    if traced:
        result = run_child("traced", workload, seed, smoke)
        layer = result["metrics"]
        layer["timing.golden_mismatches"] = 0
        # goldens are pinned at each builder's default seed only
        record["golden_checked"] = seed is None
        if seed is None and save_golden:
            write_golden(result["golden"])
        elif seed is None:
            layer["timing.golden_mismatches"] = golden_mismatches(
                load_golden(), result["golden"])
        record["per_layer"] = _with_units(
            layer, bench["per_layer"], workload)
        record["trace"] = result["trace"]
        attempted += result["attempted"]
        failures += result["failures"]
    record.update(attempted=attempted, failed=len(failures),
                  failures=failures[:20],
                  elapsed_s=time.perf_counter() - started)
    return record


def envelope(seed: Optional[int], repeats: Optional[int], seconds: float,
             smoke: bool) -> dict:
    """What makes two records comparable PR to PR."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "schema": SCHEMA_VERSION, "git_sha": sha,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(), "seed": seed, "repeats": repeats,
        "seconds": seconds, "smoke": smoke,
    }


def print_record(record: dict) -> None:
    for workload, entry in record["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            for name, metric in entry.get(section, {}).items():
                print(f"{workload:<14}{name:<34}{metric['value']:>18.6g} "
                      f"{metric['unit']}")
        print(f"{workload:<14}{'fail_frac':<34}"
              f"{entry['failed'] / entry['attempted']:>18.6g} "
              f"failed/attempted ({entry['failed']}/{entry['attempted']})")
        for failure in entry["failures"]:
            print(f"{workload:<14}FAILED {failure}")


def contract_line(entry: dict, section: str) -> str:
    """The one-line result the builder's contract reads last."""
    return json.dumps({"correct": entry["failed"] == 0,
                       "attempted": entry["attempted"],
                       "failed": entry["failed"],
                       "metrics": entry[section]}, allow_nan=False)
