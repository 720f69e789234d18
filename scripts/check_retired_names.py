"""Fail when a retired name is back: one table, one ``git grep`` per row.

Each row of :data:`RETIRED` names a pattern (``git grep -E``), the
paths it must not match, the paths excluded from those, the change that
retired the name (its title: ``git log --grep`` finds it) and the
message to print.  Every alternative of a pattern ends in a bracketed
one-character class, so no pattern matches this file.

Run from the repository root::

    python scripts/check_retired_names.py

Exit status 1 (after listing every match) when any row matches, else 0.
"""

from __future__ import annotations

import subprocess
import sys
from typing import NamedTuple, Tuple


class Retired(NamedTuple):
    pattern: str
    paths: Tuple[str, ...]
    exclude: Tuple[str, ...]
    retired_by: str
    message: str


CODE = ("src", "tests", "docs", "README.md", ".github")
CODE_SCRIPTS = CODE + ("scripts",)
EVERYWHERE = CODE_SCRIPTS + ("examples",)
#: recorded run dirs and fleet fixtures carry retired keys on purpose:
#: they prove those records still load
RETRY_ERA = "tests/golden/retry_era_records.json"
SIX_KNOB = "tests/golden/six_knob_watchdog_records.json"

RETIRED = (
    # the paper's claims live in tests/test_paper_claims.py; figure rows
    # come from `repro sweep` / `repro app` (EXPERIMENTS.md)
    Retired(r"bench_swee[p]|BENCH_swee[p]|export_figure[s]|sweep_size[s]"
            r"|REPRO_BENCH_FUL[L]|measure_online_offlin[e]|series_tabl[e]"
            r"|SWEEP_SIZE[S]",
            CODE_SCRIPTS, (), "One paper-claims suite",
            "a retired bench script, record or harness helper is back "
            "(see EXPERIMENTS.md, 'Reproducing')"),
    Retired(r"scoped_batchin[g]|set_batching_enable[d]|batching_enable[d]"
            r"|pack_compatibl[e]|batched_functiona[l]|no-batc[h]"
            r"|_run_warp_ful[l]|_run_warp_contro[l]|make_operand_reade[r]",
            CODE, (), "One interpreter",
            "retired functional-batching names are back (see "
            "docs/performance.md, 'The interpreter')"),
    Retired(r"VEC_THRESHOL[D]|vec_threshold[s]|member_onl[y]"
            r"|_convert_trac[e]|lat_poo[l]|retire_ma[t]|_BatchedRu[n]"
            r"|timing\.batc[h]|nba_[l]|bbptr_[l]|bbstarts_[l]|bbpcs_[l]",
            CODE, (), "One lean round loop",
            "retired vector-round names are back (see docs/performance.md,"
            " 'The engine')"),
    # the serve 429 body's "queue_depth" key is public protocol and
    # stays: only the keyword form (with its "=") is retired
    Retired(r"_run_poo[l]|_POOL_CRASH_LIMI[T]|crash_limi[t]"
            r"|queue_depth[=]",
            CODE, (), "One executor",
            "retired sweep-pool names are back (see docs/parallel.md, "
            "'Scheduling': one pool owner)"),
    Retired(r"_validate_method[s]|_ALL_METHOD[S]|_KNOWN_METHOD[S]"
            r"|_photon_fo[r]|_cell_row[s]",
            CODE, (), "One evaluation path",
            "retired method lists / second evaluator are back (see "
            "docs/parallel.md, 'Task model': one evaluator)"),
    Retired(r"encode_warp_trac[e]|decode_warp_trac[e]",
            CODE, (), "Cut the orchestration tax",
            "the v1 per-warp trace codec is back (see docs/tracestore.md,"
            " 'On-disk format': path blobs + line blobs)"),
    Retired(r"mem_templat[e]|mem_position[s]\(",
            CODE_SCRIPTS, (), "Traces hold only what the engine reads",
            "the per-instruction mem_lines column is back (see "
            "docs/tracestore.md: mem_lines holds one record per memory "
            "instruction, positions live in the path-shared mem_pos)"),
    # the keyword form (with its "=") of the retired merge-conflict
    # knob stays out everywhere
    Retired(r"EngineListene[r]|_shim_subscription[s]|scoped_trace_cach[e]"
            r"|set_default_trace_cach[e]|current_trace_cach[e]"
            r"|on_conflict[=]",
            EVERYWHERE, (), "One way to wire an engine run",
            "the listener shim / default trace cache / conflict knob are "
            "back (see docs/timing_model.md 'Hooks', docs/tracestore.md: "
            "observers subscribe per run, caches are values; "
            "docs/parallel.md: merges keep)"),
    # a failed task is a failed row and `--resume` re-runs it; there is
    # no in-task retry loop
    Retired(r"RetryPolic[y]|NO_RETR[Y]|DEFAULT_RETR[Y]|backoff_bas[e]"
            r"|run_logge[d]|reliability\.retr[y]",
            EVERYWHERE, (RETRY_ERA,), "No knob without a caller",
            "the in-task retry policy is back (see docs/robustness.md, "
            "'Sweep isolation': isolation -> failed row -> --resume)"),
    # a watchdog has two budgets: one deadline per evaluation and
    # events per engine run
    Retired(r"max_instruction[s]|stall_event[s]|stall_instruction[s]"
            r"|check_interva[l]|note_progres[s]|wd_see[n]|warp_watchdo[g]"
            r"|instruction_budge[t]",
            EVERYWHERE, (SIX_KNOB,), "One deadline per evaluation",
            "a retired watchdog knob is back (see docs/robustness.md, "
            "'Watchdogs': one deadline per evaluation, max_events per "
            "engine run)"),
    # online analyses persist in the trace store only: no store /
    # kernel-db files, payloads on outcomes, merges or merged-state
    # counts
    Retired(r"save_analysis_stor[e]|load_analysis_stor[e]"
            r"|save_kernel_d[b]|load_kernel_d[b]"
            r"|analysis_store_payloa[d]\(|analysis_store_from_payloa[d]"
            r"|kernel_db_payloa[d]|kernel_db_from_payloa[d]"
            r"|\bstore_payloa[d]\b|kerneldb_payloa[d]|MergeStat[s]"
            r"|MergedStat[e]|merge_outcome_stat[e]|keep_stat[e]"
            r"|store_merg[e]|db_merg[e]|store_entrie[s]|kernel_record[s]"
            r"|analysis_entrie[s]|persist\.stor[e]|core\.persis[t]"
            r"|core/persist\.p[y]",
            EVERYWHERE, (RETRY_ERA, SIX_KNOB), "Keep online analyses in "
            "the trace store",
            "the warm-state payload -> merge -> report stack is back (see "
            "docs/tracestore.md, 'Online analyses beside the bundles')"),
    Retired(r"RollingSlop[e]",
            ("src",), (), "Photon's detailed phase at full-detail speed",
            "the separate rolling-slope class is back (see "
            "docs/performance.md, 'What Photon's detailed phase costs': "
            "one fused observe)"),
    Retired(r"encode_recor[d]|decode_lin[e]\b|read_pendin[g]"
            r"|_write_atomi[c]",
            ("src",), (), "One durable record format",
            "a retired hand-written record codec or log is back (see "
            "docs/durability.md, 'Every durable record')"),
    # Photon falls back to full detail only when no detector fires; an
    # error in any level is a failed row, then `--resume`
    Retired(r"\bFaultPla[n]\b|\bFaultSpe[c]\b|FallbackEven[t]"
            r"|FALLBACK_CHAI[N]|\bphoton_leve[l]\b|reliability\.fallbac[k]"
            r"|degraded_attempt[s]|singleton\.fault_pla[n]",
            EVERYWHERE, (), "Delete the error ladder and its fault plan",
            "the degradation ladder or its fault plan is back (see "
            "docs/robustness.md, 'What an error does')"),
    # the bus module gives a forked child its fresh bus
    Retired(r"worker_ini[t]|reset_default_bu[s]",
            EVERYWHERE, (), "Delete the error ladder and its fault plan",
            "a pool-worker initializer is back (see docs/parallel.md: "
            "repro.obs.bus gives every forked child a fresh bus)"),
    # recorded journals keep the class name as an error string
    Retired(r"InjectedFaul[t]",
            ("src", "docs"), (), "Delete the error ladder and its fault "
            "plan",
            "the injected-fault error class is back (see "
            "docs/robustness.md, 'What an error does')"),
)


def matches(row: Retired) -> str:
    """``git grep`` output of ``row``'s pattern ('' when clean)."""
    argv = ["git", "grep", "-nE", row.pattern, "--", *row.paths,
            *(f":!{path}" for path in row.exclude)]
    done = subprocess.run(argv, capture_output=True, text=True)
    if done.returncode > 1:
        raise SystemExit(f"git grep failed: {done.stderr.strip()}")
    return done.stdout


def main() -> int:
    failed = 0
    for row in RETIRED:
        found = matches(row)
        if found:
            failed += 1
            print(found, end="")
            print(f"{row.message} [retired by: {row.retired_by}]")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
