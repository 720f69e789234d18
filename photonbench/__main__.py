"""Command line of PhotonBench.

    python -m photonbench [--workload W ...] [--seed N] [--smoke]
                          [--repeats N | --seconds S] [--trace {0,1}]
                          [--out FILE] [--write-golden] [--check-repeat]
    python -m photonbench compare A.json B.json [--same-commit]

Without ``--trace`` every selected workload runs its set-up launches,
the untraced pass and the traced pass, and one record is written.
``--trace 0`` runs set-up and the untraced pass only, ``--trace 1`` the
traced pass only.  With one workload and ``--trace`` given, the
last line of standard output is the one-line JSON result of the
builder's contract.  The exit code is non-zero when any operation
failed or a child could not run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .compare import compare, format_rows
from .driver import (ChildFailed, contract_line, envelope, print_record,
                     run_workload)
from .spec import OUT_DIR, ROOT, WORKLOADS

DEFAULT_REPEATS = 3


def _compare_main(argv) -> int:
    parser = argparse.ArgumentParser(prog="photonbench compare")
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--same-commit", action="store_true",
                        help="both records are of one commit: simulated "
                             "end-to-end metrics must be identical too")
    args = parser.parse_args(argv)
    return _report(compare(json.loads(args.a.read_text()),
                           json.loads(args.b.read_text()),
                           same_commit=args.same_commit))


def _report(compared) -> int:
    """Print a comparison; 1 when anything was violated."""
    rows, violations = compared
    print(format_rows(rows))
    for violation in violations:
        print(f"VIOLATION {violation}")
    return 1 if violations else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        return _compare_main(argv[1:])
    parser = argparse.ArgumentParser(prog="photonbench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=list(WORKLOADS),
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=None,
                        help="data seed handed to the kernel builders "
                             "(default: each builder's own)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one repeat, under a minute")
    budget = parser.add_mutually_exclusive_group()
    budget.add_argument("--repeats", type=int, default=None,
                        help=f"untraced repeats (default {DEFAULT_REPEATS})")
    budget.add_argument("--seconds", type=float, default=None,
                        help="untraced time budget: as many whole repeats "
                             "as fit, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", type=Path, default=None,
                        help="record file (default photonbench/out/"
                             "record.json)")
    parser.add_argument("--write-golden", action="store_true",
                        help="pin this run's simulated results in "
                             "golden.json (default seed only)")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run the untraced pass twice and compare")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"photonbench: no simulator at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.write_golden and (args.seed is not None or args.trace == 0):
        parser.error("--write-golden needs the default seed and the "
                     "traced pass")
    names = args.workload or list(WORKLOADS)
    repeats, seconds = args.repeats, args.seconds or 0.0
    if repeats is None and args.seconds is None:
        repeats = 1 if args.smoke else DEFAULT_REPEATS
    try:
        if args.check_repeat:
            return _check_repeat(names, args, repeats, seconds)
        record = {"envelope": envelope(args.seed, repeats, seconds,
                                       args.smoke), "workloads": {}}
        for name in names:
            record["workloads"][name] = run_workload(
                name, seed=args.seed, smoke=args.smoke, repeats=repeats,
                seconds=seconds, untraced=args.trace != 1,
                traced=args.trace != 0, save_golden=args.write_golden)
    except ChildFailed as exc:
        print(f"photonbench: {exc}", file=sys.stderr)
        return 1
    out = args.out or OUT_DIR / "record.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, allow_nan=False) + "\n")
    print_record(record)
    print(f"wrote {out}")
    if len(names) == 1 and args.trace is not None:
        print(contract_line(record["workloads"][names[0]],
                            "per_layer" if args.trace else "end_to_end"))
    failed = sum(w["failed"] for w in record["workloads"].values())
    return 1 if failed else 0


def _check_repeat(names, args, repeats, seconds) -> int:
    """Two untraced sets of one commit must agree within the bounds."""
    records = []
    for _ in range(2):
        record = {"workloads": {}}
        for name in names:
            record["workloads"][name] = run_workload(
                name, seed=args.seed, smoke=args.smoke, repeats=repeats,
                seconds=seconds, untraced=True, traced=False)
        records.append(record)
    violated = _report(compare(*records, same_commit=True))
    failed = sum(w["failed"] for r in records
                 for w in r["workloads"].values())
    return 1 if violated or failed else 0


if __name__ == "__main__":
    sys.exit(main())
