"""Compare two PhotonBench records.

Every end-to-end metric must be within its ``BENCHMARK.json`` bound,
every exact metric (counts, simulated statistics) equal, and the
failed share of operations not higher.  One row per (workload,
metric), with both values and the ratio B / A — base A, always.
"""

from __future__ import annotations

from typing import List, Tuple

from .spec import EXACT_END_TO_END, EXACT_LAYER, load_benchmark


def _value(section: dict, name: str):
    entry = section.get(name)
    return None if entry is None else entry["value"]


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    delta = (b - a) / abs(a)
    return delta if better == "lower" else -delta


def compare(a: dict, b: dict, same_commit: bool = False
            ) -> Tuple[List[tuple], List[str]]:
    """Rows ``(workload, metric, unit, a, b, ratio, verdict)`` and the
    list of violations.  ``same_commit`` additionally requires the
    simulated end-to-end metrics to be identical."""
    bench = load_benchmark()
    rows: List[tuple] = []
    violations: List[str] = []

    def row(workload, name, unit, va, vb, verdict):
        ratio = vb / va if va else float("nan")
        rows.append((workload, name, unit, va, vb, ratio, verdict))
        if verdict not in ("ok", "info"):
            violations.append(f"{workload} {name}: {va!r} -> {vb!r} "
                              f"({verdict})")

    for workload in sorted(set(a["workloads"]) | set(b["workloads"])):
        wa = a["workloads"].get(workload)
        wb = b["workloads"].get(workload)
        if wa is None or wb is None:
            violations.append(f"{workload}: missing from one record")
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            va = _value(wa.get("end_to_end", {}), name)
            vb = _value(wb.get("end_to_end", {}), name)
            if va is None or vb is None:
                violations.append(f"{workload} {name}: missing")
                continue
            if same_commit and name in EXACT_END_TO_END:
                verdict = "ok" if va == vb else "NOT EQUAL"
            else:
                worse = worsening(va, vb, metric["better"])
                verdict = ("ok" if worse <= metric["bound"]
                           else f"WORSE by {worse:.1%} > "
                                f"{metric['bound']:.0%}")
            row(workload, name, metric["unit"], va, vb, verdict)
        fa = wa["failed"] / wa["attempted"]
        fb = wb["failed"] / wb["attempted"]
        row(workload, "fail_frac", "frac", fa, fb,
            "ok" if fb <= fa else "MORE FAILURES")
        for metric in bench["per_layer"]:
            name = metric["name"]
            va = _value(wa.get("per_layer", {}), name)
            vb = _value(wb.get("per_layer", {}), name)
            if va is None or vb is None:
                continue  # a record may hold the untraced pass only
            if name in EXACT_LAYER:
                verdict = "ok" if va == vb else "NOT EQUAL"
            else:
                verdict = "info"
            row(workload, name, metric["unit"], va, vb, verdict)
    return rows, violations


def format_rows(rows: List[tuple]) -> str:
    lines = [f"{'workload':<14}{'metric':<34}{'unit':<11}"
             f"{'A':>16}{'B':>16}{'B/A (base A)':>14}  verdict"]
    for workload, name, unit, va, vb, ratio, verdict in rows:
        lines.append(f"{workload:<14}{name:<34}{unit:<11}"
                     f"{va:>16.6g}{vb:>16.6g}{ratio:>14.4f}  {verdict}")
    return "\n".join(lines)
