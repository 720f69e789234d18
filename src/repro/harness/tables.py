"""Plain-text table formatting for comparison rows.

``repro run`` / ``app`` / ``sweep`` print the rows the paper's figures
plot; these helpers keep the output aligned and diff-friendly
(EXPERIMENTS.md embeds them directly).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from .metrics import Comparison


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Fixed-width table with a header rule."""
    materialised: List[List[str]] = [[_cell(x) for x in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [line(headers), line("-" * w for w in widths)]
    out.extend(line(row) for row in materialised)
    return "\n".join(out)


def _cell(x: object) -> str:
    if isinstance(x, float):
        return f"{x:.2f}"
    return str(x)


def comparison_table(rows: Iterable[Comparison],
                     deterministic: bool = False) -> str:
    """Standard error/speedup table for a set of comparison rows.

    When any row records a failure, an extra ``status`` column names the
    exception class so the cause survives into the rendered table.

    With ``deterministic=True`` the host-wall-clock columns (``wall_s``,
    ``speedup``) are dropped: every remaining column is a pure function
    of (workload, seed, configuration), so two runs of the same sweep —
    serial or parallel, any worker count — must render byte-identical
    tables.  This is the determinism contract the parallel engine is
    tested against (see ``docs/parallel.md``).
    """
    rows = list(rows)
    headers = ["workload", "size", "method", "sim_time", "err_%",
               "wall_s", "speedup", "mode", "detail_frac"]
    if deterministic:
        headers = [h for h in headers if h not in ("wall_s", "speedup")]
    with_status = any(not row.ok for row in rows)
    if with_status:
        headers.append("status")
    body = []
    for row in rows:
        cells = [
            row.workload, row.size, row.method,
            row.sampled_time, row.error_pct,
        ]
        if not deterministic:
            # only touch the wall-clock properties when they are shown:
            # rows rebuilt from cached deterministic results carry no
            # host timing, and speedup would (rightly) refuse wall=0
            cells += [row.sampled_wall, row.speedup]
        cells += [row.mode, row.detail_fraction]
        if with_status:
            cells.append(row.error_class or "ok")
        body.append(cells)
    return format_table(headers, body)
