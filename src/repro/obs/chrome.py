"""Chrome-trace (``chrome://tracing`` / Perfetto) export.

Converts a stream of flat event dicts (the JSONL structured-trace
format) into the Chrome Trace Event JSON format.  Spans carry the
simulated-cycle clock directly as their ``ts``/``dur`` (one cycle = one
trace microsecond, purely a display convention); instantaneous control
events with no simulated timestamp of their own (faults, watchdog
trips) are pinned to the most recent simulated time seen in
the stream, which — because events are recorded in emission order —
interleaves them correctly with the kernel/warp/block timeline.

Timeline layout (``pid`` groups → ``tid`` rows):

* ``engine`` — kernel spans, workgroup-dispatch / barrier / waitcnt
  instants;
* ``warps`` — per-warp lifetime spans with nested basic-block spans;
* ``stalls`` — per-warp issue-port stall spans;
* ``inst`` — per-warp instruction spans (only with ``--trace`` full
  fidelity);
* ``control`` — detector switches, faults, watchdog trips;
* ``sweep`` — per-worker task spans on the host-monotonic clock.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

_PIDS = ("engine", "warps", "stalls", "inst", "executor", "control",
         "sweep")
_PID_IDS = {name: i + 1 for i, name in enumerate(_PIDS)}


def _span(pid: str, tid, name: str, t0: float, t1: float,
          args: Dict) -> Dict:
    return {"ph": "X", "pid": _PID_IDS[pid], "tid": tid, "name": name,
            "ts": float(t0), "dur": max(0.0, float(t1) - float(t0)),
            "args": args}


def _instant(pid: str, tid, name: str, ts: float, args: Dict) -> Dict:
    return {"ph": "i", "pid": _PID_IDS[pid], "tid": tid, "name": name,
            "ts": float(ts), "s": "t", "args": args}


def to_chrome_trace(events: Iterable[Dict],
                    time_unit: str = "cycles") -> Dict:
    """Build a Chrome Trace Event document from flat event dicts."""
    out: List[Dict] = []
    last_t = 0.0  # most recent simulated time in stream order

    def note(t) -> float:
        nonlocal last_t
        t = float(t)
        if t > last_t:
            last_t = t
        return t

    for ev in events:
        kind = ev.get("kind", "")
        if kind == "engine.kernel":
            out.append(_span("engine", "kernel", str(ev["kernel"]),
                             ev["t0"], note(ev["t1"]),
                             {"n_insts": ev.get("n_insts"),
                              "stopped": ev.get("stopped")}))
        elif kind == "engine.warp_retire":
            out.append(_span("warps", int(ev["warp"]),
                             f"warp {ev['warp']}", ev["t0"],
                             note(ev["t1"]), {}))
        elif kind == "engine.bb":
            out.append(_span("warps", int(ev["warp"]), f"bb@{ev['pc']}",
                             ev["t0"], note(ev["t1"]),
                             {"pc": ev["pc"]}))
        elif kind == "engine.stall":
            t0 = note(ev["t"])
            out.append(_span("stalls", int(ev["warp"]),
                             f"stall:{ev.get('port', '?')}", t0,
                             t0 + float(ev.get("cycles", 0.0)), {}))
        elif kind == "engine.inst":
            out.append(_span("inst", int(ev["warp"]),
                             f"class{ev.get('opclass')}", ev["t0"],
                             note(ev["t1"]), {}))
        elif kind == "engine.wg_dispatch":
            out.append(_instant("engine", "dispatch",
                                f"wg {ev['wg']}→cu{ev['cu']}",
                                note(ev["t"]),
                                {"n_warps": ev.get("n_warps")}))
        elif kind == "engine.barrier":
            out.append(_instant("engine", "barriers",
                                f"barrier wg {ev['wg']}", note(ev["t"]),
                                {"n_warps": ev.get("n_warps")}))
        elif kind == "engine.waitcnt":
            out.append(_instant("engine", "waitcnt",
                                f"waitcnt w{ev['warp']}", note(ev["t"]),
                                {}))
        elif kind == "engine.warp_dispatch":
            out.append(_instant("engine", "dispatch",
                                f"warp {ev['warp']}", note(ev["t"]), {}))
        elif kind == "executor.warp":
            out.append(_instant("executor", str(ev.get("mode", "?")),
                                f"warp {ev['warp']}", last_t,
                                {"n_insts": ev.get("n_insts"),
                                 "wall": ev.get("wall")}))
        elif kind == "detector.switch":
            out.append(_instant("control", "detector",
                                f"switch→{ev['level']}", note(ev["t"]),
                                {"kernel": ev.get("kernel")}))
        elif kind == "detector.elided":
            out.append(_instant("control", "detector",
                                f"{ev['level']} elided", last_t,
                                {"kernel": ev.get("kernel"),
                                 "reachable": ev.get("reachable"),
                                 "need": ev.get("need")}))
        elif kind == "reliability.fault":
            out.append(_instant("control", "fault",
                                f"fault@{ev['site']}", last_t,
                                {"error": ev.get("error"),
                                 "kernel": ev.get("kernel")}))
        elif kind == "reliability.watchdog":
            out.append(_instant("control", "watchdog",
                                str(ev.get("reason", "trip")), last_t,
                                {"label": ev.get("label"),
                                 "ticks": ev.get("ticks"),
                                 "unit": ev.get("unit")}))
        elif kind == "parallel.task":
            out.append(_span(
                "sweep", int(ev.get("worker", 0)),
                f"{ev['workload']}/{ev['size']}/{ev['method']}",
                float(ev["t0"]) * 1e6, float(ev["t1"]) * 1e6,
                {"index": ev.get("index"),
                 "status": ev.get("status")}))
        # unknown kinds are skipped: forward compatibility over failure

    meta = [
        {"ph": "M", "pid": pid_id, "name": "process_name",
         "args": {"name": name}}
        for name, pid_id in _PID_IDS.items()
    ]
    return {
        "traceEvents": meta + out,
        "displayTimeUnit": "ms",
        "otherData": {"time_unit": time_unit,
                      "producer": "repro.obs"},
    }
