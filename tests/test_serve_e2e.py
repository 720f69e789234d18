"""End-to-end: a live ``repro serve`` process under concurrent load.

This is the acceptance scenario for PhotonServe: a real subprocess
with a real worker pool, driven over real sockets —

* concurrent identical (program, data, grid) requests coalesce onto
  one execution and every response is bitwise-identical to a direct
  in-process ``run_task``;
* queue overflow answers 429 with Retry-After;
* SIGTERM drains cleanly: in-flight work finishes, queued work is
  journaled, the process exits 0.
"""

import json
import os
import pathlib
import re
import signal
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.parallel.tasks import SweepTask, run_task
from repro.serve import ServeClient, deterministic_result
from repro.serve.lifecycle import read_pending

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class ServeProc:
    """A ``repro serve`` subprocess plus a client bound to it."""

    def __init__(self, *flags: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["PYTHONUNBUFFERED"] = "1"
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             *flags],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env, cwd=str(REPO_ROOT))
        line = self.proc.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        assert match, f"no listening line, got {line!r}"
        self.client = ServeClient(match.group(1), int(match.group(2)),
                                  timeout=120)

    def sigterm_and_wait(self, timeout: float = 60.0):
        self.proc.send_signal(signal.SIGTERM)
        out, err = self.proc.communicate(timeout=timeout)
        return self.proc.returncode, out, err

    def kill(self):
        self.client.close()
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate(timeout=10)


def test_e2e_dedup_bitwise_results_and_drain(tmp_path):
    """The full acceptance path against one live server."""
    state = tmp_path / "state"
    server = ServeProc("--jobs", "1", "--queue-limit", "8",
                       "--state-dir", str(state))
    try:
        assert server.client.health() == {"status": "ok"}

        # -- concurrent identical requests coalesce to ONE execution --
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(server.client.run, "relu", 128,
                                   "photon")
                       for _ in range(6)]
            results = [f.result() for f in futures]
        kinds = sorted(r["cache"] for r in results)
        assert kinds.count("miss") == 1          # exactly one execution
        assert set(kinds) <= {"miss", "dedup", "hit"}
        assert len({r["key"] for r in results}) == 1
        stats = server.client.stats()
        assert stats["counts"]["executions"] == 1

        # -- responses are bitwise the direct run_task result --
        direct = deterministic_result(run_task(SweepTask(
            index=0, workload="relu", size=128, method="photon",
            gpu="r9nano")))
        for result in results:
            assert result["result"] == direct

        # -- a repeat is a pure cache hit, no new execution --
        again = server.client.run("relu", 128, "photon")
        assert again["cache"] == "hit"
        assert again["result"] == direct
        assert server.client.stats()["counts"]["executions"] == 1

        # -- SIGTERM: drains and exits 0 --
        code, _out, err = server.sigterm_and_wait()
        assert code == 0
        assert "drained:" in err
    finally:
        server.kill()


def test_e2e_queue_overflow_answers_429(tmp_path):
    import time

    server = ServeProc("--jobs", "1", "--queue-limit", "0")
    try:
        # occupy the single execution slot with a slow ping...
        with ThreadPoolExecutor(max_workers=4) as pool:
            slow = pool.submit(server.client.ping, delay_ms=3000,
                               key="slow")
            deadline = time.monotonic() + 5.0
            while server.client.stats()["queue"]["running"] == 0:
                assert time.monotonic() < deadline, "slot never taken"
                time.sleep(0.05)
            # ...now any distinct request overflows the (empty) waiting
            # room and bounces with explicit backpressure
            status, headers, payload = server.client.post(
                "/v1/ping", {"delay_ms": 0, "key": "bounced"})
            assert status == 429
            assert int(headers["retry-after"]) >= 1
            assert payload["error"] == "admission queue full"
            # a duplicate of the running request still attaches
            dup = server.client.ping(delay_ms=3000, key="slow")
            assert dup["cache"] == "dedup"
            assert slow.result()["cache"] == "miss"
        code, _out, _err = server.sigterm_and_wait()
        assert code == 0
    finally:
        server.kill()


def test_e2e_sigterm_mid_request_finishes_inflight(tmp_path):
    """Work already executing when SIGTERM lands is not discarded."""
    state = tmp_path / "state"
    server = ServeProc("--jobs", "1", "--queue-limit", "4",
                       "--max-inflight", "1",
                       "--state-dir", str(state), "--drain-grace", "30")
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            inflight = pool.submit(server.client.ping, delay_ms=1500,
                                   key="inflight")
            queued = pool.submit(
                server.client.post, "/v1/ping",
                {"delay_ms": 0, "key": "queued"})
            # give both requests time to reach slot / waiting room,
            # then drain while they are still pending
            import time
            time.sleep(0.5)
            server.proc.send_signal(signal.SIGTERM)
            # the in-flight request still completes, normally
            assert inflight.result()["cache"] == "miss"
            status, _headers, payload = queued.result()
            # the queued request either squeezed in before the signal
            # or was displaced, journaled, and told 503
            assert status in (200, 503)
            journaled = status == 503 and payload.get("journaled")
        out, err = server.proc.communicate(timeout=60)
        assert server.proc.returncode == 0
        if journaled:
            pending = read_pending(state)
            assert [p.get("key") for p in pending] == ["queued"]
    finally:
        server.kill()


def test_e2e_sigterm_with_idle_persistent_connections_exits_quietly():
    """Idle keep-alive connections (a client's, and a socket that never
    sent a byte) must not hold the drain open or leave their handler
    tasks to be cancelled noisily at loop shutdown."""
    import socket
    import time

    server = ServeProc("--jobs", "1")
    silent = None
    try:
        assert server.client.ping()["cache"] == "miss"   # stays connected
        silent = socket.create_connection(
            (server.client.host, server.client.port), timeout=10)
        deadline = time.monotonic() + 5.0
        while server.client.stats()["counts"]["connections"] < 2:
            assert time.monotonic() < deadline, "connections never accepted"
            time.sleep(0.02)
        start = time.monotonic()
        code, _out, err = server.sigterm_and_wait()
        drain_seconds = time.monotonic() - start
        assert code == 0
        assert drain_seconds < 1.0, drain_seconds
        assert "drained:" in err
        assert "Traceback" not in err and "Exception" not in err, err
        assert silent.recv(1) == b""     # the server closed it, cleanly
    finally:
        if silent is not None:
            silent.close()
        server.kill()
