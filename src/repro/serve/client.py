"""A minimal stdlib client for PhotonServe.

Used by the test suite, the serve benchmark and ``scripts/``; one
:class:`ServeClient` talks to one server over plain ``http.client``
connections, one persistent (HTTP/1.1 keep-alive) connection per calling
thread.  When the server has closed an idle connection the request is
sent once more on a fresh one — a request is never sent a third time.

Every call returns ``(status_code, headers, payload)`` so callers can
assert on backpressure responses (429 + ``Retry-After``) as easily as
on successes; the convenience wrappers (:meth:`run`, :meth:`ping`,
:meth:`sweep`) return just the decoded payload and raise
:class:`ServeHTTPError` on non-2xx.
"""

from __future__ import annotations

import http.client
import json
import threading
from typing import Dict, Iterator, Optional, Tuple


class ServeHTTPError(RuntimeError):
    """A non-2xx response from a convenience wrapper."""

    def __init__(self, status: int, payload: Dict):
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload
        self.retry_after = payload.get("retry_after")


class ServeClient:
    """HTTP client bound to one PhotonServe host:port."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        # thread ident -> that thread's connection; a thread touches only
        # its own key, and an ident reused after a thread's death simply
        # inherits a connection (dead or alive, like any idle one)
        self._conns: Dict[int, http.client.HTTPConnection] = {}

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)

    def close(self) -> None:
        """Close every thread's connection (call with no request in
        flight; a later call simply reconnects)."""
        for conn in list(self._conns.values()):
            conn.close()

    # -- raw request/response ----------------------------------------------

    def request(self, method: str, path: str,
                payload: Optional[Dict] = None,
                headers: Optional[Dict[str, str]] = None
                ) -> Tuple[int, Dict[str, str], Dict]:
        """One round trip; returns (status, headers, decoded JSON body)."""
        body = (json.dumps(payload).encode("utf-8")
                if payload is not None else None)
        send_headers = {"Content-Type": "application/json",
                        **(headers or {})}
        while True:
            conn = self._conns.get(threading.get_ident())
            if conn is None:
                conn = self._conns[threading.get_ident()] = self._connect()
            reused = conn.sock is not None
            try:
                conn.request(method, path, body=body, headers=send_headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except ConnectionError:
                # the server closed a connection we held idle: once more
                # on a fresh one; a fresh one failing is the caller's
                conn.close()
                if not reused:
                    raise
            except BaseException:
                conn.close()   # mid-exchange state is unknowable
                raise
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except ValueError:
            decoded = {"raw": raw.decode("utf-8", "replace")}
        resp_headers = {name.lower(): value
                        for name, value in response.getheaders()}
        return response.status, resp_headers, decoded

    def post(self, path: str, payload: Dict,
             headers: Optional[Dict[str, str]] = None):
        return self.request("POST", path, payload, headers)

    def get(self, path: str):
        return self.request("GET", path)

    # -- convenience wrappers ----------------------------------------------

    def _unwrap(self, triple) -> Dict:
        status, _headers, payload = triple
        if status >= 300:
            raise ServeHTTPError(status, payload)
        return payload

    def health(self) -> Dict:
        return self._unwrap(self.get("/healthz"))

    def stats(self) -> Dict:
        return self._unwrap(self.get("/v1/stats"))

    def run(self, workload: str, size: int, method: str = "photon",
            **extra) -> Dict:
        return self._unwrap(self.post(
            "/v1/run", {"workload": workload, "size": size,
                        "method": method, **extra}))

    def ping(self, delay_ms: int = 0, key: str = "", **extra) -> Dict:
        return self._unwrap(self.post(
            "/v1/ping", {"delay_ms": delay_ms, "key": key, **extra}))

    def sweep(self, workloads, **extra) -> Dict:
        return self._unwrap(self.post(
            "/v1/sweep", {"workloads": list(workloads), **extra}))

    # -- streaming ----------------------------------------------------------

    def stream(self, path: str, payload: Dict) -> Iterator[Dict]:
        """POST with ``"stream": true`` and yield JSONL events.

        The final yielded record is the ``{"event": "done", ...}`` line
        carrying the full response payload.
        """
        conn = self._connect()   # its own: the stream ends by closing it
        try:
            body = json.dumps({**payload, "stream": True}).encode("utf-8")
            conn.request("POST", path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            buffer = b""
            while True:
                chunk = response.read(4096)
                if not chunk:
                    break
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if line.strip():
                        yield json.loads(line.decode("utf-8"))
        finally:
            conn.close()
