"""The live ops endpoint: scrapeable metrics, probes, and audit trails.

A stdlib :class:`~http.server.ThreadingHTTPServer` wrapped around one
framework (:class:`~repro.core.framework.PReVer` or
:class:`~repro.core.sharded.ShardedPReVer`), serving:

``/metrics``
    Prometheus text exposition of the coordinator registry.  When the
    target exposes ``collect_telemetry()`` (the sharded front-end), the
    scrape first pulls per-shard deltas, so counters and spans recorded
    in process shards appear under their ``shard.<name>`` labels.
``/metrics.json``
    The versioned JSON schema (:func:`repro.obs.export.metrics_to_json`).
``/healthz``
    Liveness: WAL writability and ledger reachability — HTTP 200 when
    every check passes, 503 otherwise.
``/readyz``
    Readiness: everything ``/healthz`` checks plus the ledger-root vs
    last-anchored-root consistency check.
``/trace/<trace_id>``
    One update's full verification trail: its correlated event-log
    records plus the anchored ledger entry, its inclusion proof, and
    the digest the proof verifies against — everything an auditor
    needs to re-verify the decision independently (see
    ``examples/telemetry_demo.py`` for a client-side re-verification).

The server binds ``127.0.0.1`` on an ephemeral port by default; it is
an operator/auditor surface, not a hardened public API.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.obs.export import metrics_to_json, to_prometheus

#: Content type Prometheus scrapers expect for the text format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _json_default(value):
    if isinstance(value, bytes):
        return value.hex()
    return repr(value)


class OpsServer:
    """Ops endpoint for one framework; start with :meth:`start`."""

    def __init__(self, target, host: str = "127.0.0.1", port: int = 0,
                 namespace: Optional[str] = "repro"):
        self.target = target
        self.namespace = namespace
        ops = self

        class _Handler(BaseHTTPRequestHandler):
            """Routes GETs into the owning :class:`OpsServer`."""

            server_version = "prever-obs"

            def do_GET(self):
                """Serve one ops route."""
                status, content_type, body = ops.handle(self.path)
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):
                """Quiet: probes poll; stderr noise helps nobody."""

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (port 0 resolves here)."""
        return self._httpd.server_address[:2]

    def url(self, path: str = "/") -> str:
        """Absolute URL for ``path`` on this server."""
        host, port = self.address
        return f"http://{host}:{port}{path}"

    def start(self) -> "OpsServer":
        """Serve on a daemon thread (idempotent); returns self."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="prever-obs-server", daemon=True,
            )
            self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        thread, self._thread = self._thread, None
        if thread is not None:
            self._httpd.shutdown()
            thread.join(timeout=5.0)
        self._httpd.server_close()

    def __enter__(self) -> "OpsServer":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- routing -----------------------------------------------------------

    def handle(self, path: str) -> Tuple[int, str, bytes]:
        """Resolve one request path to ``(status, content_type, body)``."""
        path = path.split("?", 1)[0]
        try:
            if path == "/metrics":
                text = to_prometheus(self._registry(),
                                     namespace=self.namespace)
                return 200, PROMETHEUS_CONTENT_TYPE, text.encode("utf-8")
            if path == "/metrics.json":
                return self._json(200, metrics_to_json(self._registry()))
            if path == "/healthz":
                report = self.target.health_report()
                return self._json(200 if report["ok"] else 503, report)
            if path == "/readyz":
                report = self.target.readiness_report()
                return self._json(200 if report["ok"] else 503, report)
            if path.startswith("/trace/"):
                trace_id = path[len("/trace/"):]
                trail = self.target.verification_trail(trace_id)
                if trail is None:
                    return self._json(
                        404, {"error": f"no trail for trace {trace_id!r}"}
                    )
                return self._json(200, trail)
            return self._json(404, {
                "error": f"unknown path {path!r}",
                "routes": ["/metrics", "/metrics.json", "/healthz",
                           "/readyz", "/trace/<trace_id>"],
            })
        except Exception as exc:  # surface, don't kill the serving thread
            return self._json(500, {"error": repr(exc)})

    def _registry(self):
        target = self.target
        collect = getattr(target, "collect_telemetry", None)
        if collect is not None:
            return collect()
        return target.metrics

    @staticmethod
    def _json(status: int, document: dict) -> Tuple[int, str, bytes]:
        body = json.dumps(document, indent=2, sort_keys=True,
                          default=_json_default).encode("utf-8")
        return status, "application/json", body


def start_ops_server(target, host: str = "127.0.0.1",
                     port: int = 0) -> OpsServer:
    """Build and start an :class:`OpsServer` for ``target``; returns
    the running server (``server.address`` has the bound port)."""
    return OpsServer(target, host=host, port=port).start()
