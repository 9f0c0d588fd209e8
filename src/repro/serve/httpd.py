"""The HTTP front end and daemon lifecycle.

Zero dependencies beyond the stdlib: a
:class:`http.server.ThreadingHTTPServer` whose handler maps a small
JSON API onto :class:`~repro.serve.DesignService`:

========================  =======================================
``POST /v1/jobs``         submit spec + requirements; 202 with the
                          job id, or 429 + ``Retry-After`` when shed
``GET /v1/jobs``          list all jobs (summaries)
``GET /v1/map``           requirement lookup from the precomputed map
                          (``?load=&downtime_minutes=``); 503 with
                          coverage when the region is unbuilt
``GET /v1/jobs/<id>``     one job; ``?wait=S`` blocks until terminal
``DELETE /v1/jobs/<id>``  cancel (cooperative when running)
``GET /healthz``          liveness: always 200 with the health dict
``GET /readyz``           readiness: 200 or 503 (drain, full queue)
``GET /metricz``          the ``serve.*`` metrics snapshot
``POST /v1/drain``        ask the daemon to drain and exit
========================  =======================================

:class:`DesignDaemon` owns the server + service pair: it binds the
socket (port 0 picks an ephemeral port, advertised in
``<data_dir>/endpoint.json``), installs SIGTERM/SIGINT handlers that
trigger a graceful drain (stop admitting, cancel running searches at
the next candidate boundary so they checkpoint, flush the journal,
exit 0), and runs until stopped.
"""

from __future__ import annotations

import json
import math
import os
import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..errors import ServeError
from .config import ServeConfig
from .service import DesignService

#: Cap on ``?wait=`` long-polls, seconds (clients should re-poll).
MAX_WAIT_SECONDS = 60.0


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the service; one thread per connection."""

    server_version = "repro-serve/1"
    # HTTP/1.0 (the default): every response closes its connection,
    # so slow or killed clients can never pin a handler thread beyond
    # one request + the socket timeout.

    def setup(self) -> None:
        self.request.settimeout(self.server.config.io_timeout)
        super().setup()

    def log_message(self, format: str, *args: Any) -> None:
        pass    # the daemon's journal and metrics are the record

    # -- plumbing ------------------------------------------------------

    @property
    def service(self) -> DesignService:
        return self.server.service

    def _send_json(self, status: int, payload: Dict[str, Any],
                   headers: Tuple[Tuple[str, str], ...] = ()) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Optional[Any]:
        """Parse the request body; responds (and returns None) on error."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._send_json(400, {"error": "bad Content-Length"})
            return None
        if length > self.server.config.max_body_bytes:
            self._send_json(413, {"error": "request body too large"})
            return None
        try:
            raw = self.rfile.read(length)
        except (OSError, socket.timeout):
            # Slow or vanished client: nothing was admitted, nothing
            # to clean up -- drop the connection.
            self.close_connection = True
            return None
        if len(raw) < length:
            self.close_connection = True
            return None
        try:
            return json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._send_json(400, {"error": "body is not valid JSON"})
            return None

    # -- routes --------------------------------------------------------

    def do_POST(self) -> None:   # noqa: N802 - stdlib API
        path = urlsplit(self.path).path
        if path == "/v1/jobs":
            self._post_job()
        elif path == "/v1/drain":
            self.server.request_stop()
            self._send_json(202, {"draining": True})
        else:
            self._send_json(404, {"error": "no such endpoint"})

    def do_GET(self) -> None:    # noqa: N802 - stdlib API
        split = urlsplit(self.path)
        path = split.path
        if path == "/healthz":
            self._send_json(200, self.service.health())
        elif path == "/readyz":
            ready = self.service.ready()
            payload = {"ready": ready}
            payload.update(self.service.health())
            self._send_json(200 if ready else 503, payload)
        elif path == "/metricz":
            self._send_json(200, self.service.metrics.snapshot())
        elif path == "/v1/map":
            self._get_map(split.query)
        elif path == "/v1/jobs":
            self._send_json(200, {"jobs": [job.to_dict()
                                           for job in
                                           self.service.jobs()]})
        elif path.startswith("/v1/jobs/"):
            self._get_job(path[len("/v1/jobs/"):], split.query)
        else:
            self._send_json(404, {"error": "no such endpoint"})

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib API
        path = urlsplit(self.path).path
        if not path.startswith("/v1/jobs/"):
            self._send_json(404, {"error": "no such endpoint"})
            return
        job_id = path[len("/v1/jobs/"):]
        status = self.service.cancel(job_id)
        if status == "unknown":
            self._send_json(404, {"error": "unknown job %r" % job_id})
        elif status == "terminal":
            self._send_json(409, {"error": "job already finished"})
        else:
            self._send_json(202, {"id": job_id, "status": status})

    def _post_job(self) -> None:
        payload = self._read_json()
        if payload is None:
            return
        try:
            job, shed = self.service.submit(payload)
        except ServeError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        if shed is not None:
            self._send_json(429, shed.to_dict(),
                            headers=(("Retry-After",
                                      str(shed.retry_after)),))
            return
        self._send_json(202, {"id": job.id, "state": job.state})

    def _get_map(self, query: str) -> None:
        """``GET /v1/map?load=X&downtime_minutes=Y``.

        200 with the answer ("ok" or the definitive "infeasible"),
        503 when the queried region is genuinely unbuilt (partial
        map, missing file, load beyond the grid), 404 when the daemon
        has no map configured at all, 400 on bad parameters.  Never
        triggers a search.
        """
        service = self.service.map_service
        if service is None:
            self._send_json(404, {"error": "no map configured (start "
                                           "the daemon with --map)"})
            return
        params = parse_qs(query)
        try:
            load = float(params["load"][0])
            downtime = float(params["downtime_minutes"][0])
            # float() parses "nan" and "inf": NaN would bisect to the
            # smallest grid cell and answer a design for it.
            if not (0 < load < math.inf and 0 < downtime < math.inf):
                raise ValueError("must be positive and finite")
        except (KeyError, IndexError, ValueError):
            self._send_json(400, {"error": "load and downtime_minutes "
                                           "query parameters must be "
                                           "positive finite numbers"})
            return
        from ..errors import AvedError
        from ..units import Duration
        try:
            answer = service.lookup(load, Duration.minutes(downtime))
        except AvedError as exc:
            # A corrupt/unreadable map file: honest unavailability.
            self._send_json(503, {"error": str(exc)})
            return
        status = 503 if answer["answer"] == "unbuilt" else 200
        self._send_json(status, answer)

    def _get_job(self, job_id: str, query: str) -> None:
        wait = 0.0
        values = parse_qs(query).get("wait")
        if values:
            try:
                wait = float(values[0])
            except ValueError:
                self._send_json(400, {"error": "wait must be a number"})
                return
        wait = max(0.0, min(wait, MAX_WAIT_SECONDS))
        if wait > 0:
            job = self.service.wait(job_id, wait)
        else:
            job = self.service.get(job_id)
        if job is None:
            self._send_json(404, {"error": "unknown job %r" % job_id})
            return
        self._send_json(200, job.to_dict())


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int],
                 service: DesignService, config: ServeConfig,
                 request_stop: Callable[[], None]):
        self.service = service
        self.config = config
        self.request_stop = request_stop
        super().__init__(address, _Handler)


class DesignDaemon:
    """Service + HTTP server + signal-driven graceful drain."""

    def __init__(self, config: ServeConfig,
                 clock: Callable[[], float] = time.monotonic):
        self.config = config
        self.service = DesignService(config, clock=clock)
        self._stop = threading.Event()
        self._server = _Server((config.host, config.port),
                               self.service, config, self.request_stop)
        self.host, self.port = self._server.server_address[:2]
        self._thread: Optional[threading.Thread] = None
        self._shut_down = False

    @property
    def url(self) -> str:
        return "http://%s:%d" % (self.host, self.port)

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Start workers and the HTTP loop (non-blocking; for tests
        and :meth:`run`)."""
        self.service.start()
        self._write_endpoint()
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="serve-http", daemon=True)
        self._thread.start()

    def request_stop(self) -> None:
        """Ask the daemon to drain and exit (signal/drain endpoint)."""
        self._stop.set()

    def shutdown(self) -> bool:
        """Stop accepting, drain the service, close the socket."""
        if self._shut_down:
            return True
        self._shut_down = True
        self._server.shutdown()
        clean = self.service.drain()
        self._server.server_close()
        try:
            os.remove(self.config.endpoint_path)
        except OSError:
            pass
        return clean

    def run(self, install_signals: bool = True) -> int:
        """Serve until SIGTERM/SIGINT (or ``POST /v1/drain``).

        Returns the process exit code: 0 for a clean drain (running
        searches checkpointed and parked, journal flushed), 1 when a
        worker had to be abandoned past the grace budget.
        """
        if install_signals:
            def _on_signal(signum: int, frame: Any) -> None:
                self.request_stop()
            signal.signal(signal.SIGTERM, _on_signal)
            signal.signal(signal.SIGINT, _on_signal)
        self.start()
        self._stop.wait()
        return 0 if self.shutdown() else 1

    # -- discovery -----------------------------------------------------

    def _write_endpoint(self) -> None:
        """Advertise the bound address (atomically -- watchers may
        race the daemon's boot)."""
        record = {"host": self.host, "port": self.port,
                  "pid": os.getpid(), "url": self.url}
        temp = self.config.endpoint_path + ".tmp"
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump(record, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, self.config.endpoint_path)


__all__ = ["DesignDaemon", "MAX_WAIT_SECONDS"]
