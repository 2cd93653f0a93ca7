"""The wire layer: asyncio NDJSON control socket + live ``/metrics`` HTTP.

One :class:`ServiceServer` wraps one
:class:`~repro.service.core.SchedulingService` and serves:

* a **control socket** (TCP or Unix) speaking newline-delimited JSON —
  one request object per line, one response object per line, in order,
  over any number of concurrent connections;
* an optional **metrics endpoint** — a deliberately tiny HTTP/1.0
  responder whose ``GET /metrics`` returns the live Prometheus text of
  the running service (``GET /healthz`` returns a one-line JSON pulse).

Wire operations (the ``op`` field): ``submit``, ``status``, ``cancel``,
``drain``, ``stats``, plus ``ping`` and ``metrics`` conveniences.
Submissions do not hit admission directly: they pass through the
:class:`~repro.service.queue.FairSubmissionQueue`, so when several
tenants race, admission slots are granted round-robin across tenants
rather than to whoever floods the socket fastest.  The ack each client
awaits is the admission outcome for *its* submission.

Everything runs on one event loop thread — the service object is
synchronous and never touched concurrently, which keeps the engine's
determinism contract without locks.  A background ticker advances the
engine in ``step_slice`` increments whenever admitted work exists;
virtual time freezes while the service is idle.

:class:`ThreadedServer` runs the same server on a daemon thread for
in-process tests and notebooks.
"""

from __future__ import annotations

import asyncio
import json
import threading

from repro.errors import ReproError, ServiceError
from repro.io.serialize import _int_field
from repro.service.chaos import ChaosConfig, ChaosSchedule
from repro.service.core import SchedulingService
from repro.service.queue import FairSubmissionQueue

__all__ = ["ServiceServer", "ThreadedServer", "control_endpoint"]


def control_endpoint(
    host: str, port: int | None, unix_path: str | None
) -> tuple[str, int | None] | str:
    """The control socket a :class:`ServiceServer` binds: ``unix_path``,
    else ``(host, port)`` (``port=None`` is ephemeral).

    Refuses ``unix_path`` together with ``port``: one server has one
    control socket, so the caller must pick TCP or Unix.
    """
    if unix_path is not None and port is not None:
        raise ServiceError(
            "unix_path and port both bind the control socket; pick TCP "
            "or Unix, not both"
        )
    return unix_path if unix_path is not None else (host, port)


class ServiceServer:
    """Serve one :class:`SchedulingService` over NDJSON + HTTP metrics.

    Parameters
    ----------
    service:
        The service to expose.
    host, port:
        TCP bind for the control socket (``port=None`` or ``0`` picks an
        ephemeral port, reported by :attr:`address` after :meth:`start`).
    unix_path:
        Bind the control socket to a Unix socket path instead of TCP;
        refused together with ``port`` (see :func:`control_endpoint`).
    metrics_port:
        ``None`` disables the HTTP endpoint; ``0`` binds an ephemeral
        port (see :attr:`metrics_address`).
    tick_interval:
        Wall-clock seconds between engine slices while work exists.
    chaos:
        Optional :class:`~repro.service.chaos.ChaosConfig` (or a
        pre-built :class:`~repro.service.chaos.ChaosSchedule`): every
        control-socket *response* consults the schedule and may be
        swallowed, delayed, corrupted, or replaced by a disconnect.
        Faults hit only the wire — the service already processed the
        request, which is exactly the at-least-once world idempotency
        tokens exist for.
    """

    def __init__(
        self,
        service: SchedulingService,
        *,
        host: str = "127.0.0.1",
        port: int | None = None,
        unix_path: str | None = None,
        metrics_port: int | None = None,
        tick_interval: float = 0.002,
        chaos: ChaosConfig | ChaosSchedule | None = None,
    ) -> None:
        control_endpoint(host, port, unix_path)
        self.service = service
        if isinstance(chaos, ChaosConfig):
            chaos = ChaosSchedule(chaos) if chaos.active else None
        self.chaos: ChaosSchedule | None = chaos
        self._host = host
        self._port = port
        self._unix_path = unix_path
        self._metrics_port = metrics_port
        self._tick_interval = float(tick_interval)
        self._queue = FairSubmissionQueue()
        self._work: asyncio.Event | None = None
        self._server: asyncio.AbstractServer | None = None
        self._metrics_server: asyncio.AbstractServer | None = None
        self._tasks: list[asyncio.Task] = []
        #: set when serving is over: a drain completed or a tick raised
        self._done: asyncio.Event | None = None
        #: what a tick raised, once one did, and the reply it earns
        self._tick_exc: Exception | None = None
        self._tick_error: str | None = None
        self._stopping = False
        self.address: tuple[str, int] | str | None = None
        self.metrics_address: tuple[str, int] | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind sockets and start the dispatcher and ticker tasks."""
        if self._server is not None:
            raise ServiceError("server already started")
        self._work = asyncio.Event()
        self._done = asyncio.Event()
        if self._unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_conn, path=self._unix_path
            )
            self.address = self._unix_path
        else:
            self._server = await asyncio.start_server(
                self._handle_conn, host=self._host, port=self._port or 0
            )
            sock = self._server.sockets[0]
            self.address = sock.getsockname()[:2]
        if self._metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_http, host=self._host, port=self._metrics_port
            )
            sock = self._metrics_server.sockets[0]
            self.metrics_address = sock.getsockname()[:2]
        loop = asyncio.get_running_loop()
        self._tasks = [
            loop.create_task(self._dispatch_loop()),
            loop.create_task(self._tick_loop()),
        ]

    async def serve_until_drained(self) -> None:
        """Block until a ``drain`` request completes, then shut down.

        Raises :class:`ServiceError` when the engine stopped instead: a
        tick raised, so the service can no longer keep its promises and
        the process should exit as crashed (a watchdog then restarts it
        from its journal).
        """
        assert self._done is not None, "call start() first"
        await self._done.wait()
        # Let in-flight responses (the drain summary itself) flush
        # before the sockets go away.
        await asyncio.sleep(0.05)
        await self.stop()
        if self._tick_error is not None:
            raise ServiceError(self._tick_error) from self._tick_exc

    async def stop(self) -> None:
        """Close sockets and cancel background tasks (idempotent)."""
        self._stopping = True
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._tasks = []
        for srv in (self._server, self._metrics_server):
            if srv is not None:
                srv.close()
                await srv.wait_closed()
        self._server = None
        self._metrics_server = None
        # Reject anything still waiting in the fair queue.
        for _tenant, (_payload, fut) in self._queue.drain():
            if not fut.done():
                fut.set_result(
                    {
                        "ok": False,
                        "error": "server shut down before admission",
                        "reason": "draining",
                        "retry_after": 1,
                    }
                )

    # ------------------------------------------------------------------
    # background loops
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        """Admit queued submissions round-robin across tenants."""
        assert self._work is not None
        while True:
            await self._work.wait()
            self._work.clear()
            while self._queue:
                tenant, (payload, fut) = self._queue.pop()
                resp = self._do_submit(tenant, payload)
                if not fut.done():
                    fut.set_result(resp)
                # Yield between admissions so connections make progress
                # even under a flood of queued submissions.
                await asyncio.sleep(0)

    def _do_submit(self, tenant: str, payload: dict) -> dict:
        if self._tick_error is not None:
            return {"ok": False, "error": self._tick_error}
        # Catch broadly: one malformed payload must never kill the
        # dispatcher, or every queued submission behind it would hang.
        try:
            job = payload["job"]
            release = payload.get("release_time")
            if release is not None:
                release = _int_field(payload, "release_time", "request")
            token = payload.get("token")
            return self.service.submit(
                tenant,
                job,
                release_time=release,
                token=None if token is None else str(token),
            )
        except Exception as exc:  # noqa: BLE001 - wire-facing boundary
            return {"ok": False, "error": f"bad submit request: {exc}"}

    async def _tick_loop(self) -> None:
        """Advance the engine while admitted work exists.

        A tick that raises stops the engine for good: the error is
        recorded, every later request (``ping`` included) is answered
        ``ok: false`` with it, and :meth:`serve_until_drained` raises.
        A server whose clock has stopped never looks alive.
        """
        while not self._stopping:
            if self.service.result is None:
                try:
                    quiescent = self.service.tick()
                except Exception as exc:  # noqa: BLE001 - stop, never limp on
                    self._tick_exc = exc
                    self._tick_error = (
                        f"engine tick failed: {type(exc).__name__}: {exc}"
                    )
                    assert self._done is not None
                    self._done.set()
                    return
            else:
                quiescent = True
            # Idle (or drained) services poll slowly; busy ones fast.
            await asyncio.sleep(
                self._tick_interval * (10 if quiescent else 1)
            )

    # ------------------------------------------------------------------
    # control-socket protocol
    # ------------------------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    payload = json.loads(line)
                    if not isinstance(payload, dict):
                        raise ValueError("request must be a JSON object")
                except ValueError as exc:
                    resp = {"ok": False, "error": f"bad request: {exc}"}
                else:
                    resp = await self._handle_request(payload)
                line_out = (
                    json.dumps(resp, separators=(",", ":")).encode()
                    + b"\n"
                )
                if self.chaos is not None:
                    fault = self.chaos.next_fault()
                    if fault is not None:
                        if fault.kind == "drop":
                            continue  # the ack vanishes; client retries
                        if fault.kind == "delay":
                            await asyncio.sleep(fault.delay_s)
                        elif fault.kind == "corrupt":
                            line_out = ChaosSchedule.corrupt(
                                line_out, fault
                            )
                        elif fault.kind == "disconnect":
                            break  # close without answering
                writer.write(line_out)
                await writer.drain()
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.CancelledError,  # server shutdown mid-connection
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_request(self, payload: dict) -> dict:
        if self._tick_error is not None:
            return {"ok": False, "error": self._tick_error}
        op = payload.get("op")
        svc = self.service
        try:
            if op == "submit":
                tenant = payload.get("tenant")
                if not isinstance(tenant, str) or not tenant:
                    return {
                        "ok": False,
                        "error": "submit needs a non-empty tenant string",
                    }
                fut: asyncio.Future = (
                    asyncio.get_running_loop().create_future()
                )
                self._queue.push(tenant, (payload, fut))
                assert self._work is not None
                self._work.set()
                return await fut
            if op == "status":
                return svc.status(_int_field(payload, "job_id", "request"))
            if op == "cancel":
                return svc.cancel(_int_field(payload, "job_id", "request"))
            if op == "stats":
                return svc.stats()
            if op == "ping":
                return {"ok": True, "clock": svc.clock}
            if op == "metrics":
                return {"ok": True, "text": svc.metrics_text()}
            if op == "shards":
                if not hasattr(svc, "shards_status"):
                    return {
                        "ok": False,
                        "error": (
                            "this service is not sharded; start it with "
                            "--shards N for per-shard status"
                        ),
                    }
                return svc.shards_status()
            if op == "drain":
                return await self._do_drain()
            return {"ok": False, "error": f"unknown op {op!r}"}
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            return {"ok": False, "error": f"bad {op} request: {exc}"}

    async def _do_drain(self) -> dict:
        # Let already-queued submissions reach admission first: a drain
        # rejects everything *after* it, not racing work before it.
        while self._queue:
            await asyncio.sleep(0)
        summary = self.service.drain()
        assert self._done is not None
        self._done.set()
        return summary

    # ------------------------------------------------------------------
    # metrics endpoint
    # ------------------------------------------------------------------
    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            while True:  # drain headers up to the blank line
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.split()
            path = parts[1].decode("ascii", "replace") if len(parts) > 1 else ""
            if path.rstrip("/") == "/metrics" or path == "/":
                body = self.service.metrics_text().encode()
                status = "200 OK"
                ctype = "text/plain; version=0.0.4; charset=utf-8"
            elif path == "/healthz":
                if self._tick_error is not None:
                    health = {"ok": False, "error": self._tick_error}
                else:
                    health = self.service.health()
                body = json.dumps(health).encode() + b"\n"
                # Anything off the healthy rung answers 503 so load
                # balancers and probes act on the body's named state.
                status = (
                    "200 OK"
                    if health.get("state") == "healthy"
                    else "503 Service Unavailable"
                )
                ctype = "application/json"
            else:
                body = b"not found\n"
                status = "404 Not Found"
                ctype = "text/plain"
            writer.write(
                (
                    f"HTTP/1.0 {status}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode()
                + body
            )
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


class ThreadedServer:
    """Run a :class:`ServiceServer` on a daemon thread.

    For tests and notebooks: ``start()`` blocks until the sockets are
    bound (so :attr:`address`/:attr:`metrics_address` are usable),
    ``stop()`` shuts the loop down.  Exceptions raised during startup
    re-raise in the caller.
    """

    def __init__(self, service: SchedulingService, **server_kwargs) -> None:
        self.server = ServiceServer(service, **server_kwargs)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def address(self):
        return self.server.address

    @property
    def metrics_address(self):
        return self.server.metrics_address

    def start(self) -> "ThreadedServer":
        if self._thread is not None:
            raise ServiceError("ThreadedServer already started")
        self._thread = threading.Thread(
            target=self._run, name="krad-service", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            try:
                loop.run_until_complete(self.server.start())
            except BaseException as exc:  # startup failed: report and bail
                self._startup_error = exc
                return
            finally:
                self._started.set()
            loop.run_forever()
            loop.run_until_complete(self.server.stop())
            # Settle whatever the stop left behind (half-closed
            # connection handlers) before the loop goes away, so no
            # transport destructor fires on a closed loop.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            loop.close()

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)
        self._thread = None
        self._loop = None

    def __enter__(self) -> "ThreadedServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
