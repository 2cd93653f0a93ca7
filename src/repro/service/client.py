"""Blocking NDJSON client for the scheduling service.

:class:`ServiceClient` opens one socket (TCP ``(host, port)`` tuple or
Unix path string), sends one JSON object per line and reads one JSON
object per line — the protocol of :mod:`repro.service.server`.  It is
deliberately synchronous: experiment drivers and tests call it like a
library, and the CLI's ``krad submit``/``krad drain`` are thin wrappers
around it.

Transport failures raise :class:`~repro.errors.ServiceError`; admission
rejections do **not** — they come back as ordinary ``{"ok": false,
"reason": ..., "retry_after": ...}`` responses.
:meth:`ServiceClient.submit_blocking` turns the ``retry_after`` hint
into actual backoff for callers that just want the job admitted.

Resilience (all opt-in, wire format unchanged):

* ``retry=RetryBudget(...)`` arms :meth:`request_resilient`: transport
  failures reconnect and retry with jittered exponential backoff until
  the budget (attempts *and* wall-clock) runs dry, then raise a typed
  :class:`~repro.errors.DeadlineExceeded`.  The budget alone paces the
  retries: every attempt it charges is one request on the wire.
* Retried **submits carry an idempotency token** (a generated UUID
  unless the caller supplies one), so a retry after a lost ack is
  deduplicated server-side — at-least-once delivery on the wire,
  exactly-once admission in the engine.
* ``chaos=ChaosConfig(...)`` makes the *client side* of the wire lossy
  too (drop/delay the request, corrupt the response bytes, cut the
  connection) — the deterministic fault plan of
  :class:`~repro.service.chaos.ChaosSchedule`.
"""

from __future__ import annotations

import json
import socket
import time
import urllib.error
import urllib.request
import uuid

from repro.errors import DeadlineExceeded, ServiceError
from repro.jobs.base import Job
from repro.service.chaos import ChaosConfig, ChaosSchedule
from repro.service.resilience import RetryBudget

__all__ = ["ServiceClient", "fetch_healthz", "fetch_metrics_text"]

#: job states that end a wait()
_TERMINAL_STATES = ("completed", "failed", "quarantined", "cancelled")

#: the budget :meth:`ServiceClient.submit_blocking` waits under when the
#: client has no ``retry`` budget of its own
_SUBMIT_BLOCKING_BUDGET = RetryBudget(
    max_attempts=64,
    max_elapsed_s=64.0,
    base_backoff_s=0.01,
    max_backoff_s=1.0,
)


def _timed_out(url: str, op: str, timeout: float, exc: OSError) -> bool:
    """Did this urllib failure come from the socket deadline?

    ``urlopen(timeout=...)`` surfaces a hung endpoint either as a bare
    ``TimeoutError``/``socket.timeout`` or as a ``URLError`` wrapping
    one — unwrap before classifying.
    """
    reason = getattr(exc, "reason", exc)
    return isinstance(reason, (TimeoutError, socket.timeout))


def _raise_deadline(url: str, op: str, timeout: float, exc: OSError):
    raise DeadlineExceeded(
        f"{op} {url} exceeded its {timeout:.1f}s read deadline",
        op=op,
        attempts=1,
        elapsed=timeout,
        last_error=str(exc),
    ) from exc


def fetch_metrics_text(address: tuple[str, int], *, timeout: float = 5.0) -> str:
    """Scrape ``GET /metrics`` from a live service's HTTP endpoint.

    ``timeout`` bounds both the connect and every read: a hung endpoint
    (accepted the connection, never answers) raises a typed
    :class:`~repro.errors.DeadlineExceeded` after ``timeout`` seconds,
    so a monitoring loop can never block forever on one sick target.
    """
    host, port = address
    url = f"http://{host}:{port}/metrics"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        # A non-200 is the server *talking* (e.g. an unhealthy service's
        # 503) — name the status instead of masking it as a socket error.
        body = exc.read().decode("utf-8", "replace").strip()
        raise ServiceError(
            f"metrics endpoint {url} answered HTTP {exc.code}: "
            f"{body or exc.reason}"
        ) from exc
    except OSError as exc:
        if _timed_out(url, "fetch_metrics_text", timeout, exc):
            _raise_deadline(url, "fetch_metrics_text", timeout, exc)
        raise ServiceError(f"cannot scrape {url}: {exc}") from exc


def fetch_healthz(
    address: tuple[str, int], *, timeout: float = 5.0
) -> tuple[int, dict]:
    """``GET /healthz``: returns ``(status_code, body)`` without raising
    on 503 — an unhealthy answer is an *answer*, naming the degradation
    state in the body.  A *hung* endpoint is not an answer: after
    ``timeout`` seconds a typed :class:`~repro.errors.DeadlineExceeded`
    is raised instead of blocking the probe loop."""
    host, port = address
    url = f"http://{host}:{port}/healthz"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        try:
            doc = json.loads(exc.read().decode("utf-8"))
        except ValueError:
            doc = {}
        return exc.code, doc
    except OSError as exc:
        if _timed_out(url, "fetch_healthz", timeout, exc):
            _raise_deadline(url, "fetch_healthz", timeout, exc)
        raise ServiceError(f"cannot probe {url}: {exc}") from exc


class ServiceClient:
    """One blocking connection to a running :class:`ServiceServer`.

    ``address`` is a ``(host, port)`` tuple for TCP or a string path
    for a Unix socket.  Usable as a context manager.

    Parameters
    ----------
    timeout:
        Socket timeout per wire read/write, seconds.
    retry:
        Optional :class:`~repro.service.resilience.RetryBudget`: arms
        transparent reconnect-and-retry (plus idempotency tokens on
        submits) for every operation routed through
        :meth:`request_resilient`.
    chaos:
        Optional client-side :class:`~repro.service.chaos.ChaosConfig`
        (or a shared :class:`~repro.service.chaos.ChaosSchedule`):
        requests may be dropped or delayed before sending, the
        connection cut, or the response bytes corrupted after reading.
    """

    def __init__(
        self,
        address: tuple[str, int] | list | str,
        *,
        timeout: float = 30.0,
        retry: RetryBudget | None = None,
        chaos: ChaosConfig | ChaosSchedule | None = None,
    ) -> None:
        self.address = address
        self.timeout = float(timeout)
        self.retry = retry
        if isinstance(chaos, ChaosConfig):
            chaos = ChaosSchedule(chaos) if chaos.active else None
        self.chaos: ChaosSchedule | None = chaos
        self._sock = None
        self._file = None
        try:
            self._connect()
        except ServiceError:
            if retry is None:
                raise
            # a retry-armed client tolerates a down server at dial time
            # (mid-outage construction): every request dials while no
            # connection is open, so the budget decides when to give up

    def _connect(self) -> None:
        try:
            if isinstance(self.address, str):
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self.timeout)
                sock.connect(self.address)
            else:
                host, port = self.address
                sock = socket.create_connection(
                    (host, int(port)), timeout=self.timeout
                )
        except OSError as exc:
            raise ServiceError(
                f"cannot connect to service at {self.address!r}: {exc}"
            ) from exc
        self._sock = sock
        self._file = sock.makefile("rwb")

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def request(self, payload: dict) -> dict:
        """Send one request object, return its response object.

        Dials first when no connection is open (the constructor's dial
        failed under a ``retry`` budget, or the connection was closed).
        """
        if self._file is None:
            self._connect()
        if self.chaos is not None:
            fault = self.chaos.next_fault()
            if fault is not None:
                if fault.kind == "drop":
                    # The request never reaches the wire — to the caller
                    # that is indistinguishable from a lost packet.
                    raise ServiceError(
                        f"chaos: request dropped ({fault.describe()})"
                    )
                if fault.kind == "disconnect":
                    self.close()
                    raise ServiceError(
                        f"chaos: connection cut ({fault.describe()})"
                    )
                if fault.kind == "delay":
                    time.sleep(fault.delay_s)
        try:
            self._file.write(
                json.dumps(payload, separators=(",", ":")).encode() + b"\n"
            )
            self._file.flush()
            line = self._file.readline()
        except OSError as exc:
            raise ServiceError(
                f"service connection to {self.address!r} failed: {exc}"
            ) from exc
        if not line:
            raise ServiceError(
                f"service at {self.address!r} closed the connection"
            )
        if (
            self.chaos is not None
            and fault is not None
            and fault.kind == "corrupt"
        ):
            line = ChaosSchedule.corrupt(line, fault)
        try:
            resp = json.loads(line)
        except ValueError as exc:
            raise ServiceError(
                f"malformed response from service: {exc}"
            ) from exc
        if not isinstance(resp, dict):
            raise ServiceError("malformed response from service: not an object")
        return resp

    def request_resilient(self, op: str, payload: dict) -> dict:
        """One request under the retry budget.

        Each attempt charges the budget and sends (:meth:`request` dials
        when the socket is closed); a transport failure
        (:class:`ServiceError` from the wire) closes the socket and backs
        off.  When the budget runs dry the next charge raises a typed
        :class:`~repro.errors.DeadlineExceeded`.  Admission rejections
        come back verbatim — they are answers, not failures.  Without a
        ``retry`` budget this is plain :meth:`request`.
        """
        if self.retry is None:
            return self.request(payload)
        session = self.retry.session(op)
        while True:
            session.charge()
            try:
                return self.request(payload)
            except ServiceError as exc:
                # Always tear the socket down: after a timeout or a lost
                # response the stream may hold a stale reply, and reusing
                # it would desynchronise every later request/response pair.
                self.close()
                session.backoff(last_error=str(exc))

    def close(self) -> None:
        if self._file is None:
            return
        try:
            self._file.close()
        except OSError:
            pass
        finally:
            try:
                self._sock.close()
            except OSError:
                pass
            self._file = None
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def submit(
        self,
        tenant: str,
        job: Job | dict,
        *,
        release_time: int | None = None,
        token: str | None = None,
    ) -> dict:
        """Submit one job; returns the ack or rejection verbatim.

        With a ``retry`` budget armed the submit goes through
        :meth:`request_resilient` under an idempotency ``token`` (a
        generated UUID unless supplied), so transport retries can never
        double-admit; without one it is a single bare request.
        """
        if isinstance(job, Job):
            from repro.io.serialize import job_to_dict

            job = job_to_dict(job)
        payload: dict = {"op": "submit", "tenant": tenant, "job": job}
        if release_time is not None:
            payload["release_time"] = int(release_time)
        if token is None and self.retry is not None:
            token = uuid.uuid4().hex
        if token is not None:
            payload["token"] = str(token)
        return self.request_resilient("submit", payload)

    def submit_blocking(
        self,
        tenant: str,
        job: Job | dict,
        *,
        release_time: int | None = None,
        token: str | None = None,
    ) -> dict:
        """Submit and honour ``retry_after`` until admitted — bounded.

        Retries rejections under the client's ``retry`` budget, or
        without one under a module default (64 attempts, 0.01 s base
        backoff), so the wait is always bounded: when the budget runs
        dry a typed :class:`~repro.errors.DeadlineExceeded` carrying
        attempts and elapsed time is raised instead of spinning forever.
        A ``draining`` or ``shard-failed`` rejection is terminal and
        raises :class:`ServiceError` immediately.
        """
        budget = self.retry or _SUBMIT_BLOCKING_BUDGET
        if token is None:
            token = uuid.uuid4().hex
        session = budget.session("submit_blocking")
        while True:
            session.charge()
            last = self.submit(
                tenant, job, release_time=release_time, token=token
            )
            if last.get("ok"):
                return last
            if last.get("reason") in ("draining", "shard-failed"):
                raise ServiceError(
                    f"submission for tenant {tenant!r} not admitted: "
                    f"{last.get('reason')}: {last.get('error')}"
                )
            session.backoff(
                retry_after=last.get("retry_after"),
                last_error=f"{last.get('reason')}: {last.get('error')}",
            )

    def status(self, job_id: int) -> dict:
        return self.request_resilient(
            "status", {"op": "status", "job_id": int(job_id)}
        )

    def cancel(self, job_id: int) -> dict:
        return self.request_resilient(
            "cancel", {"op": "cancel", "job_id": int(job_id)}
        )

    def stats(self) -> dict:
        return self.request_resilient("stats", {"op": "stats"})

    def ping(self) -> dict:
        return self.request_resilient("ping", {"op": "ping"})

    def shards_status(self) -> dict:
        """Per-shard health/routing snapshot (sharded services only)."""
        return self.request_resilient("shards", {"op": "shards"})

    def metrics_text(self) -> str:
        resp = self.request_resilient("metrics", {"op": "metrics"})
        if not resp.get("ok"):
            raise ServiceError(f"metrics op failed: {resp.get('error')}")
        return resp["text"]

    def drain(self) -> dict:
        """Request drain; blocks until the backlog ran to completion.

        Never routed through the retry loop: a drain that timed out on
        the wire may still complete server-side, and blindly re-sending
        it is harmless (drain is idempotent) but re-awaiting the full
        backlog doubles the wait — callers own that decision.
        """
        return self.request({"op": "drain"})

    def wait(
        self,
        job_id: int,
        *,
        poll: float = 0.01,
        timeout: float = 60.0,
    ) -> dict:
        """Poll ``status`` until the job reaches a terminal state."""
        deadline = time.monotonic() + timeout
        while True:
            resp = self.status(job_id)
            if not resp.get("ok"):
                return resp
            if resp.get("state") in _TERMINAL_STATES:
                return resp
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"timed out waiting for job {job_id} "
                    f"(last state {resp.get('state')!r})"
                )
            time.sleep(poll)
