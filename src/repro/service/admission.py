"""Admission control: quotas, backpressure, certificate-aware shedding.

Every submission is judged *before* it reaches the engine, in a fixed
order of gates:

1. **draining** — the service no longer admits work;
2. **queue-depth backpressure** — the whole service holds too many
   unfinished jobs (``max_in_flight``);
3. **per-tenant quota** — one tenant holds too many unfinished jobs
   (``tenant_quota``);
4. **Theorem-3 certificate load shedding** (optional) — admitting the
   job would push the *certified* completion horizon of the backlog
   past ``shed_horizon``.

The certificate gate is the interesting one: Theorem 3 holds for
arbitrary release times, so at any instant the current backlog —
remaining work ``W_alpha`` per category plus the largest remaining
(release slack + span) — carries a Lemma-2-style completion guarantee
measured from *now*::

    horizon  <=  sum_alpha W_alpha / P_alpha  +  (1 - 1/Pmax) * span_term

A service that sheds whenever ``horizon > shed_horizon`` therefore
promises every job it *does* admit a certified finish time, instead of
an unbounded queue — admission control derived from the paper's bound
rather than from an arbitrary queue length.

Rejections are ordinary decisions, not errors: every one carries a
machine-readable ``reason`` code (one of :data:`REASON_CODES`) and a
``retry_after`` hint in virtual steps, ``>= 1`` always, so clients can
implement blind backoff without parsing prose.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ServiceError

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "REASON_CODES",
    "RejectionReason",
    "theorem3_certificate",
]


class RejectionReason(str, enum.Enum):
    """Every machine-readable reason code a rejection may carry.

    The single source of truth for the wire vocabulary: admission
    decisions validate against it, docs/SERVICE.md's fault matrix is
    tested against it, and clients can match on the enum instead of
    string literals.  Values are the wire strings (``str`` subclass, so
    ``RejectionReason.DRAINING == "draining"``).
    """

    DRAINING = "draining"
    BACKPRESSURE = "backpressure"
    TENANT_QUOTA = "tenant-quota"
    LOAD_SHED = "load-shed"
    #: terminal: the shard could not be rebuilt and will not come back
    #: in this process — the only reason that carries no
    #: ``retry_after``, because an honest hint cannot exist for it
    SHARD_FAILED = "shard-failed"


#: the reason codes as wire strings, in declaration order
REASON_CODES = tuple(r.value for r in RejectionReason)


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check.

    ``accepted`` decisions carry no reason; rejected ones always carry a
    ``reason`` from :data:`REASON_CODES`, a ``retry_after`` hint in
    virtual steps (``>= 1``), and a human-readable ``detail``.
    """

    accepted: bool
    reason: str | None = None
    retry_after: int | None = None
    detail: str = ""

    def __post_init__(self) -> None:
        if self.accepted:
            if self.reason is not None or self.retry_after is not None:
                raise ServiceError(
                    "accepted decisions carry no reason/retry_after"
                )
        else:
            if self.reason not in REASON_CODES:
                raise ServiceError(
                    f"rejection reason {self.reason!r} is not one of "
                    f"{REASON_CODES}"
                )
            if self.retry_after is None or self.retry_after < 1:
                raise ServiceError(
                    f"rejections must carry retry_after >= 1, got "
                    f"{self.retry_after!r}"
                )

    def to_dict(self) -> dict:
        if self.accepted:
            return {"accepted": True}
        return {
            "accepted": False,
            "reason": self.reason,
            "retry_after": int(self.retry_after),
            "detail": self.detail,
        }


def theorem3_certificate(
    backlog_vector, backlog_span: int, capacities, pmax: int
) -> float:
    """Certified completion horizon of a backlog, in virtual steps.

    The Lemma-2 bound measured from the current instant: squashed work
    per category plus the span term, with ``backlog_span`` already the
    worst ``release-slack + remaining-span`` over the backlog.  An
    empty backlog certifies 0.
    """
    caps = np.asarray(capacities, dtype=np.float64)
    work = np.asarray(backlog_vector, dtype=np.float64)
    if caps.shape != work.shape:
        raise ServiceError(
            f"backlog K={work.shape} does not match capacities "
            f"K={caps.shape}"
        )
    work_term = float((work / caps).sum())
    span_term = (1.0 - 1.0 / pmax) * float(backlog_span)
    return work_term + span_term


class AdmissionController:
    """Stateless policy object: counts in, :class:`AdmissionDecision` out.

    Parameters
    ----------
    tenant_quota:
        Max unfinished (pending + running + retrying) jobs one tenant
        may hold; ``>= 1``.
    max_in_flight:
        Max unfinished jobs across all tenants; ``>= 1``.
    retry_after:
        Base backoff hint (virtual steps) attached to quota and
        backpressure rejections; ``>= 1``.
    shed_horizon:
        Optional Theorem-3 load-shedding threshold (virtual steps): a
        submission whose admission would certify a completion horizon
        beyond this is shed.  ``None`` disables the gate.
    """

    def __init__(
        self,
        *,
        tenant_quota: int = 8,
        max_in_flight: int = 64,
        retry_after: int = 8,
        shed_horizon: int | None = None,
    ) -> None:
        if tenant_quota < 1:
            raise ServiceError(
                f"tenant_quota must be >= 1, got {tenant_quota}"
            )
        if max_in_flight < 1:
            raise ServiceError(
                f"max_in_flight must be >= 1, got {max_in_flight}"
            )
        if retry_after < 1:
            raise ServiceError(
                f"retry_after must be >= 1, got {retry_after}"
            )
        if shed_horizon is not None and shed_horizon < 1:
            raise ServiceError(
                f"shed_horizon must be >= 1, got {shed_horizon}"
            )
        self.tenant_quota = int(tenant_quota)
        self.max_in_flight = int(max_in_flight)
        self.retry_after = int(retry_after)
        self.shed_horizon = (
            None if shed_horizon is None else int(shed_horizon)
        )

    def decide(
        self,
        tenant: str,
        *,
        tenant_in_flight: int,
        total_in_flight: int,
        draining: bool = False,
        certificate: float | None = None,
    ) -> AdmissionDecision:
        """Judge one submission against the gates, in order.

        ``certificate`` is the Theorem-3 horizon *with the candidate
        job included* (see :func:`theorem3_certificate`); it is only
        consulted when the shedding gate is armed, and for the hint of a
        ``draining`` rejection.
        """
        if draining:
            # Nothing will be admitted again; hint the time the backlog
            # is certified to clear, when known — a client talking to a
            # fleet can retry against a replacement after that long.
            hint = (
                max(1, math.ceil(certificate))
                if certificate is not None
                else self.retry_after
            )
            return AdmissionDecision(
                accepted=False,
                reason="draining",
                retry_after=hint,
                detail="service is draining; no further admissions",
            )
        if total_in_flight >= self.max_in_flight:
            return AdmissionDecision(
                accepted=False,
                reason="backpressure",
                retry_after=self.retry_after,
                detail=(
                    f"{total_in_flight} jobs in flight >= service "
                    f"limit {self.max_in_flight}"
                ),
            )
        if tenant_in_flight >= self.tenant_quota:
            return AdmissionDecision(
                accepted=False,
                reason="tenant-quota",
                retry_after=self.retry_after,
                detail=(
                    f"tenant {tenant!r} holds {tenant_in_flight} jobs "
                    f">= quota {self.tenant_quota}"
                ),
            )
        if (
            self.shed_horizon is not None
            and certificate is not None
            and certificate > self.shed_horizon
        ):
            # Retry once enough certified work has left the backlog.
            overshoot = math.ceil(certificate - self.shed_horizon)
            return AdmissionDecision(
                accepted=False,
                reason="load-shed",
                retry_after=max(1, overshoot),
                detail=(
                    f"admission would certify a {certificate:.1f}-step "
                    f"completion horizon > shed_horizon "
                    f"{self.shed_horizon}"
                ),
            )
        return AdmissionDecision(accepted=True)
