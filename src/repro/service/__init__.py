"""repro.service — a long-running online scheduling service.

The batch pipeline answers "how long would this job set take?"; this
package answers "what happens when the jobs arrive *while the machine
runs*?".  It wraps a live simulator (reference or fast engine) behind a
small daemon with:

* **admission control** (:mod:`repro.service.admission`): per-tenant
  quotas, whole-service backpressure, and optional load shedding driven
  by a Theorem-3 completion certificate — every rejection carries a
  machine-readable reason and a ``retry_after`` hint;
* **multi-tenant fairness** (:mod:`repro.service.queue`): racing
  submissions are admitted round-robin across tenants;
* **durability**: with a journal armed, every ack is crash-safe —
  ``SchedulingService.recover`` rebuilds the exact pre-crash engine
  state *and* the tenant accounting from the write-ahead journal;
* **live telemetry**: a ``/metrics`` HTTP endpoint and per-submission
  bus events, on the observability layer the batch pipeline already
  uses;
* **resilience** (:mod:`repro.service.resilience` +
  :mod:`repro.service.chaos`): client retry budgets with typed
  deadlines, idempotency-token submit dedupe (exactly-once admission
  over a lossy wire), a service state (healthy, degraded, draining)
  surfaced through ``/healthz`` and metrics, a watchdog supervisor
  that restarts a crashed or hung server through digest-verified
  journal recovery, and a deterministic chaos transport to prove all
  of it under seeded network faults;
* **sharding** (:mod:`repro.service.shard` +
  :mod:`repro.service.router`): N per-shard services behind
  consistent-hash tenant routing with a journaled routing table and a
  global allotter splitting the K-category pool into fixed per-shard
  slices.  A shard whose tick raises is rebuilt from its own journal;
  one that cannot be rebuilt is failed and its tenants move to the
  survivors.  A crashed or hung fleet process is the watchdog's
  (``krad serve --supervised --shards N``): every shard recovers from
  its own journal.

:class:`~repro.service.core.SchedulingService` is the in-process core;
:class:`~repro.service.server.ServiceServer` puts it on a socket;
:class:`~repro.service.client.ServiceClient` talks to it.  The CLI
front ends are ``krad serve`` / ``krad submit`` / ``krad drain`` /
``krad shards status``.
"""

from repro.service.admission import (
    REASON_CODES,
    AdmissionController,
    AdmissionDecision,
    RejectionReason,
    theorem3_certificate,
)
from repro.service.chaos import ChaosConfig, ChaosFault, ChaosSchedule
from repro.service.client import (
    ServiceClient,
    fetch_healthz,
    fetch_metrics_text,
)
from repro.service.core import SchedulingService, ServiceConfig
from repro.service.queue import FairSubmissionQueue
from repro.service.resilience import (
    SERVICE_STATES,
    SHARD_STATES,
    RetryBudget,
    RetrySession,
    Watchdog,
    service_state_code,
    shard_state_code,
)
from repro.service.router import (
    ConsistentHashRing,
    RoutingTable,
    ShardedClient,
)
from repro.service.server import ServiceServer, ThreadedServer
from repro.service.shard import (
    GlobalAllotter,
    ShardSlot,
    ShardSupervisor,
    ShardedSchedulingService,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "ChaosConfig",
    "ChaosFault",
    "ChaosSchedule",
    "ConsistentHashRing",
    "FairSubmissionQueue",
    "GlobalAllotter",
    "REASON_CODES",
    "RejectionReason",
    "RetryBudget",
    "RetrySession",
    "RoutingTable",
    "SERVICE_STATES",
    "SHARD_STATES",
    "SchedulingService",
    "ServiceClient",
    "ServiceConfig",
    "ServiceServer",
    "ShardSlot",
    "ShardSupervisor",
    "ShardedClient",
    "ShardedSchedulingService",
    "ThreadedServer",
    "Watchdog",
    "fetch_healthz",
    "fetch_metrics_text",
    "service_state_code",
    "shard_state_code",
    "theorem3_certificate",
]
