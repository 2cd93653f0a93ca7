"""Sharded multi-tenant serving: N engines, one blast radius each.

Two-level scheduling in the sense of *Scalable Hierarchical Scheduling
for Malleable Parallel Jobs* (Cao/Sun/Qian/Wu): a :class:`GlobalAllotter`
divides the K-category processor pool across N shards, each shard runs
the full single-service stack — its own
:class:`~repro.service.core.SchedulingService`, engine, admission
controller and write-ahead journal — and local K-RAD inside each shard
preserves allotment feasibility against that shard's slice.  Tenants are
partitioned across shards by the consistent-hash routing of
:mod:`repro.service.router`, so each tenant's jobs form one coherent
per-shard computation: a fault-free N-shard run is *digest-identical,
per tenant*, to N independent single-shard runs (the sliced conformance
suite asserts this literally).

The robustness core is the :class:`ShardSupervisor`:

* **detect** — each supervisor tick it health-checks every serving
  shard: missed liveness probes (hangs), journal append latency
  (dying disks), and exception escapes out of the shard's tick;
* **quarantine** — a failing shard stops being ticked and its tenants'
  submissions are refused with reason ``shard-recovering`` +
  ``retry_after``; *no other shard is touched* — their engines never
  observe the fault, so their digests are unchanged by construction;
* **recover** — quarantined shards replay their per-shard journal
  through the digest-verified
  :meth:`~repro.service.core.SchedulingService.recover` path; a replay
  that verifies returns the shard to ``serving``;
* **fail over** — when recovery misses its deadline
  (:class:`~repro.service.resilience.ShardHealthPolicy`), the shard's
  tenants are re-routed to the surviving shards (one journaled routing
  record) and the global allotter re-splits capacity across the
  survivors.  The re-split is **accounting-plane only**: surviving
  shards' live engines keep the machine they were built with (mutating
  them would change their digests, breaking both the conformance
  guarantee and the isolation contract); the new split governs
  telemetry, ``shards status`` and the capacity any *replacement* shard
  would be built with.

Every shard transition is journaled into telemetry: a
``shard_state_change`` event, the ``service_shard_state`` /
``service_shard_state_info`` gauges, and per-shard ``service_*``
families (the single-service metrics re-labelled with ``shard="i"``)
aggregate into one scrapeable ``/metrics``; ``/healthz`` names the
sickest shard.
"""

from __future__ import annotations

import dataclasses
import os

from repro.errors import ServiceError
from repro.jobs.base import Job
from repro.obs import MetricsRegistry, Observability, get_default_obs
from repro.service.core import SchedulingService, ServiceConfig
from repro.service.resilience import (
    SERVICE_STATES,
    SHARD_STATES,
    ShardHealthPolicy,
    service_state_code,
    shard_state_code,
)
from repro.service.router import RoutingTable

__all__ = [
    "GlobalAllotter",
    "ShardSlot",
    "ShardSupervisor",
    "ShardedSchedulingService",
]


class GlobalAllotter:
    """Top-level allotter: split the K-category pool across shards.

    :meth:`split` deals each category's ``P_alpha`` processors across
    ``num_shards`` as evenly as integers allow (lower-indexed shards
    absorb the remainder), so the shard capacity vectors sum exactly to
    the pool.  :meth:`resplit` recomputes that split over an arbitrary
    set of surviving shards after a failover — same dealing rule, fewer
    hands.
    """

    def __init__(self, capacities, num_shards: int) -> None:
        caps = tuple(int(c) for c in capacities)
        if num_shards < 1:
            raise ServiceError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        for alpha, cap in enumerate(caps):
            if cap < num_shards:
                raise ServiceError(
                    f"category {alpha} has {cap} processors, fewer than "
                    f"{num_shards} shards — every shard needs >= 1 "
                    "processor per category"
                )
        self.capacities = caps
        self.num_shards = int(num_shards)

    def split(self) -> tuple[tuple[int, ...], ...]:
        """Per-shard capacity vectors for the full shard set."""
        resplit = self.resplit(range(self.num_shards))
        return tuple(resplit[i] for i in range(self.num_shards))

    def resplit(self, live) -> dict[int, tuple[int, ...]]:
        """Per-shard capacity vectors over the ``live`` shards only.

        Deterministic in the live set: shard order is ascending index,
        remainders go to the lowest-indexed survivors.
        """
        shards = sorted(set(int(s) for s in live))
        if not shards:
            raise ServiceError("cannot split capacity over zero shards")
        m = len(shards)
        out: dict[int, list[int]] = {s: [] for s in shards}
        for cap in self.capacities:
            base, rem = divmod(cap, m)
            for j, s in enumerate(shards):
                out[s].append(base + (1 if j < rem else 0))
        return {s: tuple(v) for s, v in out.items()}


class ShardSlot:
    """One shard's supervision record: the live service plus its ladder
    position.  Mutable by design — the supervisor walks it through
    serving → quarantined → recovering → serving/failed."""

    __slots__ = (
        "index",
        "config",
        "service",
        "state",
        "reason",
        "missed_pings",
        "quarantined_at",
        "recover_attempts",
        "last_error",
        "effective_capacities",
        "state_changes",
    )

    def __init__(
        self, index: int, config: ServiceConfig, service
    ) -> None:
        self.index = int(index)
        self.config = config
        self.service: SchedulingService | None = service
        self.state = "serving"
        self.reason = ""
        self.missed_pings = 0
        #: supervisor tick at which the current quarantine began
        self.quarantined_at: int | None = None
        self.recover_attempts = 0
        self.last_error = ""
        #: accounting-plane capacity (re-split on failover; the live
        #: engine's machine is never mutated)
        self.effective_capacities = tuple(config.capacities)
        self.state_changes = 0


class ShardSupervisor:
    """Health-check, quarantine, recover and fail over N shard slots.

    Everything is counted in supervisor ticks (one
    :meth:`tick_all` pass), so the whole ladder is deterministic under a
    :class:`~repro.service.chaos.ShardChaosPlan` — the chaos tests drive
    hang, slow-journal, exception-escape and crash faults through the
    exact code paths real faults would take.
    """

    def __init__(
        self,
        slots: list[ShardSlot],
        policy: ShardHealthPolicy,
        *,
        routing: RoutingTable,
        allotter: GlobalAllotter,
        obs: Observability,
        chaos=None,
    ) -> None:
        self.slots = slots
        self.policy = policy
        self.routing = routing
        self.allotter = allotter
        self.obs = obs
        self.chaos = chaos

    @property
    def failovers(self) -> int:
        """Fleet-lifetime failover count — delegated to the routing
        table, which journals (and on restart, replays) every one."""
        return self.routing.failovers

    @property
    def failover_moves(self) -> dict[str, int]:
        """Tenants moved by failovers: ``{tenant: destination shard}``."""
        return self.routing.failover_moves

    # ------------------------------------------------------------------
    # state ladder
    # ------------------------------------------------------------------
    def _set_state(
        self, slot: ShardSlot, state: str, *, reason: str, tick: int
    ) -> None:
        if state == slot.state:
            return
        prev, slot.state = slot.state, state
        slot.reason = reason
        slot.state_changes += 1
        self.obs.on_shard_state_change(
            tick, shard=slot.index, state=state, prev=prev, reason=reason
        )

    def quarantine(
        self, slot: ShardSlot, reason: str, tick: int
    ) -> None:
        """Pull one shard out of service; the others are untouched."""
        slot.quarantined_at = tick
        slot.recover_attempts = 0
        slot.missed_pings = 0
        self._set_state(slot, "quarantined", reason=reason, tick=tick)

    # ------------------------------------------------------------------
    # the supervision pass
    # ------------------------------------------------------------------
    def tick_all(self, tick: int) -> bool:
        """One supervision pass: drive healthy shards, judge the rest.

        Returns True when every *serving* shard is quiescent (no
        admitted work left to run) — the signal the serving loop uses to
        idle down.  Quarantined/recovering shards count as non-quiescent
        (there is recovery work pending); failed shards count as
        quiescent (nothing will ever be driven again).
        """
        all_quiescent = True
        for slot in self.slots:
            if slot.state == "failed":
                continue
            if slot.state in ("quarantined", "recovering"):
                self._try_recover(slot, tick)
                if slot.state != "serving":
                    all_quiescent = False
                continue
            fault = (
                self.chaos.fault_for(slot.index, tick)
                if self.chaos is not None
                else None
            )
            if fault is not None and fault.kind == "crash":
                # The live object dies; its journal is the survivor.
                slot.service = None
                slot.last_error = "chaos: shard object crashed"
                self.quarantine(slot, "crash", tick)
                all_quiescent = False
                continue
            if fault is not None and fault.kind == "hang":
                # A hung shard neither ticks nor answers probes.
                slot.missed_pings += 1
                all_quiescent = False
                if slot.missed_pings >= self.policy.missed_pings:
                    slot.last_error = (
                        f"{slot.missed_pings} consecutive missed pings"
                    )
                    self.quarantine(slot, "hang", tick)
                continue
            latency = (
                fault.magnitude
                if fault is not None and fault.kind == "slow-journal"
                else slot.service.journal_latency_s()
            )
            if latency >= self.policy.journal_quarantine_s:
                slot.last_error = (
                    f"journal append latency {latency:.3f}s >= "
                    f"{self.policy.journal_quarantine_s:.3f}s"
                )
                self.quarantine(slot, "slow-journal", tick)
                all_quiescent = False
                continue
            try:
                if fault is not None and fault.kind == "exception":
                    raise ServiceError(
                        "chaos: injected exception escape from shard tick"
                    )
                quiescent = slot.service.tick()
            except Exception as exc:  # noqa: BLE001 - escape = quarantine
                slot.last_error = str(exc)
                self.quarantine(slot, "exception", tick)
                all_quiescent = False
                continue
            if slot.service.ping():
                slot.missed_pings = 0
            else:
                slot.missed_pings += 1
                if slot.missed_pings >= self.policy.missed_pings:
                    slot.last_error = (
                        f"{slot.missed_pings} consecutive missed pings"
                    )
                    self.quarantine(slot, "hang", tick)
                    all_quiescent = False
                    continue
            all_quiescent = all_quiescent and quiescent
        return all_quiescent

    # ------------------------------------------------------------------
    # recovery and failover
    # ------------------------------------------------------------------
    def _fault_active(self, slot: ShardSlot, tick: int) -> bool:
        if self.chaos is None:
            return False
        fault = self.chaos.fault_for(slot.index, tick)
        # An expired crash window is not "active": the damage is the
        # dead object, which only recovery can undo.
        return fault is not None and fault.kind != "crash"

    def _try_recover(self, slot: ShardSlot, tick: int) -> None:
        """One recovery attempt for a quarantined shard.

        Journaled shards replay digest-verified; journal-less shards can
        only heal from transient faults (the live object survived).
        Missing the policy deadline — or exhausting replay attempts —
        fails the shard over.
        """
        self._set_state(
            slot, "recovering", reason=slot.reason, tick=tick
        )
        if self._fault_active(slot, tick):
            # The fault window is still open: recovery would be undone
            # immediately.  Burn deadline, not replay attempts.
            self._check_deadline(slot, tick)
            return
        journal = slot.config.journal_path
        if journal is not None and os.path.exists(journal) and (
            os.path.getsize(journal) > 0
        ):
            old = slot.service
            try:
                svc = SchedulingService.recover(
                    slot.config, obs=Observability()
                )
            except Exception as exc:  # noqa: BLE001 - corrupt journal etc.
                slot.recover_attempts += 1
                slot.last_error = f"journal replay failed: {exc}"
                self._check_deadline(slot, tick)
                return
            if old is not None:
                # Retire the superseded object's journal handle so the
                # recovered service is the only appender.
                j = getattr(old.simulator, "_journal", None)
                close = getattr(j, "close", None)
                if close is not None:
                    try:
                        close()
                    except Exception:  # noqa: BLE001 - best effort
                        pass
            slot.service = svc
            slot.missed_pings = 0
            slot.quarantined_at = None
            self._set_state(
                slot, "serving", reason="journal replay verified",
                tick=tick,
            )
            return
        if slot.service is not None and slot.service.ping():
            # Transient fault on a journal-less shard: the live object
            # survived and answers again.
            slot.missed_pings = 0
            slot.quarantined_at = None
            self._set_state(
                slot, "serving", reason="probe recovered", tick=tick
            )
            return
        slot.recover_attempts += 1
        slot.last_error = (
            slot.last_error or "no journal and the live object is gone"
        )
        self._check_deadline(slot, tick)

    def _check_deadline(self, slot: ShardSlot, tick: int) -> None:
        overdue = (
            slot.quarantined_at is not None
            and tick - slot.quarantined_at
            >= self.policy.recovery_deadline_ticks
        )
        exhausted = (
            slot.recover_attempts >= self.policy.max_recover_attempts
        )
        if overdue or exhausted:
            self.fail_over(
                slot,
                tick,
                why=(
                    "recovery deadline missed" if overdue
                    else "recovery attempts exhausted"
                ),
            )

    def fail_over(self, slot: ShardSlot, tick: int, *, why: str) -> None:
        """Give up on one shard: move its tenants, re-split capacity.

        The routing move is one journaled record (all-or-nothing on
        recovery); the capacity re-split is accounting-plane only — no
        surviving engine's machine is touched, so no surviving digest
        changes.
        """
        live = [
            s.index
            for s in self.slots
            if s.state != "failed" and s.index != slot.index
        ]
        if not live:
            # Nowhere to move tenants: the shard is failed, full stop.
            self._set_state(
                slot, "failed", reason=f"{why}; no surviving shards",
                tick=tick,
            )
            return
        moves = self.routing.fail_over(slot.index)
        resplit = self.allotter.resplit(live)
        for other in self.slots:
            if other.index in resplit:
                other.effective_capacities = resplit[other.index]
        slot.effective_capacities = tuple(
            0 for _ in self.allotter.capacities
        )
        self._set_state(
            slot,
            "failed",
            reason=f"{why}; {len(moves)} tenants failed over",
            tick=tick,
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def sickest(self) -> ShardSlot:
        """The shard in the worst supervision state (ties: lowest index)."""
        return max(
            self.slots, key=lambda s: (shard_state_code(s.state), -s.index)
        )


class ShardedSchedulingService:
    """N per-shard services behind one routed, supervised front.

    Mirrors the :class:`~repro.service.core.SchedulingService` surface
    (``submit``/``status``/``cancel``/``stats``/``drain``/``tick``/
    ``health``/``metrics_text``/``result``/``clock``), so
    :class:`~repro.service.server.ServiceServer` serves either
    transparently.  Ids on this surface are *global*:
    ``global_id = local_id * num_shards + shard`` — dense within a
    shard, collision-free across shards, reversible without a lookup.

    Parameters
    ----------
    config:
        The *global* :class:`ServiceConfig`: its ``capacities`` are the
        whole pool (split across shards by the
        :class:`GlobalAllotter`); its ``journal_path``, when set, is the
        base path — shard ``i`` journals at ``<base>.shard<i>`` and the
        routing table at ``<base>.routing``, so one flag arms durable
        recovery for the whole fleet.  ``trace_path`` is refused: a
        trace records one engine's stream.  Every other field applies
        per-shard verbatim.
    num_shards:
        How many shards to run.
    policy:
        The :class:`~repro.service.resilience.ShardHealthPolicy`
        (defaults apply when omitted).
    chaos:
        Optional :class:`~repro.service.chaos.ShardChaosPlan` of
        shard-targeted fault windows (tests, drills).
    """

    def __init__(
        self,
        config: ServiceConfig,
        num_shards: int,
        *,
        obs: Observability | None = None,
        policy: ShardHealthPolicy | None = None,
        chaos=None,
        replicas: int = 64,
    ) -> None:
        if num_shards < 1:
            raise ServiceError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        if config.trace_path is not None:
            raise ServiceError(
                "trace_path records one engine's submission stream; a "
                "sharded service runs one engine per shard"
            )
        self.config = config
        self.num_shards = int(num_shards)
        if obs is None:
            obs = get_default_obs()
        if obs is None:
            obs = Observability()
        self.obs = obs
        self.allotter = GlobalAllotter(config.capacities, num_shards)
        splits = self.allotter.split()
        routing_path = (
            f"{config.journal_path}.routing"
            if config.journal_path is not None
            else None
        )
        if routing_path is not None and os.path.exists(routing_path) and (
            os.path.getsize(routing_path) > 0
        ):
            self.routing = RoutingTable.load(
                routing_path, fsync=config.fsync
            )
            if self.routing.num_shards != self.num_shards:
                raise ServiceError(
                    f"routing journal {routing_path!r} was written for "
                    f"{self.routing.num_shards} shards, not "
                    f"{self.num_shards}"
                )
        else:
            self.routing = RoutingTable(
                self.num_shards,
                journal_path=routing_path,
                replicas=replicas,
                fsync=config.fsync,
            )
        slots: list[ShardSlot] = []
        for i in range(self.num_shards):
            shard_config = dataclasses.replace(
                config,
                capacities=splits[i],
                journal_path=(
                    f"{config.journal_path}.shard{i}"
                    if config.journal_path is not None
                    else None
                ),
            )
            if i in self.routing.dead:
                slots.append(self._reopen_dead(i, shard_config))
                continue
            # open() is the idempotent entry point: fresh boot on an
            # absent journal, digest-verified recovery on a present one
            # — the same property the per-shard restart path leans on.
            service = SchedulingService.open(
                shard_config, obs=Observability()
            )
            slots.append(ShardSlot(i, shard_config, service))
        self.slots = slots
        self.supervisor = ShardSupervisor(
            slots,
            policy if policy is not None else ShardHealthPolicy(),
            routing=self.routing,
            allotter=self.allotter,
            obs=obs,
            chaos=chaos,
        )
        # A restart that left shards failed must keep the accounting
        # plane in step with the routing state: re-split over the
        # survivors, zero the failed — otherwise telemetry and `shards
        # status` would report the full even split for a shard that
        # serves nothing.
        live = [s.index for s in slots if s.state != "failed"]
        if len(live) < self.num_shards:
            resplit = self.allotter.resplit(live)
            zero = tuple(0 for _ in self.allotter.capacities)
            for s in slots:
                s.effective_capacities = resplit.get(s.index, zero)
        self._tick_index = 0
        self._rejected = 0
        self._draining = False
        self._result: dict | None = None

    def _reopen_dead(
        self, index: int, shard_config: ServiceConfig
    ) -> ShardSlot:
        """Rebuild one shard the loaded routing table marks dead.

        A journal that replays cleanly revives the shard (a journaled
        ``revive`` record: new tenants may hash to it again, while
        failed-over tenants keep their explicit routes).  Anything else
        leaves the slot ``failed`` — telemetry and ``shards status``
        keep reporting the failover instead of pretending the fleet
        came back whole.
        """
        journal = shard_config.journal_path
        service = None
        error = ""
        if journal is not None and os.path.exists(journal) and (
            os.path.getsize(journal) > 0
        ):
            try:
                service = SchedulingService.open(
                    shard_config, obs=Observability()
                )
            except Exception as exc:  # noqa: BLE001 - corrupt journal etc.
                error = f"journal replay failed on restart: {exc}"
        else:
            error = "no journal to recover from"
        slot = ShardSlot(index, shard_config, service)
        if service is not None:
            self.routing.revive(index)
            slot.reason = "journal replay verified on restart"
        else:
            slot.state = "failed"
            slot.reason = "failed over before restart; not recoverable"
            slot.last_error = error
        return slot

    @classmethod
    def open(
        cls, config: ServiceConfig, num_shards: int, **kwargs
    ) -> "ShardedSchedulingService":
        """Alias of the constructor — construction already recovers any
        shard whose journal exists, mirroring
        :meth:`SchedulingService.open`."""
        return cls(config, num_shards, **kwargs)

    # ------------------------------------------------------------------
    # id scheme
    # ------------------------------------------------------------------
    def global_id(self, shard: int, local_id: int) -> int:
        return int(local_id) * self.num_shards + int(shard)

    def split_id(self, global_id: int) -> tuple[int, int]:
        """``global_id -> (shard, local_id)``."""
        gid = int(global_id)
        return gid % self.num_shards, gid // self.num_shards

    # ------------------------------------------------------------------
    # introspection (SchedulingService surface)
    # ------------------------------------------------------------------
    @property
    def clock(self) -> int:
        """The fleet clock: the furthest shard's virtual step."""
        return max(
            (
                s.service.clock
                for s in self.slots
                if s.service is not None
            ),
            default=0,
        )

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def result(self):
        """The merged drain summary once drained, else None."""
        return self._result

    def ping(self) -> bool:
        return True

    # ------------------------------------------------------------------
    # the five operations, routed
    # ------------------------------------------------------------------
    def _unavailable(self, shard: int, op: str) -> dict:
        slot = self.slots[shard]
        doc = {
            "ok": False,
            "error": (
                f"cannot {op}: shard {shard} is {slot.state}"
                + (f" ({slot.reason})" if slot.reason else "")
            ),
            "shard": shard,
        }
        if slot.state == "failed":
            # Terminal: the shard exhausted recovery and will not come
            # back in this process.  No retry_after — an honest hint
            # cannot exist, and hinting anyway would make a dead shard
            # look indefinitely retryable.
            doc["reason"] = "shard-failed"
        else:
            doc["reason"] = "shard-recovering"
            doc["retry_after"] = self.config.retry_after * max(
                1, self.supervisor.policy.recovery_deadline_ticks // 2
            )
        return doc

    def submit(
        self,
        tenant: str,
        job: Job | dict,
        *,
        release_time: int | None = None,
        token: str | None = None,
    ) -> dict:
        """Route one submission to the tenant's shard.

        While that shard is quarantined or replaying its journal the
        answer is a ``shard-recovering`` rejection with ``retry_after``
        — after a failover the tenant's next submission routes to a
        survivor and is judged by its admission controller as usual.
        """
        if not isinstance(tenant, str) or not tenant:
            raise ServiceError("tenant must be a non-empty string")
        shard = self.routing.shard_for(tenant)
        slot = self.slots[shard]
        if slot.state != "serving" or slot.service is None:
            self._rejected += 1
            rejection = self._unavailable(shard, "submit")
            self.obs.on_reject(
                self._tick_index,
                tenant=tenant,
                reason=rejection["reason"],
                retry_after=rejection.get("retry_after"),
            )
            return rejection
        ack = slot.service.submit(
            tenant, job, release_time=release_time, token=token
        )
        return self._globalise(shard, ack)

    def _globalise(self, shard: int, doc: dict) -> dict:
        if "job_id" in doc:
            doc = dict(doc)
            doc["job_id"] = self.global_id(shard, doc["job_id"])
            doc["shard"] = shard
        return doc

    def status(self, job_id: int) -> dict:
        shard, local = self.split_id(job_id)
        slot = self.slots[shard]
        if slot.state != "serving" or slot.service is None:
            return self._unavailable(shard, "report status")
        return self._globalise(shard, slot.service.status(local))

    def cancel(self, job_id: int) -> dict:
        shard, local = self.split_id(job_id)
        slot = self.slots[shard]
        if slot.state != "serving" or slot.service is None:
            return self._unavailable(shard, "cancel")
        return self._globalise(shard, slot.service.cancel(local))

    def stats(self) -> dict:
        per_shard: dict[int, dict] = {}
        accepted = rejected = duplicates = cancelled = 0
        in_flight: dict[str, int] = {}
        for slot in self.slots:
            if slot.service is None:
                per_shard[slot.index] = {
                    "ok": False,
                    "state": slot.state,
                    "reason": slot.reason,
                }
                continue
            doc = slot.service.stats()
            doc["shard_state"] = slot.state
            per_shard[slot.index] = doc
            accepted += int(doc.get("accepted", 0))
            rejected += int(doc.get("rejected", 0))
            duplicates += int(doc.get("duplicates", 0))
            cancelled += int(doc.get("cancelled", 0))
            in_flight.update(doc.get("in_flight", {}))
        return {
            "ok": True,
            "clock": self.clock,
            "engine": self.config.engine,
            "scheduler": self.config.scheduler,
            "capacities": list(self.config.capacities),
            "num_shards": self.num_shards,
            "draining": self._draining,
            "state": self._aggregate_state(),
            "accepted": accepted,
            # Router-level shard-recovering rejections never reached a
            # shard's admission controller; count them here.
            "rejected": rejected + self._rejected,
            "duplicates": duplicates,
            "cancelled": cancelled,
            "in_flight": in_flight,
            "failovers": self.supervisor.failovers,
            "shards": per_shard,
        }

    def drain(self) -> dict:
        """Drain every recoverable shard and merge the summaries.

        Quarantined shards get one last journal-replay attempt so their
        acknowledged jobs still complete; shards that cannot be brought
        back are reported in ``failed_shards`` (their acknowledged jobs
        remain replayable from the on-disk journal).  Idempotent.
        """
        self._draining = True
        if self._result is not None:
            return self._result
        for slot in self.slots:
            if slot.state in ("quarantined", "recovering"):
                self.supervisor._try_recover(slot, self._tick_index)
        shard_docs: dict[int, dict] = {}
        for slot in self.slots:
            if slot.state == "serving" and slot.service is not None:
                shard_docs[slot.index] = slot.service.drain()
        merged: dict = {
            "ok": bool(shard_docs)
            and all(d.get("ok") for d in shard_docs.values()),
            "makespan": max(
                (d.get("makespan", 0) for d in shard_docs.values()),
                default=0,
            ),
            "clock": self.clock,
            "digests": {
                i: d.get("digest") for i, d in shard_docs.items()
            },
            "accepted": sum(
                d.get("accepted", 0) for d in shard_docs.values()
            ),
            "completed": sum(
                d.get("completed", 0) for d in shard_docs.values()
            ),
            "failed": [],
            "cancelled": [],
            "per_tenant": {},
            "completions": {},
            "releases": {},
            "response_times": {},
            "failed_shards": [
                s.index for s in self.slots if s.index not in shard_docs
            ],
            "failovers": self.supervisor.failovers,
        }
        for i, doc in shard_docs.items():
            merged["failed"].extend(
                self.global_id(i, int(j)) for j in doc.get("failed", ())
            )
            merged["cancelled"].extend(
                self.global_id(i, int(j))
                for j in doc.get("cancelled", ())
            )
            merged["per_tenant"].update(doc.get("per_tenant", {}))
            for key in ("completions", "releases", "response_times"):
                merged[key].update(
                    {
                        self.global_id(i, int(j)): int(v)
                        for j, v in doc.get(key, {}).items()
                    }
                )
        merged["failed"].sort()
        merged["cancelled"].sort()
        self._result = merged
        return merged

    # ------------------------------------------------------------------
    # serving-loop support
    # ------------------------------------------------------------------
    def tick(self) -> bool:
        """One supervision pass over the fleet; True when quiescent."""
        if self._result is not None:
            return True
        tick = self._tick_index
        self._tick_index += 1
        return self.supervisor.tick_all(tick)

    # ------------------------------------------------------------------
    # aggregated health and telemetry
    # ------------------------------------------------------------------
    def _aggregate_state(self) -> str:
        """The fleet's rung on the service degradation ladder.

        The worst rung any serving shard reports, floored at
        ``degraded`` while any shard is off the serving state — a fleet
        with a quarantined member is not healthy, even though the
        survivors are.
        """
        if self._draining or self._result is not None:
            return "draining"
        worst = 0
        for slot in self.slots:
            if slot.state == "serving" and slot.service is not None:
                worst = max(
                    worst,
                    service_state_code(slot.service.service_state()),
                )
            else:
                worst = max(worst, service_state_code("degraded"))
        return SERVICE_STATES[worst]

    def health(self) -> dict:
        """The aggregated ``/healthz`` document, naming the sickest shard."""
        state = self._aggregate_state()
        sickest = self.supervisor.sickest()
        return {
            "ok": state == "healthy",
            "state": state,
            "state_code": service_state_code(state),
            "clock": self.clock,
            "draining": self._draining,
            "num_shards": self.num_shards,
            "sickest_shard": sickest.index,
            "sickest_shard_state": sickest.state,
            "sickest_shard_reason": sickest.reason,
            "failovers": self.supervisor.failovers,
            "shards": {
                s.index: {
                    "state": s.state,
                    "reason": s.reason,
                    "service_state": (
                        s.service.service_state()
                        if s.state == "serving" and s.service is not None
                        else None
                    ),
                }
                for s in self.slots
            },
        }

    def shards_status(self) -> dict:
        """The ``krad shards status`` document: one row per shard."""
        rows = []
        for slot in self.slots:
            row = {
                "shard": slot.index,
                "state": slot.state,
                "reason": slot.reason,
                "capacities": list(slot.config.capacities),
                "effective_capacities": list(slot.effective_capacities),
                "tenants": list(self.routing.tenants_of(slot.index)),
                "recover_attempts": slot.recover_attempts,
                "last_error": slot.last_error,
                "journal": slot.config.journal_path,
            }
            if slot.service is not None:
                row["clock"] = slot.service.clock
                row["service_state"] = (
                    slot.service.service_state()
                    if slot.state == "serving"
                    else None
                )
                row["in_flight"] = slot.service.total_in_flight()
            rows.append(row)
        return {
            "ok": True,
            "num_shards": self.num_shards,
            "tick": self._tick_index,
            "state": self._aggregate_state(),
            "failovers": self.supervisor.failovers,
            "failover_moves": dict(self.supervisor.failover_moves),
            "routing": self.routing.to_dict(),
            "shards": rows,
        }

    def metrics_registry(self) -> MetricsRegistry:
        """One registry for the whole fleet: every shard's families
        re-labelled with ``shard="i"``, plus supervisor-level gauges."""
        agg = MetricsRegistry()
        for slot in self.slots:
            if slot.service is not None and slot.state == "serving":
                _merge_labelled(
                    agg,
                    slot.service.metrics_registry(),
                    shard=str(slot.index),
                )
            agg.gauge(
                "service_shard_state",
                "shard supervision state "
                "(0=serving 1=recovering 2=quarantined 3=failed)",
                shard=str(slot.index),
            ).set(shard_state_code(slot.state))
            for name in SHARD_STATES:
                agg.gauge(
                    "service_shard_state_info",
                    "one-hot shard supervision state",
                    shard=str(slot.index),
                    state=name,
                ).set(1.0 if name == slot.state else 0.0)
            agg.counter(
                "service_shard_state_changes_total",
                "shard supervision transitions since start",
                shard=str(slot.index),
            ).inc(slot.state_changes)
            for alpha, cap in enumerate(slot.effective_capacities):
                agg.gauge(
                    "service_shard_capacity",
                    "accounting-plane capacity per shard and category",
                    shard=str(slot.index),
                    category=str(alpha),
                ).set(cap)
        agg.gauge(
            "service_shards", "configured shard count"
        ).set(self.num_shards)
        agg.counter(
            "service_shard_failovers_total",
            "shards whose tenants were failed over to survivors",
        ).inc(self.supervisor.failovers)
        agg.counter(
            "service_shard_rejections_total",
            "router-level shard-recovering rejections",
        ).inc(self._rejected)
        return agg

    def metrics_text(self) -> str:
        return self.metrics_registry().to_prometheus_text()


def _merge_labelled(
    dst: MetricsRegistry, src: MetricsRegistry, **extra_labels
) -> None:
    """Copy every family of ``src`` into ``dst`` with extra labels.

    Values are copied, not shared — ``src`` registries are rebuilt per
    scrape, so the aggregate owns its children.
    """
    for name, fam in src._families.items():
        for key, child in fam.children.items():
            labels = dict(key)
            labels.update(extra_labels)
            if fam.kind == "counter":
                dst.counter(name, fam.help, **labels).inc(child.value)
            elif fam.kind == "gauge":
                dst.gauge(name, fam.help, **labels).set(child.value)
            else:
                h = dst.histogram(
                    name, fam.help, buckets=child.buckets, **labels
                )
                h.counts = list(child.counts)
                h.sum = child.sum
                h.count = child.count
