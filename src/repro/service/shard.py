"""Sharded multi-tenant serving: N engines, one capacity slice each.

Two-level scheduling in the sense of *Scalable Hierarchical Scheduling
for Malleable Parallel Jobs* (Cao/Sun/Qian/Wu): a :class:`GlobalAllotter`
divides the K-category processor pool across N shards, each shard runs
the full single-service stack — its own
:class:`~repro.service.core.SchedulingService`, engine, admission
controller and write-ahead journal — and local K-RAD inside each shard
preserves allotment feasibility against that shard's fixed slice, so
each shard's Theorem-3 certificate holds against the capacity its engine
was built with.  Tenants are partitioned across shards by the
consistent-hash routing of :mod:`repro.service.router`, so each tenant's
jobs form one coherent per-shard computation: a fault-free N-shard run
is *digest-identical, per tenant*, to N independent single-shard runs
(the sliced conformance suite asserts this literally).

The :class:`ShardSupervisor` keeps two states per shard, ``serving`` and
``failed``.  A shard whose tick raises is rebuilt in place from its
journal (``<journal>.shard<i>``) through the digest-verified
:meth:`~repro.service.core.SchedulingService.recover`; a shard that has
no journal, whose replay raises, or that raises again on its first tick
after a rebuild is failed, and its tenants move to the survivors in one
journaled routing record.  A whole-process crash or hang is the
watchdog's (``krad serve --supervised --shards N``): the restarted
fleet recovers every shard from its own journal.

A shard failure emits a ``shard_state_change`` event and shows in the
``service_shard_state`` gauge; per-shard ``service_*`` families (the
single-service metrics re-labelled with ``shard="i"``) aggregate into
one scrapeable ``/metrics``; ``/healthz`` names the sickest shard.
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
    the pool.
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
        n = self.num_shards
        return tuple(
            tuple(
                cap // n + (1 if shard < cap % n else 0)
                for cap in self.capacities
            )
            for shard in range(n)
        )


class ShardSlot:
    """One shard's supervision record: the live service, or None once
    the shard has failed."""

    __slots__ = ("index", "config", "service", "reason", "last_error")

    def __init__(
        self, index: int, config: ServiceConfig, service
    ) -> None:
        self.index = int(index)
        self.config = config
        self.service: SchedulingService | None = service
        self.reason = ""
        self.last_error = ""

    @property
    def state(self) -> str:
        """``serving`` while the shard has a service, else ``failed``."""
        return "serving" if self.service is not None else "failed"


def _retire(slot: ShardSlot) -> None:
    """Take a replaced or failed shard's service out of its slot and
    close it, best effort: a journal whose disk failed cannot flush its
    buffered tail, and the rebuild or failover must run regardless."""
    service, slot.service = slot.service, None
    if service is None:
        return
    try:
        service.close()
    except OSError as exc:
        slot.last_error += f"; close raised {type(exc).__name__}: {exc}"


class ShardSupervisor:
    """Tick every serving shard; rebuild or fail one whose tick raises."""

    def __init__(
        self,
        slots: list[ShardSlot],
        *,
        routing: RoutingTable,
        obs: Observability,
    ) -> None:
        self.slots = slots
        self.routing = routing
        self.obs = obs

    @property
    def failovers(self) -> int:
        """Fleet-lifetime failover count — delegated to the routing
        table, which journals (and on restart, replays) every one."""
        return self.routing.failovers

    @property
    def failover_moves(self) -> dict[str, int]:
        """Tenants moved by failovers: ``{tenant: destination shard}``."""
        return self.routing.failover_moves

    def tick_all(self, tick: int) -> bool:
        """One pass: tick every serving shard.

        Returns True when every serving shard is quiescent (no admitted
        work left to run) — the signal the serving loop uses to idle
        down.  Failed shards count as quiescent: nothing will ever be
        driven there again.
        """
        all_quiescent = True
        for slot in self.slots:
            if slot.service is None:
                continue
            try:
                quiescent = slot.service.tick()
            except Exception as exc:  # noqa: BLE001 - rebuild or fail
                quiescent = self._rebuild(slot, tick, exc)
            all_quiescent = all_quiescent and quiescent
        return all_quiescent

    def _rebuild(self, slot: ShardSlot, tick: int, exc: Exception) -> bool:
        """Replace a shard whose tick raised by one recovered from its
        journal, and tick it once; fail the shard if that cannot be done.
        Returns the replacement tick's quiescence (True once failed)."""
        slot.last_error = f"tick raised {type(exc).__name__}: {exc}"
        if slot.config.journal_path is None:
            self.fail_over(slot, tick, why="tick raised; no journal")
            return True
        _retire(slot)
        try:
            slot.service = SchedulingService.recover(
                slot.config, obs=Observability()
            )
            quiescent = slot.service.tick()
        except Exception as err:  # noqa: BLE001 - replay or retick failed
            why = (
                "journal replay failed"
                if slot.service is None
                else "tick raised again after rebuild"
            )
            slot.last_error = f"{why}: {type(err).__name__}: {err}"
            self.fail_over(slot, tick, why=why)
            return True
        slot.reason = "rebuilt from journal"
        return quiescent

    def fail_over(self, slot: ShardSlot, tick: int, *, why: str) -> None:
        """Give up on one shard: close its service and move its tenants
        to the survivors in one journaled routing record (none when it
        is the last live shard).  Surviving engines are not touched."""
        _retire(slot)
        if any(s.service is not None for s in self.slots):
            moves = self.routing.fail_over(slot.index)
            why = f"{why}; {len(moves)} tenants failed over"
        else:
            why = f"{why}; no surviving shards"
        slot.reason = why
        self.obs.on_shard_state_change(
            tick,
            shard=slot.index,
            state="failed",
            prev="serving",
            reason=why,
        )

    def sickest(self) -> ShardSlot:
        """The shard in the worst supervision state (ties: lowest index)."""
        return max(
            self.slots, key=lambda s: (shard_state_code(s.state), -s.index)
        )


class ShardedSchedulingService:
    """N per-shard services behind one routed front.

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
    """

    def __init__(
        self,
        config: ServiceConfig,
        num_shards: int,
        *,
        obs: Observability | None = None,
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
            slots, routing=self.routing, obs=obs
        )
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

    # ------------------------------------------------------------------
    # the five operations, routed
    # ------------------------------------------------------------------
    def _failed(self, shard: int, op: str) -> dict:
        """The terminal answer for a failed shard: no ``retry_after``,
        because the shard will not come back in this process."""
        slot = self.slots[shard]
        return {
            "ok": False,
            "error": f"cannot {op}: shard {shard} failed ({slot.reason})",
            "reason": "shard-failed",
            "shard": shard,
        }

    def submit(
        self,
        tenant: str,
        job: Job | dict,
        *,
        release_time: int | None = None,
        token: str | None = None,
    ) -> dict:
        """Route one submission to the tenant's shard.

        A failover re-routes the failed shard's tenants, so only a
        tenant stranded on the last shard standing meets the terminal
        ``shard-failed`` rejection here.
        """
        if not isinstance(tenant, str) or not tenant:
            raise ServiceError("tenant must be a non-empty string")
        shard = self.routing.shard_for(tenant)
        slot = self.slots[shard]
        if slot.service is None:
            self._rejected += 1
            rejection = self._failed(shard, "submit")
            self.obs.on_reject(
                self._tick_index,
                tenant=tenant,
                reason=rejection["reason"],
                retry_after=None,
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
        if slot.service is None:
            return self._failed(shard, "report status")
        return self._globalise(shard, slot.service.status(local))

    def cancel(self, job_id: int) -> dict:
        shard, local = self.split_id(job_id)
        slot = self.slots[shard]
        if slot.service is None:
            return self._failed(shard, "cancel")
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
            # Router-level shard-failed rejections never reached a
            # shard's admission controller; count them here.
            "rejected": rejected + self._rejected,
            "duplicates": duplicates,
            "cancelled": cancelled,
            "in_flight": in_flight,
            "failovers": self.supervisor.failovers,
            "shards": per_shard,
        }

    def drain(self) -> dict:
        """Drain every serving shard, merge the summaries and close the
        routing journal.

        Failed shards are reported in ``failed_shards`` (their
        acknowledged jobs remain replayable from the on-disk journal).
        Idempotent.
        """
        self._draining = True
        if self._result is not None:
            return self._result
        shard_docs: dict[int, dict] = {}
        for slot in self.slots:
            if slot.service is not None:
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
        self.routing.close()
        self._result = merged
        return merged

    def close(self) -> None:
        """Release every shard's files and the routing journal without
        draining; a fleet opened again on the same journal base resumes
        from them."""
        try:
            for slot in self.slots:
                if slot.service is not None:
                    slot.service.close()
        finally:
            self.routing.close()

    # ------------------------------------------------------------------
    # serving-loop support
    # ------------------------------------------------------------------
    def tick(self) -> bool:
        """One pass over the fleet; True when quiescent."""
        if self._result is not None:
            return True
        tick = self._tick_index
        self._tick_index += 1
        return self.supervisor.tick_all(tick)

    # ------------------------------------------------------------------
    # aggregated health and telemetry
    # ------------------------------------------------------------------
    def _aggregate_state(self) -> str:
        """The fleet's service state (one of SERVICE_STATES).

        The worst state any serving shard reports, floored at
        ``degraded`` while any shard has failed — a fleet that lost a
        member is not healthy, even though the survivors are.
        """
        if self._draining or self._result is not None:
            return "draining"
        worst = 0
        for slot in self.slots:
            if slot.service is not None:
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
                        if s.service is not None
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
                "tenants": list(self.routing.tenants_of(slot.index)),
                "last_error": slot.last_error,
                "journal": slot.config.journal_path,
            }
            if slot.service is not None:
                row["clock"] = slot.service.clock
                row["service_state"] = slot.service.service_state()
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
            if slot.service is not None:
                _merge_labelled(
                    agg,
                    slot.service.metrics_registry(),
                    shard=str(slot.index),
                )
            agg.gauge(
                "service_shard_state",
                "shard supervision state (0=serving 1=failed)",
                shard=str(slot.index),
            ).set(shard_state_code(slot.state))
        agg.gauge(
            "service_shards", "configured shard count"
        ).set(self.num_shards)
        agg.counter(
            "service_shard_failovers_total",
            "shards whose tenants were failed over to survivors",
        ).inc(self.supervisor.failovers)
        agg.counter(
            "service_shard_rejections_total",
            "router-level shard-failed rejections",
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
