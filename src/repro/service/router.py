"""Tenant→shard routing: consistent hashing plus an explicit,
journaled routing table.

Sharding partitions *tenants*, not jobs: every job of one tenant lands
on the same shard, so a shard is a complete, self-contained
:class:`~repro.service.core.SchedulingService` whose digests are
bit-identical to a standalone single-shard run of the same tenants —
the property the sliced conformance suite pins down.

Two layers:

* :class:`ConsistentHashRing` — the *default* route.  Each shard owns
  ``replicas`` virtual points on a ring keyed by a stable BLAKE2b hash
  (independent of ``PYTHONHASHSEED`` and process identity, so every
  client, server and recovery replay computes the same ring).  Removing
  a shard moves only the tenants that hashed to it; everyone else keeps
  their route — the classic consistent-hashing stability property, and
  exactly what a failover needs.
* :class:`RoutingTable` — the *explicit* record.  The ring answers
  "where would this tenant go?"; the table answers "where did we
  actually put it", including failover reassignments that override the
  ring.  Every decision is appended to a routing journal (the engine's
  CRC-framed :class:`~repro.sim.journal.Journal`, fsync'd) so a crashed
  router recovers the exact table — a tenant must never silently change
  shards across a restart, or its jobs would split across two engines
  and both digests would be garbage.

:class:`ShardedClient` applies the same routing client-side for the
process-per-shard deployment (N independent ``krad serve`` daemons, one
per shard): the client computes the route locally and talks straight to
the owning shard, no proxy hop on the submit path.
"""

from __future__ import annotations

import hashlib
import os
from bisect import bisect_right
from typing import Iterable

from repro.errors import JournalError, ServiceError
from repro.sim.journal import Journal, JournalRecord, read_journal

__all__ = [
    "ConsistentHashRing",
    "RoutingTable",
    "ShardedClient",
]

#: routing journal format version; version 2 frames every record with
#: repro.sim.journal (sequence number and CRC)
ROUTING_VERSION = 2


def _stable_hash(key: str) -> int:
    """64-bit stable hash of a string (BLAKE2b, seed-independent)."""
    return int.from_bytes(
        hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(),
        "big",
    )


class ConsistentHashRing:
    """Virtual-node hash ring over shard indices ``0..num_shards-1``.

    ``replicas`` virtual points per shard smooth the partition sizes;
    the default 64 keeps the largest/smallest tenant-share ratio small
    without making ring construction noticeable.  Lookup is
    ``O(log(num_shards * replicas))``.
    """

    def __init__(self, num_shards: int, *, replicas: int = 64) -> None:
        if num_shards < 1:
            raise ServiceError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        if replicas < 1:
            raise ServiceError(f"replicas must be >= 1, got {replicas}")
        self.num_shards = int(num_shards)
        self.replicas = int(replicas)
        points: list[tuple[int, int]] = []
        for shard in range(self.num_shards):
            for rep in range(self.replicas):
                points.append(
                    (_stable_hash(f"shard-{shard}#{rep}"), shard)
                )
        points.sort()
        self._points = points
        self._keys = [p for p, _ in points]

    def shard_for(
        self, tenant: str, *, exclude: frozenset[int] | set[int] = frozenset()
    ) -> int:
        """The shard owning ``tenant``, skipping any ``exclude``\\d ones.

        Exclusion walks the ring clockwise from the tenant's point, so a
        tenant displaced by a dead shard lands on the *next* live shard
        — deterministically, and without moving any tenant whose owner
        is alive.
        """
        live = self.num_shards - len(
            set(exclude) & set(range(self.num_shards))
        )
        if live < 1:
            raise ServiceError("no live shards to route to")
        h = _stable_hash(f"tenant:{tenant}")
        idx = bisect_right(self._keys, h)
        n = len(self._points)
        for step in range(n):
            shard = self._points[(idx + step) % n][1]
            if shard not in exclude:
                return shard
        raise ServiceError("no live shards to route to")  # pragma: no cover


class RoutingTable:
    """The explicit tenant→shard map, with an append-only journal.

    Routing precedence, highest first:

    1. an explicit assignment (recorded on first contact, and rewritten
       by failover);
    2. the consistent-hash ring over the currently *live* shards.

    Because first contact records an assignment, a tenant's route is
    sticky: later shard failures move only tenants explicitly failed
    over, never tenants that merely *would* hash elsewhere on the new
    ring.  ``journal_path=None`` keeps the table in memory only (tests,
    transient topologies).

    The journal is a :class:`~repro.sim.journal.Journal`: a ``meta``
    header pinning the ring, then ``assign``, ``failover`` and ``revive``
    records, each framed with a sequence number and CRC and fsync'd.
    """

    def __init__(
        self,
        num_shards: int,
        *,
        journal_path: str | None = None,
        replicas: int = 64,
        fsync: bool = True,
    ) -> None:
        self.ring = ConsistentHashRing(num_shards, replicas=replicas)
        self.num_shards = self.ring.num_shards
        self.assignments: dict[str, int] = {}
        self.dead: set[int] = set()
        #: failovers over the table's journaled lifetime (replayed on
        #: load, so the count survives a restart)
        self.failovers = 0
        #: tenants moved by failovers: {tenant: destination shard}
        self.failover_moves: dict[str, int] = {}
        self._journal = None
        if journal_path is not None:
            if os.path.exists(journal_path) and os.path.getsize(journal_path):
                raise ServiceError(
                    f"routing journal {journal_path!r} already exists; "
                    "open it with RoutingTable.load"
                )
            self._journal = Journal(journal_path, fsync=fsync)
            self._append(
                "meta",
                {
                    "version": ROUTING_VERSION,
                    "num_shards": self.num_shards,
                    "replicas": self.ring.replicas,
                },
            )

    # ------------------------------------------------------------------
    # journal plumbing
    # ------------------------------------------------------------------
    def _append(self, rtype: str, data: dict) -> None:
        if self._journal is not None:
            self._journal.append(rtype, data)

    def close(self) -> None:
        """Stop journaling; the in-memory table keeps routing."""
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    @classmethod
    def load(
        cls, journal_path: str, *, fsync: bool = True
    ) -> "RoutingTable":
        """Replay a routing journal back into a live table.

        The header pins ``num_shards``/``replicas`` so the replayed ring
        is identical; ``assign``/``failover``/``revive`` records replay
        in order.  Framing is :func:`repro.sim.journal.read_journal`'s:
        a torn final record (crash mid-append) is dropped and physically
        truncated, so the next append starts on a record boundary, but a
        bad record *before* an intact one, a malformed record, or a file
        without a version-2 header raises :class:`ServiceError` and
        leaves the file as it was.
        """
        try:
            records, valid_bytes, clean = read_journal(journal_path)
        except JournalError as exc:
            raise ServiceError(f"routing journal: {exc}") from None
        head = records[0].data if records and records[0].type == "meta" else {}
        if not (
            isinstance(head, dict)
            and head.get("version") == ROUTING_VERSION
            and type(head.get("num_shards")) is int
            and type(head.get("replicas")) is int
        ):
            raise ServiceError(
                f"routing journal {journal_path!r} has no valid "
                f"version-{ROUTING_VERSION} header"
            )
        table = cls(head["num_shards"], replicas=head["replicas"])
        for rec in records[1:]:
            table._replay(rec, journal_path)
        if not clean:
            with open(journal_path, "r+b") as fh:
                fh.truncate(valid_bytes)
        table._journal = Journal(
            journal_path, fsync=fsync, start_seq=len(records)
        )
        return table

    def _replay(self, rec: JournalRecord, journal_path: str) -> None:
        """Apply one journaled routing record, refusing a malformed one."""
        data = rec.data if isinstance(rec.data, dict) else {}
        shard = data.get("shard")
        tenant = data.get("tenant") if rec.type == "assign" else "-"
        moves = data.get("moves") if rec.type == "failover" else {}
        if not (
            rec.type in ("assign", "failover", "revive")
            and self._is_shard(shard)
            and isinstance(tenant, str)
            and tenant
            and isinstance(moves, dict)
            and all(t and self._is_shard(s) for t, s in moves.items())
        ):
            raise ServiceError(
                f"routing journal {journal_path!r}: malformed "
                f"{rec.type!r} record at seq {rec.seq}: {rec.data!r}"
            )
        if rec.type == "assign":
            self.assignments[tenant] = shard
        elif rec.type == "failover":
            self.dead.add(shard)
            self.failovers += 1
            self.assignments.update(moves)
            self.failover_moves.update(moves)
        else:
            self.dead.discard(shard)

    def _is_shard(self, value) -> bool:
        return type(value) is int and 0 <= value < self.num_shards

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def shard_for(self, tenant: str) -> int:
        """Route one tenant, recording first contact in the journal."""
        if not isinstance(tenant, str) or not tenant:
            raise ServiceError("tenant must be a non-empty string")
        shard = self.assignments.get(tenant)
        if shard is not None:
            return shard
        shard = self.ring.shard_for(tenant, exclude=self.dead)
        self.assignments[tenant] = shard
        self._append("assign", {"tenant": tenant, "shard": shard})
        return shard

    def peek(self, tenant: str) -> int:
        """Route without recording (introspection only)."""
        shard = self.assignments.get(tenant)
        if shard is not None:
            return shard
        return self.ring.shard_for(tenant, exclude=self.dead)

    def tenants_of(self, shard: int) -> tuple[str, ...]:
        """Tenants explicitly assigned to one shard, sorted."""
        return tuple(
            sorted(t for t, s in self.assignments.items() if s == shard)
        )

    def fail_over(self, shard: int) -> dict[str, int]:
        """Move every tenant of a dead shard to the surviving shards.

        Displaced tenants re-route on the ring with the dead set
        excluded, so each lands on its deterministic next-clockwise live
        shard.  The whole move is journaled as *one* record: recovery
        either sees the complete failover or none of it, never half the
        tenants moved.  Returns ``{tenant: new_shard}``.
        """
        shard = int(shard)
        if not 0 <= shard < self.num_shards:
            raise ServiceError(
                f"shard {shard} out of range 0..{self.num_shards - 1}"
            )
        self.dead.add(shard)
        if len(self.dead) >= self.num_shards:
            self.dead.discard(shard)
            raise ServiceError(
                "cannot fail over the last live shard"
            )
        moves: dict[str, int] = {}
        for tenant, owner in sorted(self.assignments.items()):
            if owner == shard:
                moves[tenant] = self.ring.shard_for(
                    tenant, exclude=self.dead
                )
        self.assignments.update(moves)
        self.failovers += 1
        self.failover_moves.update(moves)
        self._append("failover", {"shard": shard, "moves": moves})
        return moves

    def revive(self, shard: int) -> None:
        """Mark a previously failed shard live again (new tenants may
        hash to it; failed-over tenants keep their explicit route)."""
        shard = int(shard)
        if shard in self.dead:
            self.dead.discard(shard)
            self._append("revive", {"shard": shard})

    def to_dict(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "dead": sorted(self.dead),
            "assignments": dict(sorted(self.assignments.items())),
        }


class ShardedClient:
    """Client-side router over N per-shard service endpoints.

    For the process-per-shard topology: ``addresses[i]`` is shard *i*'s
    control-socket address and the client routes each tenant by the
    same consistent hash the server-side table uses, so both
    deployments put a tenant on the same shard.  Global job ids are
    ``local_id * num_shards + shard`` — dense within a shard,
    collision-free across shards, and reversible without a lookup.

    ``client_factory(address)`` builds one
    :class:`~repro.service.client.ServiceClient` (injectable for retry
    budgets or tests).  The class is deliberately thin: no failover
    logic — a dead shard surfaces as the transport error the caller's
    retry policy already handles.
    """

    def __init__(
        self,
        addresses: Iterable,
        *,
        client_factory=None,
        replicas: int = 64,
    ) -> None:
        self.addresses = list(addresses)
        if not self.addresses:
            raise ServiceError("ShardedClient needs >= 1 shard address")
        if client_factory is None:
            from repro.service.client import ServiceClient

            client_factory = ServiceClient
        self._factory = client_factory
        self.ring = ConsistentHashRing(
            len(self.addresses), replicas=replicas
        )
        self._clients: dict[int, object] = {}

    @property
    def num_shards(self) -> int:
        return len(self.addresses)

    def shard_of(self, tenant: str) -> int:
        return self.ring.shard_for(tenant)

    def client(self, shard: int):
        cli = self._clients.get(shard)
        if cli is None:
            cli = self._factory(self.addresses[shard])
            self._clients[shard] = cli
        return cli

    def global_id(self, shard: int, local_id: int) -> int:
        return int(local_id) * self.num_shards + int(shard)

    def split_id(self, global_id: int) -> tuple[int, int]:
        """``global_id -> (shard, local_id)``."""
        return int(global_id) % self.num_shards, (
            int(global_id) // self.num_shards
        )

    def submit(self, tenant: str, job, **kwargs) -> dict:
        """Route one submission to the owning shard; the ack's
        ``job_id`` is rewritten to the global id and the shard named."""
        shard = self.shard_of(tenant)
        ack = self.client(shard).submit(tenant, job, **kwargs)
        return self._globalise(shard, ack)

    def status(self, global_id: int) -> dict:
        shard, local = self.split_id(global_id)
        out = self.client(shard).status(local)
        return self._globalise(shard, out)

    def cancel(self, global_id: int) -> dict:
        shard, local = self.split_id(global_id)
        out = self.client(shard).cancel(local)
        return self._globalise(shard, out)

    def _globalise(self, shard: int, doc: dict) -> dict:
        if "job_id" in doc:
            doc = dict(doc)
            doc["job_id"] = self.global_id(shard, doc["job_id"])
            doc["shard"] = shard
        return doc

    def stats(self) -> dict:
        """Per-shard ``stats`` plus aggregate accept/reject counters."""
        per_shard = {}
        accepted = rejected = 0
        for i in range(self.num_shards):
            doc = self.client(i).stats()
            per_shard[i] = doc
            accepted += int(doc.get("accepted", 0))
            rejected += int(doc.get("rejected", 0))
        return {
            "ok": True,
            "accepted": accepted,
            "rejected": rejected,
            "shards": per_shard,
        }

    def drain(self) -> dict:
        """Drain every shard; summaries merged under global ids."""
        shards = {}
        for i in range(self.num_shards):
            shards[i] = self.client(i).drain()
        merged: dict = {
            "ok": all(s.get("ok") for s in shards.values()),
            "makespan": max(
                (s.get("makespan", 0) for s in shards.values()), default=0
            ),
            "digests": {
                i: s.get("digest") for i, s in shards.items()
            },
            "per_tenant": {},
            "completions": {},
            "response_times": {},
            "shards": shards,
        }
        for i, s in shards.items():
            merged["per_tenant"].update(s.get("per_tenant", {}))
            for jid, t in s.get("completions", {}).items():
                merged["completions"][self.global_id(i, int(jid))] = t
            for jid, t in s.get("response_times", {}).items():
                merged["response_times"][self.global_id(i, int(jid))] = t
        return merged

    def close(self) -> None:
        for cli in self._clients.values():
            try:
                cli.close()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
        self._clients = {}

    def __enter__(self) -> "ShardedClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
