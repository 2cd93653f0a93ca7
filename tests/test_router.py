"""Tenant→shard routing: the hash ring, the journaled routing table,
and the client-side router.

The properties pinned here are the ones sharding correctness rests on:
stable hashing (every process computes the same ring), consistent-hash
stability (killing a shard moves only its own tenants), sticky explicit
routes (a tenant never silently changes shards across a restart), and
atomic journaled failover (recovery sees the whole move or none of it).
"""

from __future__ import annotations

import pytest

from repro.errors import ServiceError
from repro.service import ConsistentHashRing, RoutingTable, ShardedClient
from repro.service.router import _stable_hash
from repro.sim.journal import Journal, read_journal

TENANTS = [f"tenant-{i}" for i in range(60)]


# ----------------------------------------------------------------------
# consistent-hash ring
# ----------------------------------------------------------------------
class TestRing:
    def test_stable_hash_is_process_independent(self):
        # pinned constant: a changed hash silently re-routes every
        # tenant of every existing deployment
        assert _stable_hash("tenant:alice") == int.from_bytes(
            __import__("hashlib")
            .blake2b(b"tenant:alice", digest_size=8)
            .digest(),
            "big",
        )

    def test_deterministic_across_instances(self):
        a = ConsistentHashRing(4)
        b = ConsistentHashRing(4)
        assert [a.shard_for(t) for t in TENANTS] == [
            b.shard_for(t) for t in TENANTS
        ]

    def test_every_shard_owns_someone(self):
        ring = ConsistentHashRing(4)
        owners = {ring.shard_for(t) for t in TENANTS}
        assert owners == {0, 1, 2, 3}

    def test_exclusion_moves_only_the_dead_shards_tenants(self):
        ring = ConsistentHashRing(4)
        before = {t: ring.shard_for(t) for t in TENANTS}
        after = {
            t: ring.shard_for(t, exclude={2}) for t in TENANTS
        }
        for t in TENANTS:
            if before[t] != 2:
                assert after[t] == before[t], (
                    f"{t} moved although its shard survived"
                )
            else:
                assert after[t] != 2
        assert 2 not in set(after.values())

    def test_exclude_everything_raises(self):
        ring = ConsistentHashRing(2)
        with pytest.raises(ServiceError):
            ring.shard_for("t", exclude={0, 1})

    def test_validation(self):
        with pytest.raises(ServiceError):
            ConsistentHashRing(0)
        with pytest.raises(ServiceError):
            ConsistentHashRing(2, replicas=0)


# ----------------------------------------------------------------------
# routing table
# ----------------------------------------------------------------------
class TestRoutingTable:
    def test_first_contact_is_sticky(self):
        table = RoutingTable(3)
        first = table.shard_for("ada")
        # even if the ring would answer differently after a failover of
        # some *other* shard, the explicit assignment wins
        other = next(s for s in range(3) if s != first)
        table.fail_over(other)
        assert table.shard_for("ada") == first

    def test_peek_does_not_record(self):
        table = RoutingTable(3)
        table.peek("ada")
        assert "ada" not in table.assignments
        table.shard_for("ada")
        assert "ada" in table.assignments

    def test_journal_round_trip(self, tmp_path):
        path = str(tmp_path / "routing.journal")
        table = RoutingTable(3, journal_path=path, fsync=False)
        routes = {t: table.shard_for(t) for t in TENANTS[:12]}
        victim = routes[TENANTS[0]]
        moves = table.fail_over(victim)
        table.close()

        loaded = RoutingTable.load(path, fsync=False)
        assert loaded.num_shards == 3
        assert loaded.dead == {victim}
        for t, s in routes.items():
            expected = moves.get(t, s)
            assert loaded.shard_for(t) == expected
        loaded.close()

    def test_failover_is_one_atomic_record(self, tmp_path):
        path = str(tmp_path / "routing.journal")
        table = RoutingTable(3, journal_path=path, fsync=False)
        for t in TENANTS[:12]:
            table.shard_for(t)
        victim = table.shard_for(TENANTS[0])
        moves = table.fail_over(victim)
        table.close()
        assert moves, "victim owned no tenants; test is vacuous"

        records, _, clean = read_journal(path)
        assert clean
        failovers = [r for r in records if r.type == "failover"]
        assert len(failovers) == 1
        assert failovers[0].data["shard"] == victim
        assert {
            t: int(s) for t, s in failovers[0].data["moves"].items()
        } == moves

    def test_failover_moves_only_victims_tenants(self):
        table = RoutingTable(4)
        before = {t: table.shard_for(t) for t in TENANTS}
        victim = before[TENANTS[0]]
        moves = table.fail_over(victim)
        assert set(moves) == {
            t for t, s in before.items() if s == victim
        }
        for t, s in before.items():
            if s != victim:
                assert table.shard_for(t) == s

    def test_cannot_fail_over_last_live_shard(self):
        table = RoutingTable(2)
        table.fail_over(0)
        with pytest.raises(ServiceError):
            table.fail_over(1)
        # the refused failover must not poison the dead set
        assert table.dead == {0}

    def test_revive_rejoins_the_ring(self):
        table = RoutingTable(2)
        moved = table.shard_for("ada")
        table.fail_over(moved)
        table.revive(moved)
        assert table.dead == set()
        # the failed-over tenant keeps its explicit route
        assert table.shard_for("ada") != moved

    def test_torn_tail_tolerated(self, tmp_path):
        path = str(tmp_path / "routing.journal")
        table = RoutingTable(2, journal_path=path, fsync=False)
        table.shard_for("ada")
        table.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"op": "assign", "tenant": "gr')  # crash mid-append
        loaded = RoutingTable.load(path, fsync=False)
        assert "ada" in loaded.assignments
        loaded.close()

    def test_mid_journal_corruption_raises(self, tmp_path):
        path = str(tmp_path / "routing.journal")
        table = RoutingTable(2, journal_path=path, fsync=False)
        table.shard_for("ada")
        table.close()
        lines = open(path, encoding="utf-8").read().splitlines()
        lines.insert(1, "not json at all")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ServiceError, match="corrupt"):
            RoutingTable.load(path)

    def test_load_rejects_headerless_journal(self, tmp_path):
        path = str(tmp_path / "routing.journal")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"op": "assign", "tenant": "a", "shard": 0}\n')
        with pytest.raises(ServiceError, match="header"):
            RoutingTable.load(path)

    def test_load_rejects_journal_whose_only_line_is_torn(
        self, tmp_path
    ):
        # the header itself was torn: no valid records at all must be a
        # typed error, not an IndexError
        path = str(tmp_path / "routing.journal")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"v": 1, "op": "in')
        with pytest.raises(ServiceError, match="header"):
            RoutingTable.load(path)

    def test_torn_tail_is_truncated_before_reappending(self, tmp_path):
        """A post-recovery append must start on a record boundary: if
        the torn bytes were left in place, the next append would
        concatenate onto them and silently drop (one append) or
        permanently corrupt (two appends) fsync'd history."""
        path = str(tmp_path / "routing.journal")
        table = RoutingTable(2, journal_path=path, fsync=False)
        expected = {"ada": table.shard_for("ada")}
        table.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"op": "assign", "tenant": "gr')  # crash mid-append

        loaded = RoutingTable.load(path, fsync=False)
        expected["grace"] = loaded.shard_for("grace")
        loaded.close()
        again = RoutingTable.load(path, fsync=False)
        # the post-recovery append is an *explicit* assignment — merely
        # re-deriving it from the ring would not count as surviving
        assert again.assignments == expected
        expected["lin"] = again.shard_for("lin")
        again.close()
        final = RoutingTable.load(path, fsync=False)
        assert final.assignments == expected
        final.close()

    def test_failover_count_and_moves_survive_reload(self, tmp_path):
        path = str(tmp_path / "routing.journal")
        table = RoutingTable(3, journal_path=path, fsync=False)
        for t in TENANTS[:12]:
            table.shard_for(t)
        victim = table.shard_for(TENANTS[0])
        moves = table.fail_over(victim)
        assert table.failovers == 1 and table.failover_moves == moves
        table.close()

        loaded = RoutingTable.load(path, fsync=False)
        assert loaded.failovers == 1
        assert loaded.failover_moves == moves
        loaded.close()


class TestRoutingJournalValidation:
    """A routing journal loads exactly or fails with a typed error that
    names the bad record, and a refused file is left as it was."""

    def _journal(self, tmp_path, *tenants):
        path = str(tmp_path / "routing.journal")
        table = RoutingTable(2, journal_path=path, fsync=False)
        routes = {t: table.shard_for(t) for t in tenants}
        table.close()
        return path, routes

    def test_flipped_digit_is_mid_journal_corruption(self, tmp_path):
        path, routes = self._journal(tmp_path, "ada", "grace")
        shard = routes["ada"]
        lines = open(path, encoding="utf-8").read().splitlines(True)
        i = next(n for n, line in enumerate(lines) if '"ada"' in line)
        lines[i] = lines[i].replace(
            f'"shard":{shard}', f'"shard":{1 - shard}'
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(lines))
        with pytest.raises(ServiceError, match="corrupt"):
            RoutingTable.load(path)

    @pytest.mark.parametrize(
        "rtype, data",
        [
            ("assign", {"tenant": "bob"}),
            ("assign", {"tenant": "bob", "shard": "x"}),
            ("assign", {"tenant": "bob", "shard": 99}),
            ("failover", {"shard": 0, "moves": ["ada"]}),
        ],
        ids=["no-shard", "shard-not-int", "shard-out-of-range", "moves-list"],
    )
    def test_malformed_record_names_its_seq(self, tmp_path, rtype, data):
        path, _ = self._journal(tmp_path, "ada")
        records, _, _ = read_journal(path)
        journal = Journal(path, fsync=False, start_seq=len(records))
        journal.append(rtype, data)
        journal.close()
        before = open(path, "rb").read()
        with pytest.raises(ServiceError, match=f"{rtype}.*seq 3"):
            RoutingTable.load(path)
        assert open(path, "rb").read() == before

    def test_constructor_refuses_an_existing_journal(self, tmp_path):
        # appending a second header would restart the sequence numbers
        path, _ = self._journal(tmp_path, "ada")
        before = open(path, "rb").read()
        with pytest.raises(ServiceError, match="RoutingTable.load"):
            RoutingTable(2, journal_path=path, fsync=False)
        assert open(path, "rb").read() == before

    def test_version_1_journal_refused_untouched(self, tmp_path):
        path = str(tmp_path / "routing.journal")
        v1 = (
            b'{"v":1,"op":"init","num_shards":2,"replicas":64}\n'
            b'{"op":"assign","tenant":"ada","shard":1}\n'
        )
        with open(path, "wb") as fh:
            fh.write(v1)
        with pytest.raises(ServiceError, match="version-2 header"):
            RoutingTable.load(path)
        assert open(path, "rb").read() == v1


# ----------------------------------------------------------------------
# client-side router
# ----------------------------------------------------------------------
class _FakeClient:
    """Stands in for a ServiceClient: records calls, answers like one."""

    def __init__(self, address):
        self.address = address
        self.submits = []
        self._next_id = 0

    def submit(self, tenant, job, **kwargs):
        self.submits.append((tenant, job))
        jid, self._next_id = self._next_id, self._next_id + 1
        return {"ok": True, "job_id": jid, "tenant": tenant}

    def status(self, job_id):
        return {"ok": True, "job_id": job_id, "state": "running"}

    def cancel(self, job_id):
        return {"ok": True, "job_id": job_id}

    def stats(self):
        return {"ok": True, "accepted": len(self.submits), "rejected": 0}

    def drain(self):
        return {
            "ok": True,
            "makespan": 7,
            "digest": f"digest-{self.address}",
            "completions": {i: 5 for i, _ in enumerate(self.submits)},
            "response_times": {},
            "per_tenant": {
                t: {"completed": 1} for t, _ in self.submits
            },
        }

    def close(self):
        pass


class TestShardedClient:
    def _client(self, n=3):
        return ShardedClient(
            [("127.0.0.1", 7000 + i) for i in range(n)],
            client_factory=_FakeClient,
        )

    def test_global_id_round_trip(self):
        sc = self._client(3)
        for shard in range(3):
            for local in range(10):
                gid = sc.global_id(shard, local)
                assert sc.split_id(gid) == (shard, local)
        # dense and collision-free across shards
        gids = {
            sc.global_id(s, l) for s in range(3) for l in range(10)
        }
        assert len(gids) == 30

    def test_routes_match_server_side_ring(self):
        sc = self._client(4)
        ring = ConsistentHashRing(4)
        for t in TENANTS:
            assert sc.shard_of(t) == ring.shard_for(t)

    def test_submit_globalises_ack_and_sticks_to_one_shard(self):
        sc = self._client(3)
        shard = sc.shard_of("ada")
        acks = [sc.submit("ada", {"j": i}) for i in range(5)]
        assert all(a["shard"] == shard for a in acks)
        assert [a["job_id"] for a in acks] == [
            sc.global_id(shard, i) for i in range(5)
        ]
        # every submit reached exactly the owning shard's client
        assert len(sc.client(shard).submits) == 5

    def test_status_and_cancel_route_by_global_id(self):
        sc = self._client(3)
        gid = sc.submit("ada", {})["job_id"]
        shard, local = sc.split_id(gid)
        st = sc.status(gid)
        assert (st["job_id"], st["shard"]) == (gid, shard)
        assert sc.cancel(gid)["job_id"] == gid

    def test_drain_merges_under_global_ids(self):
        sc = self._client(2)
        tenants = ["ada", "grace", "edsger", "barbara"]
        for t in tenants:
            sc.submit(t, {})
        merged = sc.drain()
        assert merged["ok"]
        assert set(merged["digests"]) == {0, 1}
        locals_per_shard = {
            i: len(sc.client(i).submits) for i in range(2)
        }
        assert sum(locals_per_shard.values()) == len(tenants)
        assert set(merged["completions"]) == {
            sc.global_id(s, l)
            for s in range(2)
            for l in range(locals_per_shard[s])
        }
        assert set(merged["per_tenant"]) == set(tenants)

    def test_needs_at_least_one_address(self):
        with pytest.raises(ServiceError):
            ShardedClient([])

    def test_context_manager_closes_clients(self):
        with self._client(2) as sc:
            sc.submit("ada", {})
            assert sc._clients
        assert not sc._clients
