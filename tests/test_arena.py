"""The scheduler policy arena: registry, tournament, leaderboard, env.

Covers the four arena surfaces end to end on deliberately small
tournaments (two scenarios, a handful of policies) so the whole module
stays in tier-1 time budgets; the full-grid run is the ARENA experiment
and the CI arena-smoke job.
"""

import dataclasses

import numpy as np
import pytest

from repro.arena import (
    ARENA_POLICIES,
    ArenaPolicy,
    GreedyRolloutPolicy,
    Leaderboard,
    PolicyScheduler,
    arena_policies_for,
    arena_policy_names,
    certified_scenario_names,
    clip_action,
    compare_leaderboards,
    get_policy,
    load_leaderboard,
    register_policy,
    run_cross_engine_tournament,
    run_tournament,
)
from repro.errors import ReproError, ScheduleError
from repro.jobs.workloads import random_phase_jobset
from repro.machine.machine import KResourceMachine
from repro.schedulers import KRad
from repro.sim import simulate
from repro.workloads.scenarios import SCENARIOS

CAPS = (4, 2)
SMALL = dict(
    scenarios=("bursty", "hotspot"),
    policies=("k-rad", "equi", "greedy-fcfs", "list-sched", "env-greedy"),
    seed=3,
    num_jobs=6,
    capacities=CAPS,
)


class TestRegistry:
    def test_every_certified_scenario_is_fault_free(self):
        for name in certified_scenario_names():
            assert SCENARIOS[name].faults is None

    def test_known_names_cover_paper_and_extensions(self):
        names = arena_policy_names()
        for expected in (
            "k-rad", "rad", "k-deq", "k-rr", "equi", "greedy-fcfs",
            "setf", "list-sched", "env-greedy",
        ):
            assert expected in names

    def test_rad_sits_out_multi_category_machines(self):
        multi = {p.name for p in arena_policies_for((4, 2))}
        single = {p.name for p in arena_policies_for((4,))}
        assert "rad" not in multi
        assert "rad" in single

    def test_factories_build_fresh_instances(self):
        entry = get_policy("k-rad")
        assert entry.make() is not entry.make()

    def test_unknown_policy_names_the_choices(self):
        with pytest.raises(ReproError, match="k-rad"):
            get_policy("nope")

    def test_name_mismatch_is_caught_at_make_time(self):
        bad = ArenaPolicy(name="imposter", factory=KRad)
        with pytest.raises(ReproError, match="imposter"):
            bad.make()

    def test_register_policy_refuses_silent_override(self):
        entry = get_policy("k-rad")
        with pytest.raises(ReproError, match="already registered"):
            register_policy(entry)
        register_policy(entry, replace=True)  # no-op override allowed
        assert ARENA_POLICIES["k-rad"] is entry


class TestTournament:
    def test_small_tournament_fills_every_cell(self):
        board = run_tournament(**SMALL)
        assert len(board.cells) == len(SMALL["policies"]) * len(
            SMALL["scenarios"]
        )
        for cell in board.cells:
            assert cell.makespan_ratio >= 1.0
            assert cell.mean_response_ratio >= 1.0
            assert cell.trace_digest and cell.schedule_digest

    def test_krad_within_theorem3_limit(self):
        board = run_tournament(**SMALL)
        for cell in board.cells:
            if cell.policy == "k-rad":
                assert cell.makespan_ratio <= board.theorem3_limit + 1e-9

    def test_faulted_scenario_is_an_error_not_a_skip(self):
        faulted = [
            n for n, s in SCENARIOS.items() if not s.certified
        ]
        assert faulted, "scenario library lost its faulted entry"
        with pytest.raises(ReproError, match="faults"):
            run_tournament(scenarios=(faulted[0],), capacities=CAPS)

    def test_unknown_scenario_is_an_error(self):
        with pytest.raises(ReproError, match="unknown scenario"):
            run_tournament(scenarios=("atlantis",), capacities=CAPS)

    def test_unsupported_policy_is_an_error(self):
        with pytest.raises(ReproError, match="rad"):
            run_tournament(
                scenarios=("bursty",), policies=("rad",), capacities=CAPS
            )

    def test_deterministic_leaderboard_digest(self):
        a = run_tournament(**SMALL)
        b = run_tournament(**SMALL)
        assert a.content_digest() == b.content_digest()

    def test_cross_engine_boards_bit_identical(self):
        boards = run_cross_engine_tournament(
            scenarios=("bursty",),
            policies=("k-rad", "list-sched", "env-greedy"),
            seed=1,
            num_jobs=5,
            capacities=CAPS,
        )
        ref, fast = boards["reference"], boards["fast"]
        assert ref.engine == "reference" and fast.engine == "fast"
        assert ref.content_digest() == fast.content_digest()
        assert ref.content_digest(
            ignore_engine=False
        ) != fast.content_digest(ignore_engine=False)

    def test_cross_engine_needs_two_engines(self):
        with pytest.raises(ReproError, match=">= 2 engines"):
            run_cross_engine_tournament(engines=("reference",))


class TestLeaderboard:
    def _board(self) -> Leaderboard:
        return run_tournament(**SMALL)

    def test_json_roundtrip(self, tmp_path):
        board = self._board()
        path = tmp_path / "board.json"
        board.dump(path)
        loaded = load_leaderboard(path)
        assert loaded.cells == board.cells
        assert loaded.content_digest() == board.content_digest()

    def test_missing_cell_lookup_raises(self):
        board = self._board()
        with pytest.raises(ReproError, match="no leaderboard cell"):
            board.cell("k-rad", "atlantis")

    def test_ranking_is_sorted_and_total(self):
        board = self._board()
        rows = board.ranking()
        assert [r["policy"] for r in rows] == sorted(
            (r["policy"] for r in rows),
            key=lambda n: (
                next(x["mean_ratio"] for x in rows if x["policy"] == n),
                n,
            ),
        )
        means = [r["mean_ratio"] for r in rows]
        assert means == sorted(means)
        with pytest.raises(ReproError, match="unknown objective"):
            board.ranking("latency")

    def test_compare_passes_against_itself(self):
        board = self._board()
        assert compare_leaderboards(board, board) == []

    def test_compare_flags_ratio_regression(self):
        board = self._board()
        worse = dataclasses.replace(
            board.cells[0],
            makespan_ratio=board.cells[0].makespan_ratio * 1.5,
        )
        current = Leaderboard(
            capacities=board.capacities,
            engine=board.engine,
            seed=board.seed,
            theorem3_limit=board.theorem3_limit,
            cells=[worse] + board.cells[1:],
        )
        failures = compare_leaderboards(current, board)
        assert any("regressed" in f for f in failures)

    def test_compare_flags_missing_cell(self):
        board = self._board()
        current = Leaderboard(
            capacities=board.capacities,
            engine=board.engine,
            seed=board.seed,
            theorem3_limit=board.theorem3_limit,
            cells=board.cells[1:],
        )
        failures = compare_leaderboards(current, board)
        assert any("missing" in f for f in failures)

    def test_compare_refuses_different_machines(self):
        board = self._board()
        other = Leaderboard(
            capacities=(8, 8),
            engine=board.engine,
            seed=board.seed,
            theorem3_limit=board.theorem3_limit,
        )
        failures = compare_leaderboards(other, board)
        assert failures and "capacities changed" in failures[0]


class TestEnv:
    def test_clip_action_clamps_into_the_polytope(self):
        machine = KResourceMachine((3, 2))
        desires = {
            0: np.array([5, 2]),
            1: np.array([5, 2]),
        }
        action = np.array([[99, -7], [99, 99]])
        out = clip_action(machine, desires, action)
        assert out[0].tolist() == [3, 0]  # capacity-clamped, negative->0
        assert out[1].tolist() == [0, 2]  # earlier arrival claimed cat 0

    def test_clip_action_rejects_unknown_ids_and_bad_shapes(self):
        machine = KResourceMachine((3, 2))
        desires = {0: np.array([1, 1])}
        with pytest.raises(ScheduleError, match="unknown job ids"):
            clip_action(machine, desires, {7: np.array([1, 1])})
        with pytest.raises(ScheduleError, match="shape"):
            clip_action(machine, desires, np.zeros((2, 2)))

    def test_policy_scheduler_is_checkpointable(self):
        sched = PolicyScheduler(GreedyRolloutPolicy())
        assert sched.name == "env-greedy"
        assert sched.state_dict() == {}

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_policy_scheduler_runs_speed_machines(self, engine):
        """A policy runs on the engines, so it sees what they model: a
        3x category finishes this job set at step 57, not 63."""
        js = random_phase_jobset(
            np.random.default_rng(3), 2, 6, max_phases=3, max_work=16
        )
        makespans = [
            simulate(
                KResourceMachine((2, 2), speeds=speeds),
                PolicyScheduler(GreedyRolloutPolicy()),
                js,
                seed=0,
                engine=engine,
            ).makespan
            for speeds in ((1, 1), (1, 3))
        ]
        assert makespans == [63, 57]
