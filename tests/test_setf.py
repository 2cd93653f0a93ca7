"""Tests for the SETF (least-service-first) scheduler."""

import numpy as np

from repro.jobs import workloads
from repro.machine import KResourceMachine
from repro.schedulers import GreedyFcfs, Setf, check_allotments
from repro.sim import simulate, validate_schedule


def desires(d):
    return {jid: np.asarray(v, dtype=np.int64) for jid, v in d.items()}


class TestSetf:
    def test_newcomer_preempts_old_job(self):
        machine = KResourceMachine((2,))
        s = Setf()
        s.reset(machine)
        s.allocate(1, desires({0: [2]}))  # job 0 accrues service 2
        alloc = s.allocate(2, desires({0: [2], 1: [2]}))
        # newcomer 1 has service 0 -> takes the whole category
        assert alloc[1].tolist() == [2]
        assert 0 not in alloc

    def test_service_balances_over_time(self):
        machine = KResourceMachine((1,))
        s = Setf()
        s.reset(machine)
        served = []
        d = desires({0: [1], 1: [1]})
        for t in range(1, 7):
            alloc = s.allocate(t, d)
            served.append(next(iter(alloc)))
        # strict alternation: the job just served always has more service
        assert served == [0, 1, 0, 1, 0, 1]

    def test_completed_jobs_forgotten(self):
        machine = KResourceMachine((2,))
        s = Setf()
        s.reset(machine)
        s.allocate(1, desires({0: [1], 1: [1]}))
        s.allocate(2, desires({1: [1]}))  # 0 gone
        assert set(s._service) == {1}

    def test_capacity_respected(self, rng):
        machine = KResourceMachine((3, 2))
        s = Setf()
        s.reset(machine)
        for t in range(1, 30):
            d = desires({i: rng.integers(0, 4, size=2) for i in range(6)})
            check_allotments(machine, d, s.allocate(t, d))

    def test_valid_schedules(self, rng):
        machine = KResourceMachine((4, 2))
        js = workloads.random_dag_jobset(rng, 2, 6, size_hint=10)
        r = simulate(machine, Setf(), js, record_trace=True)
        validate_schedule(r.trace, js)

    def test_beats_fcfs_on_elephants_and_mice(self, rng):
        machine = KResourceMachine((8, 4))
        js = workloads.bimodal_phase_jobset(rng, machine, 24)
        setf = simulate(machine, Setf(), js)
        fcfs = simulate(machine, GreedyFcfs(), js)
        assert setf.mean_response_time < fcfs.mean_response_time

    def test_registry(self):
        from repro.schedulers import scheduler_by_name

        assert scheduler_by_name("setf").name == "setf"
