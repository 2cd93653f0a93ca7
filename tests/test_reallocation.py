"""Tests for the reallocation-churn metric."""

import numpy as np

from repro.dag import builders
from repro.jobs import JobSet, workloads
from repro.machine import KResourceMachine
from repro.schedulers import KRad, StaticPartition
from repro.sim import reallocation_volume, simulate
from repro.sim.trace import StepRecord, Trace


class TestReallocationVolume:
    def test_empty_and_single_step(self):
        t = Trace(num_categories=1, capacities=(1,))
        assert reallocation_volume(t) == {"total": 0.0, "per_step": 0.0}
        t.append(
            StepRecord(
                t=1, desires={}, allotments={0: np.asarray([1])}, executed={}
            )
        )
        assert reallocation_volume(t)["total"] == 0.0

    def test_hand_computed(self):
        t = Trace(num_categories=1, capacities=(2,))
        t.append(
            StepRecord(
                t=1,
                desires={},
                allotments={0: np.asarray([2])},
                executed={},
            )
        )
        t.append(
            StepRecord(
                t=2,
                desires={},
                allotments={0: np.asarray([1]), 1: np.asarray([1])},
                executed={},
            )
        )
        v = reallocation_volume(t)
        # job 0: |2-1| = 1; job 1: |0-1| = 1
        assert v["total"] == 2.0
        assert v["per_step"] == 2.0

    def test_constant_allotment_zero_churn(self):
        machine = KResourceMachine((2,))
        js = JobSet.from_dags([builders.chain([0] * 8, 1)])
        r = simulate(machine, KRad(), js, record_trace=True)
        # one serial job: allotment is (1,) every step -> churn 0
        assert reallocation_volume(r.trace)["total"] == 0.0

    def test_static_less_churn_than_krad_under_load(self, rng):
        machine = KResourceMachine((8, 4))
        js = workloads.heavy_phase_jobset(rng, machine, load_factor=3.0)
        krad = simulate(machine, KRad(), js, record_trace=True)
        static = simulate(machine, StaticPartition(), js, record_trace=True)
        assert (
            reallocation_volume(static.trace)["per_step"]
            < reallocation_volume(krad.trace)["per_step"]
        )
