"""Resilience primitives: retry budgets, service states, watchdog
supervision, and the deterministic chaos schedule."""

import socket
import time

import numpy as np
import pytest

from repro.errors import DeadlineExceeded, ServiceError
from repro.io.serialize import job_to_dict
from repro.jobs import workloads
from repro.obs import Observability
from repro.service import (
    SERVICE_STATES,
    ChaosConfig,
    ChaosSchedule,
    RetryBudget,
    SchedulingService,
    ServiceClient,
    ServiceConfig,
    ThreadedServer,
    Watchdog,
    service_state_code,
)


class FakeClock:
    """Injectable monotonic clock; sleep() advances it, nothing waits."""

    def __init__(self):
        self.now = 0.0
        self.slept: list[float] = []

    def __call__(self) -> float:
        return self.now

    def sleep(self, s: float) -> None:
        self.slept.append(s)
        self.now += s

    def advance(self, s: float) -> None:
        self.now += s


# ----------------------------------------------------------------------
# retry budget
# ----------------------------------------------------------------------
class TestRetryBudget:
    def test_attempt_budget_raises_typed_deadline(self):
        clk = FakeClock()
        budget = RetryBudget(max_attempts=3, max_elapsed_s=100.0, seed=0)
        session = budget.session("op", clock=clk, sleep=clk.sleep)
        for _ in range(3):
            session.charge()
            session.backoff(last_error="boom")
        with pytest.raises(DeadlineExceeded) as exc:
            session.charge()
        err = exc.value
        assert err.op == "op"
        assert err.attempts == 3
        assert err.elapsed == pytest.approx(sum(clk.slept))
        assert err.last_error == "boom"
        assert isinstance(err, ServiceError)  # catchable as the base

    def test_wall_clock_budget_raises(self):
        clk = FakeClock()
        budget = RetryBudget(max_attempts=1000, max_elapsed_s=5.0, seed=0)
        session = budget.session("op", clock=clk, sleep=clk.sleep)
        session.charge()
        clk.advance(5.0)
        with pytest.raises(DeadlineExceeded, match="deadline"):
            session.charge()

    def test_backoff_is_exponential_and_capped(self):
        clk = FakeClock()
        budget = RetryBudget(
            max_attempts=10,
            max_elapsed_s=1e9,
            base_backoff_s=0.1,
            max_backoff_s=0.5,
            multiplier=2.0,
            jitter=0.0,
        )
        session = budget.session("op", clock=clk, sleep=clk.sleep)
        delays = []
        for _ in range(5):
            session.charge()
            delays.append(session.next_delay())
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]  # doubled then capped

    def test_retry_after_hint_scales_delay(self):
        clk = FakeClock()
        budget = RetryBudget(
            max_attempts=10,
            max_elapsed_s=1e9,
            base_backoff_s=0.01,
            max_backoff_s=10.0,
            jitter=0.0,
        )
        session = budget.session("op", clock=clk, sleep=clk.sleep)
        session.charge()
        assert session.next_delay(retry_after=8) == pytest.approx(0.08)

    def test_jitter_is_seed_deterministic_and_bounded(self):
        def delays(seed):
            clk = FakeClock()
            budget = RetryBudget(
                max_attempts=6,
                max_elapsed_s=1e9,
                base_backoff_s=0.1,
                max_backoff_s=100.0,
                jitter=0.25,
                seed=seed,
            )
            session = budget.session("op", clock=clk, sleep=clk.sleep)
            out = []
            for _ in range(6):
                session.charge()
                out.append(session.next_delay())
            return out

        assert delays(7) == delays(7)  # reproducible
        assert delays(7) != delays(8)  # actually jittered
        clean = [0.1 * 2**i for i in range(6)]
        for d, base in zip(delays(7), clean):
            assert 0.75 * base <= d <= 1.25 * base

    def test_delay_never_exceeds_remaining_budget(self):
        clk = FakeClock()
        budget = RetryBudget(
            max_attempts=100,
            max_elapsed_s=1.0,
            base_backoff_s=10.0,  # hint far past the deadline
            max_backoff_s=100.0,
            jitter=0.0,
        )
        session = budget.session("op", clock=clk, sleep=clk.sleep)
        session.charge()
        clk.advance(0.9)
        assert session.next_delay() <= 0.1 + 1e-9

    def test_validation(self):
        with pytest.raises(ServiceError):
            RetryBudget(max_attempts=0)
        with pytest.raises(ServiceError):
            RetryBudget(max_elapsed_s=0)
        with pytest.raises(ServiceError):
            RetryBudget(jitter=1.0)

    def test_every_charged_attempt_dials_once(self, monkeypatch):
        # Against a closed port each attempt the budget charges is one
        # dial: nothing else spends the budget or waits between dials.
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        dials = []
        dial = socket.create_connection

        def counting_dial(*args, **kwargs):
            dials.append(time.monotonic())
            return dial(*args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", counting_dial)
        cli = ServiceClient(
            ("127.0.0.1", port),
            timeout=1.0,
            retry=RetryBudget(max_attempts=20, max_backoff_s=0.01),
        )
        dials.clear()  # the constructor's own dial
        with pytest.raises(DeadlineExceeded) as exc:
            cli.ping()
        assert len(dials) == 20
        assert exc.value.attempts == 20
        assert exc.value.op == "ping"
        assert "cannot connect" in exc.value.last_error

    def test_client_built_while_down_dials_on_its_next_request(self):
        # The constructor's failed dial is tolerated under a budget; once
        # the server is up, drain() (which never retries) dials itself.
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        cli = ServiceClient(
            ("127.0.0.1", port),
            timeout=5.0,
            retry=RetryBudget(max_attempts=2, max_backoff_s=0.01),
        )
        svc = SchedulingService(
            ServiceConfig(capacities=(4, 2)), obs=Observability()
        )
        with ThreadedServer(svc, port=port), cli:
            assert cli.drain()["ok"]


# ----------------------------------------------------------------------
# service states
# ----------------------------------------------------------------------
def _fill(svc, n, seed=0):
    """Submit ``n`` jobs; with no tick they all stay in flight."""
    jobs = workloads.random_phase_jobset(
        np.random.default_rng(seed), 2, n, max_work=6
    ).jobs
    for job in jobs:
        assert svc.submit("t", job_to_dict(job))["ok"]


class TestResilienceConfig:
    """The states a :class:`ServiceConfig` reaches: ``degraded`` while a
    recovery is unconfirmed or in-flight jobs reach 0.8 of
    ``max_in_flight``, ``draining`` once a drain was asked, else
    ``healthy``."""

    def _config(self, **kw):
        return ServiceConfig(
            capacities=(4, 2), max_in_flight=5, tenant_quota=5, **kw
        )

    def test_state_codes_cover_ladder(self):
        assert [service_state_code(s) for s in SERVICE_STATES] == [0, 1, 2]
        assert SERVICE_STATES == ("healthy", "degraded", "draining")
        with pytest.raises(ServiceError):
            service_state_code("on-fire")

    def test_default_config_is_advisory_only(self):
        svc = SchedulingService(self._config(), obs=Observability())
        _fill(svc, 3)
        assert svc.service_state() == "healthy"  # 3 of 5 in flight
        _fill(svc, 1, seed=1)
        assert svc.service_state() == "degraded"  # 4 of 5: the 0.8 line
        # degraded never refuses: the fifth job is admitted, and only
        # the max_in_flight wall turns the sixth away
        _fill(svc, 1, seed=2)
        assert svc.service_state() == "degraded"
        job = workloads.random_phase_jobset(
            np.random.default_rng(3), 2, 1
        ).jobs[0]
        rej = svc.submit("t", job_to_dict(job))
        assert (rej["ok"], rej["reason"]) == (False, "backpressure")
        assert svc.stats()["state"] == "degraded"

    def test_worst_rung_wins(self, tmp_path):
        config = self._config(
            journal_path=str(tmp_path / "svc.journal"), fsync=False
        )
        svc = SchedulingService(config, obs=Observability())
        _fill(svc, 1)
        assert svc.service_state() == "healthy"
        svc.close()  # a crash: the journal keeps the acked submission
        svc = SchedulingService.recover(config, obs=Observability())
        assert svc.total_in_flight() == 1
        assert svc.service_state() == "degraded"  # recovery unconfirmed
        _fill(svc, 3, seed=1)  # and 4 of 5 in flight as well
        assert svc.service_state() == "degraded"
        # a drain outranks both: the recovery is still unconfirmed
        svc.drain()
        assert svc._recovering
        assert svc.service_state() == "draining"
        assert svc.health()["state_code"] == 2

    def test_a_completed_tick_confirms_recovery(self, tmp_path):
        config = self._config(
            journal_path=str(tmp_path / "svc.journal"), fsync=False
        )
        svc = SchedulingService(config, obs=Observability())
        _fill(svc, 1)
        svc.close()
        svc = SchedulingService.recover(config, obs=Observability())
        assert svc.service_state() == "degraded"
        svc.tick()
        assert svc.service_state() == "healthy"
        assert svc._state_changes == 2  # degraded, then healthy
        svc.close()


# ----------------------------------------------------------------------
# watchdog
# ----------------------------------------------------------------------
class FakeProc:
    def __init__(self, rc_schedule):
        """``rc_schedule``: values poll() returns in turn (None = alive);
        the last value repeats forever."""
        self.rcs = list(rc_schedule)
        self.killed = False

    def poll(self):
        if len(self.rcs) > 1:
            return self.rcs.pop(0)
        return self.rcs[0]

    def kill(self):
        self.killed = True
        self.rcs = [-9]


class TestWatchdog:
    def _dog(self, procs, probes, **kw):
        """Watchdog over scripted processes and probe answers."""
        clk = FakeClock()
        events = []
        spawned = []

        def spawn():
            spawned.append(procs.pop(0))
            return spawned[-1]

        def probe():
            return probes.pop(0) if probes else True

        kw.setdefault("probe_interval_s", 0.1)
        kw.setdefault("grace_s", 0.0)
        kw.setdefault("recovery_deadline_s", 1.0)
        dog = Watchdog(
            spawn,
            probe,
            clock=clk,
            sleep=clk.sleep,
            on_event=lambda kind, detail: events.append(kind),
            **kw,
        )
        return dog, events, spawned

    def test_clean_exit_ends_supervision(self):
        dog, events, _ = self._dog([FakeProc([None, 0])], [True])
        assert dog.run() == 0
        assert events == ["spawn", "exit"]
        assert dog.restarts == 0

    def test_drained_with_failures_exit_code_passes_through(self):
        dog, _, _ = self._dog([FakeProc([None, 1])], [True])
        assert dog.run() == 1

    def test_crash_restarts_then_clean_exit(self):
        dog, events, _ = self._dog(
            [FakeProc([None, -9]), FakeProc([None, 0])],
            [True, True],
            max_restarts=2,
        )
        assert dog.run() == 0
        assert dog.restarts == 1
        assert "restart" in events

    def test_hang_kills_and_restarts(self):
        hung = FakeProc([None])
        dog, events, spawned = self._dog(
            [hung, FakeProc([None, 0])],
            [True] + [False] * 3 + [True, True],
            hang_probes=3,
            max_restarts=2,
        )
        assert dog.run() == 0
        assert hung.killed
        assert "hang" in events
        assert dog.restarts == 1
        assert len(spawned) == 2

    def test_restart_budget_exhausted_gives_up(self):
        dog, events, _ = self._dog(
            [FakeProc([-9]), FakeProc([-9]), FakeProc([-9])],
            [True],
            max_restarts=2,
        )
        assert dog.run() == 3
        assert dog.restarts == 2
        assert events[-1] == "giveup"

    def test_recovery_deadline_bounds_restart(self):
        # The replacement never answers a probe: the deadline expires,
        # the budget drains, the watchdog gives up with rc 3.
        dog, events, spawned = self._dog(
            [FakeProc([None, -9]), FakeProc([None]), FakeProc([None])],
            [True] + [False] * 1000,
            max_restarts=2,
            recovery_deadline_s=0.5,
        )
        assert dog.run() == 3
        assert all(p.killed for p in spawned[1:])
        assert events[-1] == "giveup"

    def test_initial_start_must_answer(self):
        dog, events, _ = self._dog(
            [FakeProc([None])], [False] * 1000, recovery_deadline_s=0.3
        )
        assert dog.run() == 3
        assert events == ["spawn", "giveup"]

    def _exiting_dog(self, procs, probes, **kw):
        """A watchdog whose probe answers only as scripted; it keeps
        each event's detail, and the clock records every sleep."""
        clk = FakeClock()
        events = []
        dog = Watchdog(
            lambda: procs.pop(0),
            lambda: probes.pop(0) if probes else False,
            probe_interval_s=0.25,
            recovery_deadline_s=30.0,
            clock=clk,
            sleep=clk.sleep,
            on_event=lambda kind, detail: events.append((kind, detail)),
            **kw,
        )
        return dog, events, clk

    def test_initial_start_that_exits_gives_up_at_once(self):
        # e.g. a child refusing its configuration: no 30 s wait
        dog, events, clk = self._exiting_dog([FakeProc([2])], [])
        assert dog.run() == 3
        assert clk.slept == []
        assert [kind for kind, _ in events] == ["spawn", "giveup"]
        assert "exited with code 2" in events[-1][1]

    def test_replacement_that_exits_fails_at_once(self):
        # the first start answers, then crashes; both replacements exit
        # before answering and each consumes a restart at once
        dog, events, clk = self._exiting_dog(
            [FakeProc([-9]), FakeProc([2]), FakeProc([2])],
            [True],
            max_restarts=2,
        )
        assert dog.run() == 3
        assert dog.restarts == 2
        assert clk.slept == []
        assert [kind for kind, _ in events] == [
            "spawn", "restart", "restart", "giveup",
        ]
        for _, detail in events[2:]:
            assert "replacement exited with code 2" in detail


# ----------------------------------------------------------------------
# chaos schedule
# ----------------------------------------------------------------------
class TestChaosSchedule:
    def test_fault_plan_is_pure_function_of_seed_and_index(self):
        cfg = ChaosConfig(
            seed=42,
            drop_rate=0.2,
            delay_rate=0.2,
            corrupt_rate=0.2,
            disconnect_rate=0.2,
        )
        a = [ChaosSchedule(cfg).fault_at(i) for i in range(200)]
        b = [ChaosSchedule(cfg).fault_at(i) for i in range(200)]
        assert a == b
        other = ChaosConfig(
            seed=43,
            drop_rate=0.2,
            delay_rate=0.2,
            corrupt_rate=0.2,
            disconnect_rate=0.2,
        )
        c = [ChaosSchedule(other).fault_at(i) for i in range(200)]
        assert a != c

    def test_next_fault_matches_fault_at(self):
        cfg = ChaosConfig(seed=3, drop_rate=0.3, delay_rate=0.3)
        sched = ChaosSchedule(cfg)
        live = [sched.next_fault() for _ in range(100)]
        replay = [sched.fault_at(i) for i in range(100)]
        assert live == replay
        assert sched.messages == 100
        assert sched.injected["drop"] == sum(
            1 for f in live if f and f.kind == "drop"
        )

    def test_disarming_one_rate_keeps_other_assignments(self):
        # One draw per fault type in fixed order: turning corruption off
        # never reshuffles which messages get dropped.
        on = ChaosConfig(seed=9, drop_rate=0.3, corrupt_rate=0.3)
        off = ChaosConfig(seed=9, drop_rate=0.3, corrupt_rate=0.0)
        sched_on = ChaosSchedule(on)
        sched_off = ChaosSchedule(off)
        for i in range(300):
            f_on, f_off = sched_on.fault_at(i), sched_off.fault_at(i)
            if f_on is not None and f_on.kind == "drop":
                assert f_off is not None and f_off.kind == "drop"

    def test_partition_window_drops_everything(self):
        cfg = ChaosConfig(seed=0, partitions=((5, 10),))
        sched = ChaosSchedule(cfg)
        for i in range(5, 10):
            f = sched.fault_at(i)
            assert f is not None and f.kind == "drop"
        assert sched.fault_at(4) is None
        assert sched.fault_at(10) is None

    def test_corrupt_preserves_framing(self):
        cfg = ChaosConfig(seed=1, corrupt_rate=0.99)
        sched = ChaosSchedule(cfg)
        fault = next(
            f
            for f in (sched.fault_at(i) for i in range(100))
            if f is not None and f.kind == "corrupt"
        )
        line = b'{"ok":true,"job_id":7}\n'
        mangled = ChaosSchedule.corrupt(line, fault)
        assert mangled != line
        assert mangled.endswith(b"\n")  # framing survives
        assert len(mangled) == len(line)

    def test_describe_names_every_fault(self):
        cfg = ChaosConfig(seed=5, drop_rate=0.4, delay_rate=0.4)
        sched = ChaosSchedule(cfg)
        for _ in range(30):
            sched.next_fault()
        text = sched.describe()
        assert "seed=5" in text
        faulted = [
            i for i in range(30) if sched.fault_at(i) is not None
        ]
        for i in faulted:
            assert f"#{i}:" in text

    def test_validation(self):
        with pytest.raises(ServiceError):
            ChaosConfig(drop_rate=1.0)
        with pytest.raises(ServiceError):
            ChaosConfig(max_delay_s=-1)
        with pytest.raises(ServiceError):
            ChaosConfig(partitions=((3, 3),))
        assert not ChaosConfig().active
        assert ChaosConfig(drop_rate=0.1).active
