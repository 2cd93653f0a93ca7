"""Resilience primitives: retry budgets, circuit breaker, degradation
ladder, watchdog supervision, and the deterministic chaos schedule."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.errors import CircuitOpenError, DeadlineExceeded, ServiceError
from repro.service import (
    SERVICE_STATES,
    ChaosConfig,
    ChaosSchedule,
    CircuitBreaker,
    ResilienceConfig,
    RetryBudget,
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


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def _breaker(self, clk, **kw):
        transitions = []
        br = CircuitBreaker(
            clock=clk,
            on_transition=lambda old, new: transitions.append((old, new)),
            **kw,
        )
        return br, transitions

    def test_trips_open_after_consecutive_failures(self):
        clk = FakeClock()
        br, transitions = self._breaker(clk, failure_threshold=3)
        for _ in range(2):
            br.record_failure()
        assert br.state == CircuitBreaker.CLOSED
        br.record_success()  # success resets the streak
        for _ in range(2):
            br.record_failure()
        assert br.state == CircuitBreaker.CLOSED
        br.record_failure()
        assert br.state == CircuitBreaker.OPEN
        assert transitions == [("closed", "open")]

    def test_open_fails_fast_then_half_opens(self):
        clk = FakeClock()
        br, _ = self._breaker(
            clk, failure_threshold=1, reset_timeout_s=2.0
        )
        br.record_failure()
        assert not br.allow()
        with pytest.raises(CircuitOpenError) as exc:
            br.check("submit")
        assert exc.value.op == "submit"
        assert 0 < exc.value.retry_after <= 2.0
        clk.advance(2.0)
        assert br.state == CircuitBreaker.HALF_OPEN
        assert br.allow()  # the single probe
        assert not br.allow()  # concurrent probes refused

    def test_half_open_probe_success_closes(self):
        clk = FakeClock()
        br, transitions = self._breaker(
            clk, failure_threshold=1, reset_timeout_s=1.0
        )
        br.record_failure()
        clk.advance(1.0)
        assert br.allow()
        br.record_success()
        assert br.state == CircuitBreaker.CLOSED
        assert transitions == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]

    def test_half_open_probe_failure_reopens(self):
        clk = FakeClock()
        br, _ = self._breaker(
            clk, failure_threshold=1, reset_timeout_s=1.0
        )
        br.record_failure()
        clk.advance(1.0)
        assert br.allow()
        br.record_failure()
        assert br.state == CircuitBreaker.OPEN
        assert br.retry_after() == pytest.approx(1.0)  # timer restarted

    def test_validation(self):
        with pytest.raises(ServiceError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ServiceError):
            CircuitBreaker(reset_timeout_s=0)


class BreakerMachine(RuleBasedStateMachine):
    """Property: the breaker only ever makes legal transitions, and its
    behaviour (allow/refuse) always matches its advertised state."""

    LEGAL = {
        ("closed", "open"),
        ("open", "half-open"),
        ("half-open", "closed"),
        ("half-open", "open"),
    }

    @initialize(
        threshold=st.integers(min_value=1, max_value=4),
        timeout=st.floats(min_value=0.5, max_value=4.0),
    )
    def setup(self, threshold, timeout):
        self.clk = FakeClock()
        self.transitions = []
        self.br = CircuitBreaker(
            failure_threshold=threshold,
            reset_timeout_s=timeout,
            clock=self.clk,
            on_transition=lambda old, new: self.transitions.append(
                (old, new)
            ),
        )

    @rule()
    def success(self):
        self.br.record_success()

    @rule()
    def failure(self):
        self.br.record_failure()

    @rule(s=st.floats(min_value=0.0, max_value=5.0))
    def tick(self, s):
        self.clk.advance(s)

    @rule()
    def probe_gate(self):
        state = self.br.state
        allowed = self.br.allow()
        if state == CircuitBreaker.OPEN:
            assert not allowed
        if state == CircuitBreaker.CLOSED:
            assert allowed

    @invariant()
    def only_legal_transitions(self):
        for old, new in self.transitions:
            assert (old, new) in self.LEGAL, (old, new)

    @invariant()
    def open_implies_retry_hint(self):
        if self.br._state == CircuitBreaker.OPEN:
            assert self.br.retry_after() >= 0.0
        else:
            assert self.br.retry_after() == 0.0


def test_breaker_state_machine():
    run_state_machine_as_test(
        BreakerMachine,
        settings=settings(max_examples=40, deadline=None),
    )


# ----------------------------------------------------------------------
# degradation ladder
# ----------------------------------------------------------------------
class TestResilienceConfig:
    def test_state_codes_cover_ladder(self):
        assert [service_state_code(s) for s in SERVICE_STATES] == [
            0,
            1,
            2,
            3,
            4,
        ]
        with pytest.raises(ServiceError):
            service_state_code("on-fire")

    def test_default_config_is_advisory_only(self):
        cfg = ResilienceConfig()
        base = dict(
            journal_latency_s=0.0,
            recovering=False,
            read_only=False,
            draining=False,
        )
        assert cfg.classify(depth_frac=0.0, **base) == "healthy"
        assert cfg.classify(depth_frac=0.9, **base) == "degraded"
        # never shedding/read-only without explicit thresholds
        assert cfg.classify(depth_frac=1.0, **base) == "degraded"

    def test_worst_rung_wins(self):
        cfg = ResilienceConfig(
            degraded_depth_frac=0.5,
            shed_depth_frac=0.9,
            journal_degraded_s=0.1,
            journal_read_only_s=1.0,
        )
        assert (
            cfg.classify(
                depth_frac=1.0,
                journal_latency_s=2.0,
                recovering=True,
                read_only=False,
                draining=True,
            )
            == "draining"
        )
        assert (
            cfg.classify(
                depth_frac=1.0,
                journal_latency_s=2.0,
                recovering=True,
                read_only=False,
                draining=False,
            )
            == "read-only"
        )
        assert (
            cfg.classify(
                depth_frac=0.95,
                journal_latency_s=0.0,
                recovering=True,
                read_only=False,
                draining=False,
            )
            == "shedding"
        )
        assert (
            cfg.classify(
                depth_frac=0.0,
                journal_latency_s=0.0,
                recovering=True,
                read_only=False,
                draining=False,
            )
            == "degraded"
        )

    def test_validation(self):
        with pytest.raises(ServiceError):
            ResilienceConfig(degraded_depth_frac=0.0)
        with pytest.raises(ServiceError):
            ResilienceConfig(shed_depth_frac=1.5)
        with pytest.raises(ServiceError):
            ResilienceConfig(journal_read_only_s=-1)


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
