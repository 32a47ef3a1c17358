"""Unit tests for the service building blocks: deadlines, circuit
breakers, retry/backoff, the health state machine, admission control,
scenario events — plus the GA wall-clock stopping rule and the runner's
non-main-thread timeout guard that the service depends on.

Everything time-dependent runs on injected fake clocks/sleeps: no test
in this file ever actually waits.
"""

from __future__ import annotations

import threading
import warnings

import numpy as np
import pytest

from repro.core.exceptions import ModelError
from repro.genitor import StoppingRules
from repro.genitor.stopping import StopTracker
from repro.parallel import RetryError, RetryPolicy, backoff_delays, retry_call
from repro.service import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    Deadline,
    DriftStep,
    FaultsCleared,
    HealthConfig,
    HealthMonitor,
    HealthState,
    PlatformFault,
    QueuedRequest,
    RequestQueue,
    ScenarioConfig,
    StringArrival,
    StringDeparture,
    generate_scenario,
    plan_shedding,
    shed_order,
)
from repro.workload import SCENARIO_3, generate_model


class FakeClock:
    """Monotonic clock the test advances by hand."""

    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# Deadline
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ModelError):
            Deadline(0.0)
        with pytest.raises(ModelError):
            Deadline(-1.0)

    def test_elapsed_and_remaining_follow_the_clock(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        assert deadline.elapsed() == pytest.approx(0.0)
        assert deadline.remaining() == pytest.approx(1.0)
        clock.advance(0.4)
        assert deadline.elapsed() == pytest.approx(0.4)
        assert deadline.remaining() == pytest.approx(0.6)
        assert not deadline.expired

    def test_remaining_clips_at_zero_and_expired_at_budget(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(1.0)
        assert deadline.expired  # boundary counts as expired
        clock.advance(5.0)
        assert deadline.remaining() == 0.0
        assert "remaining=0.000" in repr(deadline)


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def make(self, threshold=3, reset=10.0):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "tier",
            BreakerConfig(failure_threshold=threshold, reset_timeout=reset),
            clock=clock,
        )
        return breaker, clock

    def test_config_validation(self):
        with pytest.raises(ModelError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ModelError):
            BreakerConfig(reset_timeout=0.0)

    def test_stays_closed_below_threshold(self):
        breaker, _ = self.make(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()
        assert breaker.n_trips == 0

    def test_success_resets_the_consecutive_count(self):
        breaker, _ = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.consecutive_failures == 1

    def test_trips_open_at_threshold_and_refuses_calls(self):
        breaker, _ = self.make(threshold=3)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert breaker.n_trips == 1

    def test_open_relaxes_to_half_open_after_cooldown(self):
        breaker, clock = self.make(threshold=1, reset=10.0)
        breaker.record_failure()
        clock.advance(9.9)
        assert breaker.state is BreakerState.OPEN
        clock.advance(0.2)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_admits_exactly_one_probe(self):
        breaker, clock = self.make(threshold=1, reset=1.0)
        breaker.record_failure()
        clock.advance(1.5)
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # held until the probe reports back

    def test_successful_probe_closes(self):
        breaker, clock = self.make(threshold=1, reset=1.0)
        breaker.record_failure()
        clock.advance(1.5)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens_and_restarts_cooldown(self):
        breaker, clock = self.make(threshold=1, reset=10.0)
        breaker.record_failure()
        clock.advance(10.5)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.n_trips == 2
        clock.advance(9.0)  # cool-down restarted at the probe failure
        assert breaker.state is BreakerState.OPEN
        clock.advance(1.5)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_lifetime_counters(self):
        breaker, _ = self.make(threshold=2)
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert (breaker.n_successes, breaker.n_failures) == (1, 2)
        assert "open" in repr(breaker)


# ---------------------------------------------------------------------------
# retry / backoff
# ---------------------------------------------------------------------------


class TestRetry:
    def test_policy_validation(self):
        with pytest.raises(ModelError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ModelError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ModelError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ModelError):
            RetryPolicy(jitter=1.0)

    def test_backoff_is_exponential_capped_and_seeded(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.1, multiplier=2.0,
            max_delay=0.3, jitter=0.0,
        )
        delays = list(backoff_delays(policy, np.random.default_rng(0)))
        # one sleep per re-attempt: 0.1, 0.2, then capped at 0.3
        assert delays == pytest.approx([0.1, 0.2, 0.3, 0.3])

    def test_jitter_stays_within_band_and_is_reproducible(self):
        policy = RetryPolicy(max_attempts=6, base_delay=0.1, jitter=0.5)
        first = list(backoff_delays(policy, np.random.default_rng(7)))
        again = list(backoff_delays(policy, np.random.default_rng(7)))
        assert first == again  # RPR002: seeded jitter replays exactly
        for attempt, delay in enumerate(first):
            nominal = min(policy.max_delay, 0.1 * 2.0**attempt)
            assert 0.5 * nominal <= delay <= 1.5 * nominal

    def test_success_on_first_attempt_never_sleeps(self):
        slept: list[float] = []
        result = retry_call(lambda: 42, sleep=slept.append)
        assert result == 42
        assert slept == []

    def test_transient_failures_are_retried_then_succeed(self):
        slept: list[float] = []
        calls = iter([ValueError("x"), ValueError("y"), "ok"])

        def flaky():
            item = next(calls)
            if isinstance(item, Exception):
                raise item
            return item

        result = retry_call(
            flaky, policy=RetryPolicy(max_attempts=3), rng=0,
            sleep=slept.append,
        )
        assert result == "ok"
        assert len(slept) == 2

    def test_exhaustion_raises_retry_error_chained_from_last(self):
        def always():
            raise ValueError("persistent")

        with pytest.raises(RetryError) as info:
            retry_call(
                always, policy=RetryPolicy(max_attempts=2), rng=0,
                sleep=lambda s: None,
            )
        assert isinstance(info.value.__cause__, ValueError)
        assert "2 attempts" in str(info.value)

    def test_unlisted_exceptions_propagate_immediately(self):
        calls: list[int] = []

        def boom():
            calls.append(1)
            raise KeyError("not transient")

        with pytest.raises(KeyError):
            retry_call(boom, retry_on=(ValueError,), sleep=lambda s: None)
        assert calls == [1]  # no retry happened

    def test_give_up_after_stops_retrying_under_deadline_pressure(self):
        calls: list[int] = []

        def failing():
            calls.append(1)
            raise ValueError("x")

        with pytest.raises(RetryError, match="deadline"):
            retry_call(
                failing,
                policy=RetryPolicy(max_attempts=5),
                rng=0,
                sleep=lambda s: None,
                give_up_after=lambda: True,
            )
        assert calls == [1]  # gave up before the first re-attempt


# ---------------------------------------------------------------------------
# HealthMonitor
# ---------------------------------------------------------------------------

GOOD = dict(slackness=0.5, deadline_hit=True, open_breakers=0)


class TestHealth:
    def test_config_validation(self):
        with pytest.raises(ModelError):
            HealthConfig(critical_slack=0.1, degraded_slack=0.05)
        with pytest.raises(ModelError):
            HealthConfig(degraded_miss_rate=0.9, critical_miss_rate=0.5)
        with pytest.raises(ModelError):
            HealthConfig(window=0)
        with pytest.raises(ModelError):
            HealthConfig(recovery_cycles=0)
        with pytest.raises(ModelError):
            HealthConfig(policies={})

    def test_starts_normal_with_full_cascade(self):
        monitor = HealthMonitor()
        assert monitor.state is HealthState.NORMAL
        assert "psg" in monitor.policy.allowed_tiers
        assert monitor.miss_rate == 0.0

    def test_thin_slack_degrades_immediately(self):
        monitor = HealthMonitor()
        state = monitor.observe(
            slackness=0.03, deadline_hit=True, open_breakers=0
        )
        assert state is HealthState.DEGRADED
        assert "psg" not in monitor.policy.allowed_tiers

    def test_critical_slack_jumps_two_levels_at_once(self):
        monitor = HealthMonitor()
        state = monitor.observe(
            slackness=0.005, deadline_hit=True, open_breakers=0
        )
        assert state is HealthState.CRITICAL
        assert monitor.policy.allowed_tiers == frozenset({"mwf", "tf"})

    def test_open_breakers_escalate(self):
        monitor = HealthMonitor()
        assert monitor.observe(0.5, True, 1) is HealthState.DEGRADED
        assert monitor.observe(0.5, True, 2) is HealthState.CRITICAL

    def test_miss_rate_over_window_escalates(self):
        config = HealthConfig(
            window=10, degraded_miss_rate=0.3, critical_miss_rate=0.8
        )
        monitor = HealthMonitor(config)
        monitor.observe(0.5, True, 0)
        monitor.observe(0.5, True, 0)
        state = monitor.observe(0.5, False, 0)  # 1/3 missed
        assert state is HealthState.DEGRADED

    def test_recovery_is_hysteretic_one_level_at_a_time(self):
        config = HealthConfig(recovery_cycles=3)
        monitor = HealthMonitor(config)
        monitor.observe(0.005, True, 0)
        assert monitor.state is HealthState.CRITICAL
        # two healthy cycles are not enough
        monitor.observe(**GOOD)
        monitor.observe(**GOOD)
        assert monitor.state is HealthState.CRITICAL
        # the third steps down exactly one level
        monitor.observe(**GOOD)
        assert monitor.state is HealthState.DEGRADED
        # a fresh streak is needed for the next step
        monitor.observe(**GOOD)
        monitor.observe(**GOOD)
        assert monitor.state is HealthState.DEGRADED
        monitor.observe(**GOOD)
        assert monitor.state is HealthState.NORMAL

    def test_unhealthy_observation_resets_the_streak(self):
        monitor = HealthMonitor(HealthConfig(recovery_cycles=2))
        monitor.observe(0.005, True, 0)
        monitor.observe(**GOOD)
        monitor.observe(slackness=0.005, deadline_hit=True, open_breakers=0)
        monitor.observe(**GOOD)
        assert monitor.state is HealthState.CRITICAL  # streak was reset

    def test_history_records_one_state_per_observation(self):
        monitor = HealthMonitor()
        monitor.observe(**GOOD)
        monitor.observe(0.03, True, 0)
        assert monitor.history == [
            HealthState.NORMAL, HealthState.DEGRADED,
        ]


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_queue_pops_highest_worth_first(self):
        queue = RequestQueue()
        queue.push(QueuedRequest(0, worth=10.0))
        queue.push(QueuedRequest(1, worth=30.0))
        queue.push(QueuedRequest(2, worth=20.0))
        assert [queue.pop().service_id for _ in range(3)] == [1, 2, 0]

    def test_equal_worth_ties_break_fifo(self):
        queue = RequestQueue()
        for sid in (5, 3, 9):
            queue.push(QueuedRequest(sid, worth=7.0))
        assert [queue.pop().service_id for _ in range(3)] == [5, 3, 9]

    def test_len_bool_peek_and_counter(self):
        queue = RequestQueue()
        assert not queue and len(queue) == 0
        queue.push(QueuedRequest(1, 1.0))
        assert queue and len(queue) == 1
        assert queue.peek().service_id == 1
        assert len(queue) == 1  # peek does not consume
        assert queue.n_enqueued == 1

    def test_shed_order_is_ascending_worth_ties_by_id(self):
        worths = {3: 5.0, 1: 2.0, 2: 5.0, 0: 9.0}
        assert shed_order(worths) == [1, 2, 3, 0]

    def test_plan_shedding_noop_when_already_above_floor(self):
        shed, slack = plan_shedding(
            [0, 1], {0: 1.0, 1: 2.0}, lambda kept: 0.5, floor=0.1
        )
        assert shed == []
        assert slack == 0.5

    def test_plan_shedding_drops_cheapest_until_floor_restored(self):
        # slackness grows as load drops: 0.01 with 3 active, 0.05 with
        # 2, 0.2 with 1 — a floor of 0.1 costs exactly the two cheapest
        table = {3: 0.01, 2: 0.05, 1: 0.2, 0: 1.0}

        def project(kept: frozenset) -> float:
            return table[len(kept)]

        shed, slack = plan_shedding(
            [0, 1, 2], {0: 9.0, 1: 1.0, 2: 4.0}, project, floor=0.1
        )
        assert shed == [1, 2]  # lowest worth first
        assert slack == 0.2

    def test_plan_shedding_keeps_dropping_while_infeasible(self):
        # None (= infeasible) must never satisfy the floor
        def project(kept: frozenset):
            return None if len(kept) > 1 else 0.3

        shed, slack = plan_shedding(
            [0, 1, 2], {0: 3.0, 1: 1.0, 2: 2.0}, project, floor=0.0
        )
        assert shed == [1, 2]
        assert slack == 0.3

    def test_plan_shedding_can_exhaust_everything(self):
        shed, slack = plan_shedding(
            [0, 1], {0: 1.0, 1: 2.0}, lambda kept: None, floor=0.1
        )
        assert shed == [0, 1]
        assert slack is None


# ---------------------------------------------------------------------------
# scenario events
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def catalog():
    return generate_model(
        SCENARIO_3.scaled(n_strings=6, n_machines=5), seed=11
    )


class TestEvents:
    def test_drift_step_rejects_nonpositive_factors(self):
        with pytest.raises(ModelError):
            DriftStep((1.0, 0.0, 1.1))
        with pytest.raises(ModelError):
            DriftStep((-0.5,))

    def test_scenario_config_validation(self):
        with pytest.raises(ModelError):
            ScenarioConfig(p_arrival=-0.1)
        with pytest.raises(ModelError):
            ScenarioConfig(drift_sigma=-1.0)
        with pytest.raises(ModelError):
            ScenarioConfig(degraded_capacity=(0.0, 0.5))
        with pytest.raises(ModelError):
            ScenarioConfig(min_surviving_machines=0)

    def test_generate_scenario_is_deterministic_per_seed(self, catalog):
        first = generate_scenario(catalog, 30, rng=7)
        again = generate_scenario(catalog, 30, rng=7)
        other = generate_scenario(catalog, 30, rng=8)
        assert first == again
        assert first != other
        assert len(first) == 30

    def test_event_kinds_and_descriptions(self, catalog):
        events = generate_scenario(catalog, 50, rng=3)
        kinds = {event.kind for event in events}
        assert kinds <= {
            "arrival", "departure", "fault", "faults-cleared", "drift",
        }
        for event in events:
            assert event.describe()

    def test_fault_only_stream_respects_surviving_floor(self, catalog):
        config = ScenarioConfig(
            p_arrival=0, p_departure=0, p_fault=1.0, p_clear=0, p_drift=0,
            min_surviving_machines=2,
        )
        events = generate_scenario(catalog, 40, rng=5, config=config)
        failures = {
            e.fault.machine
            for e in events
            if isinstance(e, PlatformFault)
            and e.fault.kind == "machine-failure"
        }
        assert len(failures) <= catalog.n_machines - 2

    def test_clear_resets_the_failed_set(self, catalog):
        config = ScenarioConfig(
            p_arrival=0, p_departure=0, p_fault=0.8, p_clear=0.2, p_drift=0,
        )
        events = generate_scenario(catalog, 120, rng=9, config=config)
        assert any(isinstance(e, FaultsCleared) for e in events)
        # between clears the *accumulated* failure set stays bounded
        failed: set[int] = set()
        for event in events:
            if isinstance(event, FaultsCleared):
                failed.clear()
            elif (
                isinstance(event, PlatformFault)
                and event.fault.kind == "machine-failure"
            ):
                failed.add(event.fault.machine)
            assert len(failed) <= catalog.n_machines - 2

    def test_arrival_departure_reference_catalog_services(self, catalog):
        config = ScenarioConfig(
            p_arrival=0.5, p_departure=0.5, p_fault=0, p_clear=0, p_drift=0,
        )
        for event in generate_scenario(catalog, 30, rng=1, config=config):
            assert isinstance(event, (StringArrival, StringDeparture))
            assert 0 <= event.service_id < catalog.n_strings


# ---------------------------------------------------------------------------
# the GA wall-clock stopping rule (what makes PSG an anytime tier)
# ---------------------------------------------------------------------------


class _StubPopulation:
    def converged(self) -> bool:  # pragma: no cover - never reached
        raise AssertionError("convergence scan must not run here")


class TestWallClockStopping:
    def test_rules_reject_nonpositive_wall_budget(self):
        with pytest.raises(ValueError):
            StoppingRules(max_wall_seconds=0.0)
        with pytest.raises(ValueError):
            StoppingRules(max_wall_seconds=-1.0)
        assert StoppingRules(max_wall_seconds=None).max_wall_seconds is None

    def test_deadline_fires_when_the_clock_runs_out(self):
        clock = FakeClock()
        tracker = StopTracker(
            StoppingRules(max_wall_seconds=1.0), clock=clock
        )
        assert not tracker.update(_StubPopulation(), elite_changed=True)
        clock.advance(2.0)
        assert tracker.update(_StubPopulation(), elite_changed=True)
        assert tracker.reason == "deadline"

    def test_deadline_beats_the_paper_rules_when_both_hold(self):
        # an expired budget wins even on an iteration where the
        # max-iterations rule would also fire
        clock = FakeClock()
        tracker = StopTracker(
            StoppingRules(max_iterations=1, max_wall_seconds=0.5),
            clock=clock,
        )
        clock.advance(1.0)
        assert tracker.update(_StubPopulation(), elite_changed=True)
        assert tracker.reason == "deadline"

    def test_unbounded_rules_never_fire_on_time(self):
        clock = FakeClock()
        tracker = StopTracker(StoppingRules(), clock=clock)
        clock.advance(10_000.0)
        assert not tracker.update(_StubPopulation(), elite_changed=True)
        assert tracker.reason is None


# ---------------------------------------------------------------------------
# runner guard: per-run timeouts off the main thread
# ---------------------------------------------------------------------------


class TestRunnerThreadGuard:
    def test_off_main_thread_warns_and_runs_without_timeout(self):
        from repro.experiments.runner import _run_deadline

        ran: list[bool] = []
        caught: list[warnings.WarningMessage] = []
        failures: list[BaseException] = []

        def body() -> None:
            try:
                with warnings.catch_warnings(record=True) as log:
                    warnings.simplefilter("always")
                    with _run_deadline(5.0):
                        ran.append(True)
                    caught.extend(log)
            except BaseException as exc:  # pragma: no cover - reported
                failures.append(exc)

        worker = threading.Thread(target=body)
        worker.start()
        worker.join()
        assert failures == []
        assert ran == [True]  # the body still executed
        assert any(
            issubclass(w.category, RuntimeWarning)
            and "main thread" in str(w.message)
            for w in caught
        )

    def test_on_main_thread_no_warning(self):
        from repro.experiments.runner import _run_deadline

        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            with _run_deadline(5.0):
                pass
        assert not any(
            issubclass(w.category, RuntimeWarning) for w in log
        )
