"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    KernelHooks,
    SimulationError,
    Timeout,
)


class TestEnvironmentBasics:
    def test_initial_time(self):
        assert Environment().now == 0.0
        assert Environment(initial_time=5.0).now == 5.0

    def test_timeout_advances_clock(self):
        env = Environment()
        env.timeout(3.5)
        env.run()
        assert env.now == 3.5

    def test_run_until_time_stops_clock_exactly(self):
        env = Environment()
        env.timeout(10.0)
        env.run(until=4.0)
        assert env.now == 4.0

    def test_run_until_past_raises(self):
        env = Environment(initial_time=10.0)
        with pytest.raises(ValueError):
            env.run(until=5.0)

    def test_run_until_nan_raises_before_dispatching(self):
        env = Environment()
        env.timeout(1.0)
        with pytest.raises(ValueError, match="nan"):
            env.run(until=float("nan"))
        assert env.now == 0.0 and env.events_dispatched == 0

    def test_negative_timeout_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_peek_empty_queue(self):
        assert Environment().peek() == float("inf")

    def test_step_empty_queue_raises(self):
        with pytest.raises(SimulationError):
            Environment().step()

    def test_same_time_events_fifo_order(self):
        env = Environment()
        order = []

        def proc(tag):
            yield env.timeout(1.0)
            order.append(tag)

        for tag in ("a", "b", "c"):
            env.process(proc(tag))
        env.run()
        assert order == ["a", "b", "c"]


class TestEvents:
    def test_succeed_carries_value(self):
        env = Environment()
        evt = env.event()
        evt.succeed(42)
        env.run()
        assert evt.processed and evt.ok and evt.value == 42

    def test_double_trigger_raises(self):
        env = Environment()
        evt = env.event()
        evt.succeed()
        with pytest.raises(SimulationError):
            evt.succeed()

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_unhandled_failure_propagates(self):
        env = Environment()
        env.event().fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            env.run()

    def test_defused_failure_does_not_propagate(self):
        env = Environment()
        evt = env.event()
        evt.fail(RuntimeError("boom"))
        evt.defused()
        env.run()  # must not raise


class TestProcesses:
    def test_process_return_value(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)
            return "done"

        p = env.process(proc())
        assert env.run(until=p) == "done"

    def test_sequential_timeouts_accumulate(self):
        env = Environment()
        times = []

        def proc():
            for d in (1.0, 2.0, 3.0):
                yield env.timeout(d)
                times.append(env.now)

        env.process(proc())
        env.run()
        assert times == [1.0, 3.0, 6.0]

    def test_yield_non_event_fails_process(self):
        env = Environment()

        def proc():
            yield 17  # not an Event

        p = env.process(proc())
        with pytest.raises(SimulationError):
            env.run(until=p)

    def test_process_waits_on_another_process(self):
        env = Environment()

        def child():
            yield env.timeout(5.0)
            return "child-result"

        def parent():
            result = yield env.process(child())
            return (env.now, result)

        p = env.process(parent())
        assert env.run(until=p) == (5.0, "child-result")

    def test_exception_in_process_propagates_to_waiter(self):
        env = Environment()

        def child():
            yield env.timeout(1.0)
            raise ValueError("child failed")

        def parent():
            try:
                yield env.process(child())
            except ValueError as e:
                return f"caught: {e}"

        p = env.process(parent())
        assert env.run(until=p) == "caught: child failed"

    def test_requires_generator(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_yield_already_processed_event(self):
        env = Environment()
        evt = env.event()
        evt.succeed("early")
        env.run()

        def proc():
            value = yield evt
            return value

        p = env.process(proc())
        assert env.run(until=p) == "early"


class TestInterrupts:
    def test_interrupt_delivers_cause(self):
        env = Environment()

        def victim():
            try:
                yield env.timeout(100.0)
            except Interrupt as i:
                return ("interrupted", i.cause, env.now)

        def attacker(target):
            yield env.timeout(2.0)
            target.interrupt(cause="power-cap")

        v = env.process(victim())
        env.process(attacker(v))
        assert env.run(until=v) == ("interrupted", "power-cap", 2.0)

    def test_interrupt_finished_process_raises(self):
        env = Environment()

        def quick():
            yield env.timeout(1.0)

        p = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_process_resumes_after_handling_interrupt(self):
        env = Environment()

        def victim():
            try:
                yield env.timeout(100.0)
            except Interrupt:
                pass
            yield env.timeout(3.0)
            return env.now

        def attacker(target):
            yield env.timeout(1.0)
            target.interrupt()

        v = env.process(victim())
        env.process(attacker(v))
        assert env.run(until=v) == 4.0


class TestConditions:
    def test_all_of_waits_for_slowest(self):
        env = Environment()

        def proc():
            t1, t2 = env.timeout(1.0, "a"), env.timeout(5.0, "b")
            result = yield env.all_of([t1, t2])
            return (env.now, sorted(result.values()))

        p = env.process(proc())
        assert env.run(until=p) == (5.0, ["a", "b"])

    def test_any_of_fires_on_first(self):
        env = Environment()

        def proc():
            t1, t2 = env.timeout(1.0, "fast"), env.timeout(5.0, "slow")
            result = yield env.any_of([t1, t2])
            return (env.now, list(result.values()))

        p = env.process(proc())
        assert env.run(until=p) == (1.0, ["fast"])

    def test_all_of_empty_fires_immediately(self):
        env = Environment()
        evt = env.all_of([])
        env.run()
        assert evt.processed and evt.value == {}

    def test_any_of_empty_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.any_of([])

    def test_all_of_mixed_environments_rejected(self):
        env1, env2 = Environment(), Environment()
        t = env2.timeout(1.0)
        with pytest.raises(SimulationError):
            env1.all_of([t])


class TestRunSemantics:
    def test_run_until_event_returns_value(self):
        env = Environment()
        evt = env.timeout(2.5, value="payload")
        assert env.run(until=evt) == "payload"
        assert env.now == 2.5

    def test_run_until_never_fired_event_raises(self):
        env = Environment()
        evt = env.event()  # never triggered
        env.timeout(1.0)
        with pytest.raises(SimulationError):
            env.run(until=evt)

    def test_run_until_time_with_no_events_advances_clock(self):
        env = Environment()
        env.run(until=7.0)
        assert env.now == 7.0


class TestKernelHooks:
    def test_schedule_and_dispatch_hooks_fire_for_every_event(self):
        scheduled, dispatched = [], []
        hooks = KernelHooks(
            on_schedule=lambda ev, at: scheduled.append(at),
            on_dispatch=lambda ev, now: dispatched.append(now),
        )
        env = Environment(hooks=hooks)

        def proc():
            yield env.timeout(1.0)
            yield env.timeout(2.0)

        env.process(proc())
        env.run()
        # Every dispatched event was scheduled first.
        assert len(scheduled) >= len(dispatched) > 0
        # Dispatch times are the kernel clock: non-decreasing.
        assert dispatched == sorted(dispatched)
        assert dispatched[-1] == 3.0

    def test_on_error_hook_sees_unhandled_failure(self):
        errors = []
        env = Environment(hooks=KernelHooks(on_error=lambda exc, ev, now: errors.append((type(exc), now))))
        evt = env.event()
        evt.fail(ValueError("boom"))
        with pytest.raises(ValueError):
            env.run()
        assert errors == [(ValueError, 0.0)]

    def test_attach_hooks_after_construction(self):
        env = Environment()
        seen = []
        env.attach_hooks(KernelHooks(on_dispatch=lambda ev, now: seen.append(now)))
        env.timeout(4.0)
        env.run()
        assert seen == [4.0]

    def test_hookless_behaviour_unchanged(self):
        def proc(env):
            a = yield env.timeout(1.0, "a")
            b = yield env.timeout(2.0, "b")
            return (a, b, env.now)

        bare = Environment()
        hooked = Environment(hooks=KernelHooks())
        p1 = bare.process(proc(bare))
        p2 = hooked.process(proc(hooked))
        assert bare.run(until=p1) == hooked.run(until=p2) == ("a", "b", 3.0)


class TestInterruptAfterCompletion:
    def test_double_interrupt_surfaces_clear_error(self):
        """A second Interrupt delivered after the victim already finished
        must raise a SimulationError naming the completed process, not a
        confusing double-trigger / generator error."""
        env = Environment()

        def victim():
            try:
                yield env.timeout(10.0)
            except Interrupt:
                return "handled"  # finishes on the first interrupt

        def attacker(target):
            yield env.timeout(1.0)
            target.interrupt("first")
            target.interrupt("second")  # victim will be done when this lands

        v = env.process(victim(), name="victim")
        env.process(attacker(v))
        with pytest.raises(SimulationError, match="already-completed process 'victim'"):
            env.run()

    def test_interrupt_finished_process_still_rejected_at_call_time(self):
        env = Environment()

        def quick():
            yield env.timeout(1.0)

        p = env.process(quick())
        env.run()
        with pytest.raises(SimulationError, match="cannot interrupt finished"):
            p.interrupt()
