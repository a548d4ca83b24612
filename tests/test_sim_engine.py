"""Unit tests for the discrete-event kernel (`repro.sim.engine`)."""

import gc

import pytest

from repro.sim import Environment, SimulationError


def test_clock_starts_at_zero():
    assert Environment().now == 0.0


def test_clock_custom_start():
    assert Environment(initial_time=5.0).now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(3.5)
    env.run()
    assert env.now == 3.5


def test_run_until_time_stops_clock_exactly():
    env = Environment()
    env.timeout(10.0)
    env.run(until=4.0)
    assert env.now == 4.0


def test_run_until_time_processes_earlier_events():
    env = Environment()
    seen = []

    def proc(env):
        yield env.timeout(1.0)
        seen.append(env.now)
        yield env.timeout(10.0)
        seen.append(env.now)

    env.process(proc(env))
    env.run(until=5.0)
    assert seen == [1.0]
    assert env.now == 5.0


def test_run_until_past_raises():
    env = Environment(initial_time=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)
        return "result"

    p = env.process(proc(env))
    assert env.run(until=p) == "result"
    assert env.now == 2.0


def test_run_until_event_never_triggering_raises():
    env = Environment()
    ev = env.event()  # never triggered
    env.timeout(1.0)
    with pytest.raises(SimulationError):
        env.run(until=ev)


def test_run_drains_heap_without_until():
    env = Environment()
    env.timeout(1.0)
    env.timeout(2.0)
    env.run()
    assert env.now == 2.0
    assert env.peek() == float("inf")


def test_simultaneous_events_fifo_order():
    env = Environment()
    order = []

    def proc(env, label):
        yield env.timeout(1.0)
        order.append(label)

    for label in "abc":
        env.process(proc(env, label))
    env.run()
    assert order == ["a", "b", "c"]


def test_step_on_empty_heap_raises():
    with pytest.raises(SimulationError):
        Environment().step()


def test_peek_returns_next_event_time():
    env = Environment()
    env.timeout(7.0)
    env.timeout(3.0)
    assert env.peek() == 3.0


def test_nested_process_spawning():
    env = Environment()
    finished = []

    def child(env, i):
        yield env.timeout(i)
        finished.append(i)

    def parent(env):
        yield env.timeout(1.0)
        children = [env.process(child(env, i)) for i in (3, 1, 2)]
        yield env.all_of(children)
        finished.append("parent")

    env.process(parent(env))
    env.run()
    assert finished == [1, 2, 3, "parent"]
    assert env.now == 4.0


def test_unhandled_process_exception_propagates_from_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise RuntimeError("boom")

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


def test_exception_in_awaited_process_propagates_to_waiter():
    env = Environment()
    caught = []

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("inner")

    def waiter(env, target):
        try:
            yield target
        except ValueError as exc:
            caught.append(str(exc))

    target = env.process(bad(env))
    env.process(waiter(env, target))
    env.run()
    assert caught == ["inner"]


# ------------------------------------------------ cyclic collector pause
@pytest.fixture
def collector_on():
    """Start with the collector enabled; leave it as the test found it."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


def _recording_process(env, seen):
    seen.append(gc.isenabled())
    yield env.timeout(1.0)
    seen.append(gc.isenabled())


@pytest.mark.parametrize("until", [None, 5.0, "event"])
def test_run_pauses_collector_and_restores_it(collector_on, until):
    env = Environment()
    seen = []
    process = env.process(_recording_process(env, seen))
    env.timeout(2.0)
    env.run(until=process if until == "event" else until)
    assert seen == [False, False]
    assert gc.isenabled()


def test_run_restores_collector_when_model_raises(collector_on):
    env = Environment()
    seen = []

    def bad(env):
        seen.append(gc.isenabled())
        yield env.timeout(1.0)
        raise RuntimeError("boom")

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()
    assert seen == [False]
    assert gc.isenabled()


def test_run_leaves_a_disabled_collector_disabled(collector_on):
    env = Environment()
    seen = []
    env.process(_recording_process(env, seen))
    gc.disable()
    env.run()
    assert seen == [False, False]
    assert not gc.isenabled()


def test_step_never_touches_collector(collector_on):
    env = Environment()
    seen = []
    env.process(_recording_process(env, seen))
    while env.peek() != float("inf"):
        env.step()
    assert seen == [True, True]
    gc.disable()
    env = Environment()
    seen.clear()
    env.process(_recording_process(env, seen))
    while env.peek() != float("inf"):
        env.step()
    assert seen == [False, False]


# ------------------------------------------------------------- close()
def test_close_abandons_suspended_processes_in_creation_order():
    env = Environment()
    cleaned = []
    gate = env.event()

    def sleeper(env, name, wait):
        try:
            yield wait(env)
        finally:
            cleaned.append(name)

    def finisher(env):
        yield env.hold(1.0)

    done = env.process(finisher(env))
    held = env.process(sleeper(env, "hold", lambda env: env.hold(50.0)))
    waiting = env.process(sleeper(env, "event", lambda env: gate))
    env.timeout(100.0)
    env.run(until=10.0)
    assert done.processed and held.is_alive and waiting.is_alive
    env.close()
    assert cleaned == ["hold", "event"]
    assert gate.callbacks == []  # the waiter detached
    assert env.peek() == float("inf")
    assert env.now == 10.0
    assert not held.triggered  # abandoned, never resumed or triggered


def test_close_from_inside_a_process_is_rejected():
    env = Environment()

    def proc(env):
        env.close()
        yield env.hold(1.0)

    env.process(proc(env))
    with pytest.raises(SimulationError, match="inside a process"):
        env.run()
