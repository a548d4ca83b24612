"""Unit tests for events, conditions and processes (`repro.sim.event`)."""

import pytest

from repro.sim import Environment, Event, Interrupt


# ---------------------------------------------------------------- events
def test_event_lifecycle():
    env = Environment()
    ev = env.event()
    assert not ev.triggered and not ev.processed
    ev.succeed(42)
    assert ev.triggered and not ev.processed
    env.run()
    assert ev.processed
    assert ev.value == 42


def test_event_value_before_trigger_raises():
    env = Environment()
    with pytest.raises(RuntimeError):
        env.event().value


def test_double_succeed_raises():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(RuntimeError):
        ev.succeed()


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_failed_unhandled_event_raises_at_run():
    env = Environment()
    env.event().fail(RuntimeError("lost"))
    with pytest.raises(RuntimeError, match="lost"):
        env.run()


def test_defused_failed_event_does_not_raise():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("lost"))
    ev.defuse()
    env.run()  # no exception


def test_callback_after_processed_runs_immediately():
    env = Environment()
    ev = env.event()
    ev.succeed("x")
    env.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == ["x"]


def test_negative_timeout_raises():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_timeout_carries_value():
    env = Environment()
    t = env.timeout(1.0, value="payload")
    env.run()
    assert t.value == "payload"


# ------------------------------------------------------------- conditions
def test_all_of_waits_for_all():
    env = Environment()
    t1, t2 = env.timeout(1.0, "a"), env.timeout(2.0, "b")
    done = []

    def proc(env):
        result = yield env.all_of([t1, t2])
        done.append((env.now, sorted(result.values())))

    env.process(proc(env))
    env.run()
    assert done == [(2.0, ["a", "b"])]


def test_any_of_fires_on_first():
    env = Environment()
    t1, t2 = env.timeout(5.0, "slow"), env.timeout(1.0, "fast")
    done = []

    def proc(env):
        result = yield env.any_of([t1, t2])
        done.append((env.now, list(result.values())))

    env.process(proc(env))
    env.run()
    assert done == [(1.0, ["fast"])]


def test_and_or_operators():
    env = Environment()
    t1, t2 = env.timeout(1.0), env.timeout(2.0)
    both = t1 & t2
    either = env.timeout(1.0) | env.timeout(3.0)
    env.run()
    assert both.processed
    assert either.processed


def test_empty_all_of_triggers_immediately():
    env = Environment()
    cond = env.all_of([])
    assert cond.triggered


def test_condition_mixed_environments_rejected():
    env1, env2 = Environment(), Environment()
    with pytest.raises(ValueError):
        env1.all_of([env1.timeout(1), env2.timeout(1)])


# -------------------------------------------------------------- processes
def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_process_yielding_non_event_raises():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(TypeError):
        env.run()


def test_process_is_alive_until_done():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as i:
            log.append(("interrupted", env.now, i.cause))

    def attacker(env, target):
        yield env.timeout(2.0)
        target.interrupt(cause="preempt")

    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run()
    assert log == [("interrupted", 2.0, "preempt")]


def test_interrupt_finished_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt:
            pass
        yield env.timeout(1.0)
        log.append(env.now)

    def attacker(env, target):
        yield env.timeout(2.0)
        target.interrupt()

    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run()
    assert log == [3.0]


def test_join_already_finished_process():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)
        return "done"

    def late_joiner(env, target):
        yield env.timeout(5.0)
        value = yield target
        return value

    p = env.process(quick(env))
    j = env.process(late_joiner(env, p))
    env.run()
    assert j.value == "done"


def test_triggered_condition_lets_go_of_pending_children():
    env = Environment()
    a, b = env.event(), env.event()
    cond = env.any_of([a, b])
    a.succeed("a")
    env.run()
    assert cond.processed and cond.value == {a: "a"}
    assert b.callbacks == []  # no _check left to keep `cond` alive
    # A later undefused failure of `b` still surfaces from run().
    b.fail(ValueError("late"))
    with pytest.raises(ValueError, match="late"):
        env.run()


def test_failed_all_of_lets_go_of_pending_children():
    env = Environment()
    a, b = env.event(), env.event()
    cond = env.all_of([a, b, b])
    a.fail(KeyError("a"))
    cond.defuse()
    env.run()
    assert cond.processed and not cond.ok
    assert b.callbacks == []


def test_condition_decided_at_construction_registers_no_check():
    env = Environment()
    a = env.event()
    a.succeed()
    env.run()
    b = env.event()
    cond = env.any_of([a, b])
    assert cond.triggered
    assert b.callbacks == []
