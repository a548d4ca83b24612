"""Equivalence tests for the kernel fast paths.

The fast-path kernel (``env.hold``, pooled timeouts, immediate resource
grants) must be *event-for-event identical* to the straightforward
reference kernel (``Environment(fastpath=False)``); hop-batched wormhole
walks must match per-hop walks in per-node arrival times, channel
utilisations and grant counts (not in the order of same-time hooks).
These tests prove it:

* a property test drives randomly generated process programs — holds,
  timeouts, contended/uncontended resource mixes, mid-request spawns,
  conditions — through both kernels and compares full execution traces;
* wormhole determinism tests compare hop-batched against per-hop walks
  (and against the reference kernel) on contended meshes, including
  adaptive routing;
* unit tests cover the pooling, hold and claim primitives directly.

See ``docs/performance.md`` for the invariants that make this exact.
"""

import random

import pytest

from repro.core.adaptive_broadcast import AdaptiveBroadcast
from repro.core.executors import EventDrivenExecutor
from repro.network import (
    Mesh,
    Message,
    NetworkConfig,
    NetworkSimulator,
    PathTransmission,
)
from repro.routing import DimensionOrdered, Path, WestFirst
from repro.sim import Environment, Interrupt, PriorityResource, Resource, Timeout

# ------------------------------------------------------------ golden traces

OPS = ("hold", "timeout", "acquire", "req_spawn", "spawn", "allof", "anyof")
#: Small delay menu with repeats and zero: plenty of same-instant ties.
DELAYS = (0.0, 0.5, 0.5, 1.0, 1.0, 1.5, 2.0)


def _make_program(rng: random.Random, depth: int = 0) -> list:
    """A random straight-line program for :func:`_interpret`."""
    program = []
    for _ in range(rng.randint(2, 6)):
        op = rng.choice(OPS)
        if op in ("hold", "timeout"):
            program.append((op, rng.choice(DELAYS)))
        elif op == "acquire":
            program.append((op, rng.randrange(3), rng.choice(DELAYS)))
        elif op == "req_spawn" and depth < 2:
            # The tricky interleaving: request a free resource, spawn a
            # process at the same instant, only then yield the request.
            program.append(
                (op, rng.randrange(3), _make_program(rng, depth + 1), rng.choice(DELAYS))
            )
        elif op == "spawn" and depth < 2:
            program.append((op, _make_program(rng, depth + 1)))
        elif op in ("allof", "anyof"):
            program.append((op, [rng.choice(DELAYS) for _ in range(rng.randint(1, 3))]))
    return program


def _interpret(env, program, resources, trace, label):
    for op in program:
        kind = op[0]
        if kind == "hold":
            yield env.hold(op[1])
            trace.append(("hold", label, env.now))
        elif kind == "timeout":
            yield env.timeout(op[1])
            trace.append(("timeout", label, env.now))
        elif kind == "acquire":
            res = resources[op[1]]
            with res.request() as req:
                yield req
                trace.append(
                    ("acq", label, op[1], env.now, res.count, res.queue_length)
                )
                yield env.hold(op[2])
            trace.append(("rel", label, op[1], env.now))
        elif kind == "req_spawn":
            res = resources[op[1]]
            req = res.request()
            env.process(_interpret(env, op[2], resources, trace, label + "s"))
            yield req
            trace.append(("reqspawn", label, op[1], env.now, res.count))
            yield env.hold(op[3])
            res.release(req)
        elif kind == "spawn":
            env.process(_interpret(env, op[1], resources, trace, label + "c"))
            trace.append(("spawn", label, env.now))
        elif kind == "allof":
            result = yield env.all_of([env.timeout(d, d) for d in op[1]])
            trace.append(("allof", label, env.now, sorted(result.values())))
        elif kind == "anyof":
            result = yield env.any_of([env.timeout(d, d) for d in op[1]])
            trace.append(("anyof", label, env.now, sorted(result.values())))
    trace.append(("done", label, env.now))


def _run_scenario(seed: int, fastpath: bool) -> list:
    rng = random.Random(seed)
    programs = [_make_program(rng) for _ in range(5)]
    env = Environment(fastpath=fastpath)
    resources = [
        Resource(env, capacity=1),
        Resource(env, capacity=1),
        Resource(env, capacity=2),
    ]
    trace = []
    for i, program in enumerate(programs):
        env.process(_interpret(env, program, resources, trace, f"p{i}"))
    env.run()
    trace.append(("final", env.now, [r.utilisation() for r in resources]))
    return trace


@pytest.mark.parametrize("seed", range(12))
def test_fastpath_traces_match_reference_kernel(seed):
    """Random contended/uncontended mixes: identical event orderings."""
    assert _run_scenario(seed, fastpath=True) == _run_scenario(seed, fastpath=False)


# ------------------------------------------------- wormhole determinism


def _mesh_transmissions(batch_hops: bool, fastpath: bool = True):
    """Overlapping unicasts + a CPR worm + adaptive worms on a 4x4 mesh."""
    mesh = Mesh((4, 4))
    dor = DimensionOrdered(mesh)
    wf = WestFirst(mesh)
    net = NetworkSimulator(mesh, NetworkConfig(ports_per_node=2))
    net.env._fastpath = fastpath

    results = []

    def launch(msg, **kwargs):
        t = PathTransmission(net, msg, batch_hops=batch_hops, **kwargs)
        results.append(t)
        return t.start()

    def driver(env):
        # Same-instant burst sharing channels (wormhole blocking).
        for i, (src, dst) in enumerate(
            [((0, 0), (3, 3)), ((0, 1), (3, 2)), ((0, 0), (0, 3)), ((2, 0), (2, 3))]
        ):
            launch(
                Message(source=src, destinations={dst}, length_flits=16),
                path=Path(dor.path(src, dst), deliveries=[dst]),
            )
        yield env.hold(0.004)
        # A multi-destination coded-path worm mid-flight of the burst.
        nodes = dor.path((1, 0), (1, 3))
        launch(
            Message(
                source=(1, 0), destinations={(1, 1), (1, 3)}, length_flits=16
            ),
            path=Path(nodes, deliveries=[(1, 1), (1, 3)]),
        )
        # Adaptive waypoint worms sampling channel_load at each branch.
        for src, dst in [((0, 0), (2, 2)), ((0, 3), (3, 0))]:
            launch(
                Message(source=src, destinations={dst}, length_flits=16),
                waypoints=[src, dst],
                routing=wf,
                adaptive=True,
            )

    net.env.process(driver(net.env))
    net.run()
    summary = [
        (t.result.queued_at, t.result.injected_at, t.result.completed_at,
         t.result.visited, sorted(t.result.arrivals.items()))
        for t in results
    ]
    utilisations = sorted(
        ((u, v), round(ch.utilisation(), 12), ch.resource.grants)
        for (u, v), ch in net.channels.items()
    )
    return summary, utilisations, net.now


def _adaptive_race(batch_hops: bool):
    """An adaptive decision point racing a channel release mid-window.

    Regression scenario: a blocker holds channel (1,0)->(2,0) and
    releases it *between* the batched walk's start time and the
    header's per-hop decision time at (1,0).  The batched walk must
    defer the routing decision until the clock reaches the decision
    point, or it samples stale channel loads and takes a different
    route than the per-hop walk.
    """
    mesh = Mesh((3, 3))
    wf = WestFirst(mesh)
    net = NetworkSimulator(mesh, NetworkConfig(ports_per_node=1))
    env = net.env
    blocked = net.channel((1, 0), (2, 0)).resource

    def blocker(env):
        grant = blocked.request()
        yield grant
        # Release inside the worm's (1,0) hop window: after injection
        # at t=1.5, before the decision at t=1.503.
        yield env.hold(1.5015 - env.now)
        blocked.release(grant)

    env.process(blocker(env))
    msg = Message(source=(0, 0), destinations={(2, 2)}, length_flits=8)
    t = PathTransmission(
        net, msg, waypoints=[(0, 0), (2, 2)], routing=wf, adaptive=True,
        batch_hops=batch_hops,
    )
    t.start()
    net.run()
    return t.result.visited, t.result.completed_at


class _PerHopExecutor(EventDrivenExecutor):
    """Runs every worm of a broadcast on the per-hop walk."""

    def _make_transmission(self, *args):
        transmission = super()._make_transmission(*args)
        transmission.batch_hops = False
        return transmission


def _ab_broadcast(batch_hops: bool, fastpath: bool = True):
    """AB on 4x4 from (1, 1) at L = 4.

    Worm ends and deliveries tie at t = 3.042, and the two walks fire
    those same-time hooks in different orders (the arrivals dicts are
    filled in a different sequence), so only per-node values compare.
    """
    mesh = Mesh((4, 4))
    algorithm = AdaptiveBroadcast(mesh)
    net = NetworkSimulator(
        mesh, NetworkConfig(ports_per_node=algorithm.ports_required)
    )
    net.env._fastpath = fastpath
    executor = (EventDrivenExecutor if batch_hops else _PerHopExecutor)(
        net, adaptive_routing=AdaptiveBroadcast.make_routing(mesh)
    )
    outcome = executor.execute(algorithm.schedule((1, 1)), 4)
    utilisations = sorted(
        ((u, v), round(ch.utilisation(), 12), ch.resource.grants)
        for (u, v), ch in net.channels.items()
    )
    return sorted(outcome.arrivals.items()), utilisations, net.now


def test_adaptive_decision_defers_to_per_hop_time():
    assert _adaptive_race(batch_hops=True) == _adaptive_race(batch_hops=False)


def test_hop_batched_walk_matches_per_hop_walk():
    for scenario in (_mesh_transmissions, _ab_broadcast):
        assert scenario(batch_hops=True) == scenario(batch_hops=False)


def test_hop_batched_walk_matches_reference_kernel():
    for scenario in (_mesh_transmissions, _ab_broadcast):
        assert scenario(batch_hops=True) == scenario(
            batch_hops=False, fastpath=False
        )


# ------------------------------------------------------------ primitives


def test_hold_advances_clock_like_timeout():
    env = Environment()

    def proc(env):
        yield env.hold(1.5)
        yield env.hold(0.0)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 1.5


def test_hold_negative_delay_raises():
    env = Environment()

    def proc(env):
        yield env.hold(-1.0)

    env.process(proc(env))
    with pytest.raises(ValueError):
        env.run()


def test_hold_outside_process_degrades_to_timeout():
    env = Environment()
    event = env.hold(2.0)
    assert isinstance(event, Timeout)
    env.run()
    assert env.now == 2.0


def test_hold_until_schedules_exact_absolute_time():
    env = Environment()

    def proc(env):
        yield env.hold(0.1)
        yield env.hold_until(7.25)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 7.25


def test_hold_until_past_raises():
    env = Environment(initial_time=5.0)
    with pytest.raises(ValueError):
        env.hold_until(4.0)


def test_interrupt_during_hold_is_delivered_and_stale_entry_skipped():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.hold(100.0)
        except Interrupt as i:
            log.append(("interrupted", env.now, i.cause))
        yield env.hold(1.0)
        log.append(("resumed", env.now))

    def attacker(env, target):
        yield env.hold(2.0)
        target.interrupt(cause="preempt")

    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run()
    assert log == [("interrupted", 2.0, "preempt"), ("resumed", 3.0)]
    assert env.now == 100.0  # the stale hold entry still drains the heap


def test_interrupted_rehold_to_same_deadline_keeps_reference_order():
    """A stale hold entry must not impersonate a re-hold to the same time.

    Regression test: P holds to t=10, is interrupted at t=3, and holds
    again to exactly t=10.  The stale marker entry (older insertion
    order) pops first at t=10; resuming P through it would reorder P
    against a competitor whose event also fires at t=10.
    """

    def scenario(fastpath):
        env = Environment(fastpath=fastpath)
        order = []

        def sleeper(env):
            try:
                yield env.hold(10.0)
            except Interrupt:
                yield env.hold(7.0)  # re-hold: deadline is 10.0 again
            order.append("sleeper-resumed")

        def other(env):
            yield env.timeout(8.0)  # spawned at t=2: fires at t=10
            order.append("other-fired")

        def attacker(env, target):
            yield env.timeout(2.0)
            env.process(other(env))  # timeout at t=10, ticket between holds
            yield env.timeout(1.0)
            target.interrupt()

        victim = env.process(sleeper(env))
        env.process(attacker(env, victim))
        env.run()
        return order

    assert scenario(True) == scenario(False) == ["other-fired", "sleeper-resumed"]


def test_unyielded_hold_is_an_error():
    env = Environment()

    def bad(env):
        env.hold(1.0)
        yield env.timeout(2.0)

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="hold"):
        env.run()


def test_timeout_pool_recycles_unreferenced_timeouts():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    assert env._timeout_pool  # drained timeouts were recycled
    recycled = env._timeout_pool[-1]
    fresh = env.timeout(3.0, value="again")
    assert fresh is recycled
    env.run()
    assert fresh.value == "again"
    assert env.now == 5.0


def test_timeout_pool_skips_referenced_timeouts():
    env = Environment()
    kept = env.timeout(1.0, value="keep")
    env.run()
    assert kept.value == "keep"
    assert all(t is not kept for t in env._timeout_pool)


def test_reference_kernel_never_pools():
    env = Environment(fastpath=False)
    env.timeout(1.0)
    env.run()
    assert env._timeout_pool == []


def test_fast_grant_is_visible_before_yield():
    env = Environment()
    res = Resource(env, capacity=1)
    req = res.request()
    assert req.triggered
    assert res.count == 1 and res.grants == 1


def test_try_acquire_and_claim():
    env = Environment()
    res = Resource(env, capacity=1)
    grant = res.try_acquire()
    assert grant is not None and grant.processed
    assert res.try_acquire() is None
    assert res.claim(object()) is False
    res.release(grant)
    token = object()
    assert res.claim(token, at=0.0) is True
    assert res.count == 1
    res.release(token)
    assert res.count == 0


def test_try_acquire_respects_priority_waiters():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    holder = res.request(priority=0)
    waiter = res.request(priority=1)
    assert res.try_acquire() is None  # a waiter is queued
    assert res.claim(object()) is False
    res.release(waiter)
    res.release(holder)
    assert res.try_acquire() is not None


def test_condition_over_fast_granted_requests():
    env = Environment()
    res = Resource(env, capacity=2)

    def proc(env, res):
        first, second = res.request(), res.request()
        result = yield env.all_of([first, second])
        return len(result)

    p = env.process(proc(env, res))
    env.run()
    assert p.value == 2
