"""Tests for the HPX-like runtime: scheduler, futures, actions, parcel layer."""

import pytest

from repro import LAPTOP, make_runtime
from repro.hpx_rt import EXPANSE, Future, Latch, ROSTAM, platform_by_name
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# futures / latches
# ---------------------------------------------------------------------------
def test_future_set_and_wait():
    sim = Simulator()
    fut = Future(sim)
    got = []

    def waiter(sim):
        got.append((yield fut.wait()))

    sim.process(waiter(sim))
    sim.schedule_call(2.0, lambda: fut.set_result("v"))
    sim.run()
    assert got == ["v"]
    assert fut.done and fut.value == "v"


def test_future_wait_after_done_is_immediate():
    sim = Simulator()
    fut = Future(sim)
    fut.set_result(7)
    assert fut.wait().triggered


def test_future_double_set_raises():
    sim = Simulator()
    fut = Future(sim)
    fut.set_result(1)
    with pytest.raises(RuntimeError):
        fut.set_result(2)


def test_future_value_before_done_raises():
    sim = Simulator()
    fut = Future(sim)
    with pytest.raises(RuntimeError):
        _ = fut.value


def test_future_fanout_to_multiple_waiters():
    sim = Simulator()
    fut = Future(sim)
    got = []

    def waiter(sim, tag):
        got.append((tag, (yield fut.wait())))

    sim.process(waiter(sim, "a"))
    sim.process(waiter(sim, "b"))
    sim.schedule_call(1.0, lambda: fut.set_result("x"))
    sim.run()
    assert sorted(got) == [("a", "x"), ("b", "x")]


def test_latch_counts_down():
    sim = Simulator()
    latch = Latch(sim, 3)
    assert not latch.open
    latch.count_down()
    latch.count_down(2)
    assert latch.open
    assert latch.wait().triggered


def test_latch_zero_opens_immediately():
    sim = Simulator()
    assert Latch(sim, 0).open


def test_latch_overshoot_raises():
    sim = Simulator()
    latch = Latch(sim, 1)
    latch.count_down()
    with pytest.raises(RuntimeError):
        latch.count_down()


# ---------------------------------------------------------------------------
# runtime basics
# ---------------------------------------------------------------------------
def test_platform_lookup():
    assert platform_by_name("expanse") is EXPANSE
    assert platform_by_name("rostam") is ROSTAM
    with pytest.raises(KeyError):
        platform_by_name("summit")


def test_platform_thread_weight():
    assert EXPANSE.thread_weight == 8.0
    assert ROSTAM.thread_weight == 4.0
    assert EXPANSE.sim_cores_per_node * EXPANSE.thread_weight == 128


def test_runtime_rejects_excess_localities():
    with pytest.raises(ValueError, match="at most"):
        make_runtime("lci", platform=LAPTOP, n_localities=100)


def test_duplicate_action_registration_rejected():
    rt = make_runtime("lci", platform=LAPTOP)
    rt.register_action("a", lambda w: None)
    with pytest.raises(ValueError):
        rt.register_action("a", lambda w: None)


def test_unregistered_action_apply_raises():
    rt = make_runtime("lci", platform=LAPTOP)
    rt.boot()

    def task(worker):
        yield from rt.locality(0).apply(worker, 1, "missing", ())

    rt.locality(0).spawn(task)
    with pytest.raises(KeyError, match="missing"):
        rt.run_until(rt.sim.now + 1000.0)


def test_double_boot_rejected():
    rt = make_runtime("lci", platform=LAPTOP)
    rt.boot()
    with pytest.raises(RuntimeError):
        rt.boot()


def test_local_action_short_circuits_network():
    rt = make_runtime("lci", platform=LAPTOP, n_localities=2)
    done = rt.new_future()

    def handler(worker, v):
        done.set_result(v)
        return None

    rt.register_action("local", handler)

    def task(worker):
        yield from rt.locality(0).apply(worker, 0, "local", (42,))

    rt.boot()
    rt.locality(0).spawn(task)
    assert rt.run_until(done) == 42
    assert rt.fabric.stats.counters.get("msgs", 0) == 0  # nothing on wire


def test_action_decorator_form():
    rt = make_runtime("lci", platform=LAPTOP)
    done = rt.new_future()

    @rt.action("decorated")
    def handler(worker, v):
        done.set_result(v + 1)
        return None

    def task(worker):
        yield from rt.locality(0).apply(worker, 1, "decorated", (1,))

    rt.boot()
    rt.locality(0).spawn(task)
    assert rt.run_until(done) == 2


def test_remote_action_roundtrip_with_reply():
    rt = make_runtime("lci_psr_cq_pin_i", platform=LAPTOP, n_localities=2)
    done = rt.new_future()

    def echo(worker, v):
        yield from worker.locality.apply(worker, 0, "reply", (v * 2,))

    def reply(worker, v):
        done.set_result(v)
        return None

    rt.register_action("echo", echo)
    rt.register_action("reply", reply)

    def task(worker):
        yield from rt.locality(0).apply(worker, 1, "echo", (21,))

    rt.boot()
    rt.locality(0).spawn(task)
    assert rt.run_until(done, max_events=100000) == 42


def test_worker_compute_scaled_by_thread_weight():
    rt = make_runtime("lci", platform=EXPANSE, n_localities=2)
    rt.boot()
    w = rt.localities[0].workers[0]
    # cpu/compute return the bare charge (the kernel's float fast path
    # schedules it exactly like a timeout of the same delay)
    assert w.compute(800.0) == pytest.approx(800.0 / 8.0)
    assert w.cpu(5.0) == 5.0


def test_census_merges_locality_counters():
    rt = make_runtime("lci", platform=LAPTOP, n_localities=2)
    done = rt.new_latch(5)

    def sink(worker, i):
        done.count_down()
        return None

    rt.register_action("sink", sink)

    def task(worker):
        for i in range(5):
            yield from rt.locality(0).apply(worker, 1, "sink", (i,))

    rt.boot()
    rt.locality(0).spawn(task)
    rt.run_until(done, max_events=100000)
    census = rt.census()
    assert census.total("locality", "parcels_created") == 5
    assert census.total("locality", "parcels_executed") == 5
    assert census.as_dict()["L1.messages_received"] >= 1


# ---------------------------------------------------------------------------
# parcel layer: aggregation vs immediate
# ---------------------------------------------------------------------------
def _run_batch(config, n=40):
    rt = make_runtime(config, platform=LAPTOP, n_localities=2)
    done = rt.new_latch(n)

    def sink(worker, i):
        done.count_down()
        return None

    rt.register_action("sink", sink)

    def burst(worker):
        for i in range(n):
            yield from rt.locality(0).apply(worker, 1, "sink", (i,))

    rt.boot()
    # several concurrent producer tasks -> aggregation opportunity
    for _ in range(4):
        rt.locality(0).spawn(burst)
    rt.run_until(rt.new_latch(0).wait() if False else done,
                 max_events=2_000_000)
    return rt


def test_default_mode_aggregates_parcels():
    rt = _run_batch("lci_psr_cq_pin", n=40)
    layer = rt.localities[0].parcel_layer
    assert layer.stats.counters["parcels_sent"] == 160
    # queue + bounded connections must have batched at least some sends
    assert layer.stats.counters["messages_sent"] < 160
    assert layer.aggregation_ratio() > 1.0


def test_immediate_mode_never_aggregates():
    rt = _run_batch("lci_psr_cq_pin_i", n=40)
    layer = rt.localities[0].parcel_layer
    assert layer.stats.counters["messages_sent"] == 160
    assert layer.aggregation_ratio() == 1.0


def test_aggregation_preserves_parcel_multiset():
    rt = make_runtime("mpi", platform=LAPTOP, n_localities=2)
    seen = []
    done = rt.new_latch(30)

    def sink(worker, i):
        seen.append(i)
        done.count_down()
        return None

    rt.register_action("sink", sink)

    def burst(worker, base):
        for i in range(10):
            yield from rt.locality(0).apply(worker, 1, "sink", (base + i,))

    rt.boot()
    for b in (0, 100, 200):
        rt.locality(0).spawn(lambda w, b=b: burst(w, b))
    rt.run_until(done, max_events=2_000_000)
    assert sorted(seen) == sorted(list(range(0, 10))
                                  + list(range(100, 110))
                                  + list(range(200, 210)))


def test_custom_fabric_factory():
    """Experiments can swap the crossbar for an oversubscribed fat tree."""
    from functools import partial
    from repro.netsim import FatTreeFabric
    from repro.parcelport import make_parcelport_factory

    from repro.hpx_rt import HpxRuntime

    def build(oversub):
        factory = partial(FatTreeFabric, nodes_per_switch=2,
                          oversubscription=oversub)
        rt = HpxRuntime(LAPTOP, 4,
                        make_parcelport_factory("lci_psr_cq_pin_i"),
                        immediate=True, fabric_factory=factory)
        done = rt.new_latch(12)

        def sink(worker, i, blob):
            done.count_down()
            return None

        rt.register_action("sink", sink)

        def sender(worker):
            for i in range(12):
                # node 0 (switch 0) -> node 3 (switch 1): crosses uplinks
                yield from rt.locality(0).apply(worker, 3, "sink",
                                                (i, "x"),
                                                arg_sizes=[8, 60000])

        rt.boot()
        rt.locality(0).spawn(sender)
        rt.run_until(done, max_events=2_000_000)
        return rt

    fast = build(1.0)
    slow = build(32.0)
    assert isinstance(fast.fabric, FatTreeFabric)
    assert fast.fabric.stats.counters["cross_switch_msgs"] > 0
    # heavier oversubscription -> slower end-to-end completion
    assert slow.now > fast.now
