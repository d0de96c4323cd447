"""Determinism contract of the kernel fast paths.

The optimised kernel in :mod:`repro.sim.core` must produce **bit-identical**
schedules to the frozen pre-optimisation copy in
:mod:`repro.sim._seed_kernel`: the same ``(time, priority, seq)`` pop order,
the same ``event_count``, and the same simulated results.  These tests
replay identical workloads on both kernels step-by-step and compare the
traced schedules, then pin a set of end-to-end golden values captured from
the seed kernel.

The two deliberate behaviour *fixes* (the ``max_events`` off-by-one and the
interrupt-vs-completion races) are excluded here — they are covered as
regression tests in ``tests/test_sim_core.py``.
"""

import pytest

import repro.sim._seed_kernel as seed_kernel
import repro.sim.core as live_kernel


def trace_schedule(mod, build):
    """Run ``build(sim, mod)`` then drain the sim via ``step()``, recording
    the ``(time, priority, seq)`` triple of every processed event."""
    sim = mod.Simulator(strict=False)
    build(sim, mod)
    sched = []
    while sim._heap:
        t, prio, seq, _ev = sim._heap[0]
        sched.append((t, prio, seq))
        sim.step()
    return sched, sim.now, sim.event_count


def assert_identical_schedule(build):
    new = trace_schedule(live_kernel, build)
    old = trace_schedule(seed_kernel, build)
    assert new[0] == old[0], "schedule (time, priority, seq) diverged"
    assert new[1] == old[1], "final virtual time diverged"
    assert new[2] == old[2], "event_count diverged"
    return new


# ---------------------------------------------------------------------------
# kernel workloads
# ---------------------------------------------------------------------------
def build_timeout_storm(sim, mod):
    def proc(sim, k, d):
        for i in range(k):
            yield sim.timeout(d * (1 + (i % 3)))
    for j in range(5):
        sim.process(proc(sim, 40, 0.5 + 0.25 * j))


def build_process_chain(sim, mod):
    def child(sim, depth):
        yield sim.timeout(1.0)
        if depth:
            v = yield sim.process(child(sim, depth - 1))
            return v + 1
        return 0
    def root(sim):
        v = yield sim.process(child(sim, 10))
        assert v == 10
    sim.process(root(sim))


def build_conditions(sim, mod):
    def waiter(sim):
        evs = [sim.timeout(float(i % 4)) for i in range(16)]
        yield mod.AllOf(sim, evs)
        first = yield mod.AnyOf(sim, [sim.timeout(3.0), sim.timeout(1.0)])
        assert first[1] is None
    for _ in range(6):
        sim.process(waiter(sim))


def build_already_processed_resume(sim, mod):
    done = sim.event()
    done.succeed("early")
    def late(sim):
        yield sim.timeout(2.0)
        v = yield done            # already processed: resume-wake fast path
        assert v == "early"
        yield done                # and again
    sim.process(late(sim))
    sim.process(late(sim))


def build_schedule_call_chains(sim, mod):
    out = []
    def hop(i):
        if i < 30:
            sim.schedule_call(0.5 * (i % 5), lambda: hop(i + 1))
        out.append(i)
    sim.schedule_call(1.0, lambda: hop(0))
    def proc(sim):
        yield sim.timeout(4.0)
        sim.schedule_call(0.0, lambda: out.append("zero-delay"))
    sim.process(proc(sim))


def build_interrupt_sleeping(sim, mod):
    # The plain sleeping-process interrupt behaves identically on both
    # kernels (the fixed races need triggered-but-unprocessed targets).
    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
        except mod.Interrupt:
            yield sim.timeout(1.0)
    p = sim.process(sleeper(sim))
    sim.schedule_call(2.0, lambda: p.interrupt("wake"))


def build_urgent_ties(sim, mod):
    order = []
    def quick(sim, tag):
        yield sim.timeout(5.0)
        order.append(tag)        # completion wakes are URGENT at t=5
    for tag in range(8):
        sim.process(quick(sim, tag))
    sim.schedule_call(5.0, lambda: order.append("normal"))


def build_failing_processes(sim, mod):
    def bad(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("boom")
    def guard(sim):
        try:
            yield sim.process(bad(sim))
        except RuntimeError:
            yield sim.timeout(0.5)
    sim.process(guard(sim))


WORKLOADS = [build_timeout_storm, build_process_chain, build_conditions,
             build_already_processed_resume, build_schedule_call_chains,
             build_interrupt_sleeping, build_urgent_ties,
             build_failing_processes]


@pytest.mark.parametrize("build", WORKLOADS,
                         ids=lambda b: b.__name__.replace("build_", ""))
def test_schedule_bit_identical_to_seed_kernel(build):
    sched, _now, count = assert_identical_schedule(build)
    assert count == len(sched) and count > 0
    # seq values strictly increase within one (time, priority) tie class
    by_key = {}
    for t, prio, seq in sched:
        key = (t, prio)
        assert by_key.get(key, -1) < seq
        by_key[key] = seq


def test_batched_schedule_calls_matches_seed_individual_calls():
    """schedule_calls() must push heap tuples identical to a loop of
    seed-kernel schedule_call()s."""
    pairs = [(3.0, lambda: None), (0.0, lambda: None), (1.5, lambda: None),
             (1.5, lambda: None), (7.25, lambda: None)]

    def build_batched(sim, mod):
        if hasattr(sim, "schedule_calls"):
            sim.schedule_calls(pairs)
        else:
            for d, fn in pairs:
                sim.schedule_call(d, fn)

    assert_identical_schedule(build_batched)


# ---------------------------------------------------------------------------
# end-to-end golden values captured from the seed kernel (pre-fast-path)
# ---------------------------------------------------------------------------
GOLDEN_MESSAGE_RATE = [
    # (config, inject_time_us, comm_time_us) for
    # MessageRateParams(msg_size=8, batch=50, total_msgs=2000,
    #                   inject_rate_kps=200.0), seed=7
    ("mpi", 9942.827805390223, 9953.554842100666),
    ("mpi_i", 9808.548227200472, 9911.956400001256),
    ("lci_psr_cq_pin_i", 9788.916742360374, 9815.27039999989),
    ("lci_sr_sy_mt", 9957.228369905555, 10002.455300129022),
    ("mpi_orig", 9969.84220000193, 9984.819200002068),
]

GOLDEN_LATENCY = [
    # (config, total_time_us) for LatencyParams(8, window=16, steps=30),
    # seed=7
    ("mpi_i", 2107.6731999998888),
    ("lci_psr_cq_pin_i", 562.6053963056061),
]

GOLDEN_OCTOTIGER = [
    # (config, total_time_us) for OctoTigerBenchParams(n_localities=2,
    # paper_level=4, n_steps=1), seed=7
    ("mpi_i", 210793.64027123534),
    ("lci_psr_cq_pin_i", 203394.30973565462),
]


@pytest.mark.parametrize("cfg,inject_us,comm_us", GOLDEN_MESSAGE_RATE,
                         ids=[c for c, _, _ in GOLDEN_MESSAGE_RATE])
def test_message_rate_results_byte_identical_to_seed(cfg, inject_us,
                                                     comm_us):
    from repro.bench import MessageRateParams, RunSpec, run
    params = MessageRateParams(msg_size=8, batch=50, total_msgs=2000,
                               inject_rate_kps=200.0)
    res = run(RunSpec("message_rate", cfg, params, 7))
    assert res.inject_time_us == inject_us
    assert res.comm_time_us == comm_us


@pytest.mark.parametrize("cfg,total_us", GOLDEN_LATENCY,
                         ids=[c for c, _ in GOLDEN_LATENCY])
def test_latency_results_byte_identical_to_seed(cfg, total_us):
    from repro.bench import LatencyParams, RunSpec, run
    res = run(RunSpec("latency", cfg,
                      LatencyParams(msg_size=8, window=16, steps=30), 7))
    assert res.total_time_us == total_us


@pytest.mark.parametrize("cfg,total_us", GOLDEN_OCTOTIGER,
                         ids=[c for c, _ in GOLDEN_OCTOTIGER])
def test_octotiger_results_byte_identical_to_seed(cfg, total_us):
    from repro.bench import OctoTigerBenchParams, RunSpec, run
    res = run(RunSpec("octotiger", cfg,
                      OctoTigerBenchParams(n_localities=2, paper_level=4,
                                           n_steps=1), 7)).as_dict()
    assert res["total_time_us"] == total_us


@pytest.mark.parametrize("cfg", ["mpi_i", "lci_psr_cq_pin_i"])
def test_fig1_point_identical_under_trace_zero_faults_and_flow(cfg):
    """Loading the tracing, fault (zero plan) or flow machinery must leave
    a fig1 point's result dict untouched: the model fast paths stay on."""
    from repro import FlowControlPolicy
    from repro.bench import MessageRateParams, RunSpec, run
    from repro.faults import FaultPlan
    params = MessageRateParams(msg_size=8, batch=100, total_msgs=4000,
                               inject_rate_kps=400.0)
    base = run(RunSpec("message_rate", cfg, params, 1000)).as_dict()
    for layers in ({"trace": "all"},
                   {"faults": FaultPlan.parse("drop=0,corrupt=0")},
                   {"flow": FlowControlPolicy()}):
        got = run(RunSpec("message_rate", cfg, params, 1000, **layers))
        assert got.as_dict() == base, (cfg, layers)
