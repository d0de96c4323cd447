"""Sharded conservative-parallel engine: identity, determinism, guards.

The engine's contract (docs/SHARDING.md) is byte-identity: a sweep point
evaluated at ``--shards N`` returns the same result dict, bit for bit,
as the sequential kernel, for every N.  These tests pin that contract on
every workload family, pin the window-boundary determinism of fault
draws, and exercise the loud-failure guards (lookahead, unsupported
features, cache fingerprinting of the engine's own modules).
"""

from __future__ import annotations

import pytest

from repro import make_runtime
from repro.bench import (SERVE_FLOW, FftBenchParams, MessageRateParams,
                         OctoTigerBenchParams, RunSpec, ServeBenchParams,
                         run)
from repro.bench.parallel import (ResultCache, code_fingerprint,
                                  evaluate_point, execution)
from repro.faults import FaultPlan
from repro.flow import FlowControlPolicy
from repro.hpx_rt.platform import EXPANSE
from repro.sim.shard import (LookaheadViolation, ShardContext,
                             ShardingUnsupported, current_context,
                             run_sharded_point, set_current)

pytestmark = pytest.mark.shards


# ---------------------------------------------------------------------------
# shard-count invariance: the byte-identity contract per workload family
# ---------------------------------------------------------------------------
def _assert_invariant(task, counts=(1, 2, 4)):
    seq = evaluate_point(task)
    for n in counts:
        assert run_sharded_point(task, n) == seq, \
            f"shards={n} diverged from the sequential kernel"
    return seq


def test_fig1_point_invariance():
    # 2 localities; shards=4 also exercises shards with zero owned
    # localities (they must barrier along without perturbing anything).
    _assert_invariant(RunSpec("message_rate", "mpi", MessageRateParams(
        msg_size=64, batch=8, total_msgs=240, inject_rate_kps=None,
        platform=EXPANSE), 7))


def test_fig1_point_invariance_lci():
    _assert_invariant(RunSpec("message_rate", "lci", MessageRateParams(
        msg_size=64, batch=8, total_msgs=240, inject_rate_kps=None,
        platform=EXPANSE), 3))


def test_fft_point_invariance():
    # "all"-mode termination + distributed-state contributions
    # (_out/_checksum/_marks flow to the root shard at the stop).
    _assert_invariant(RunSpec("fft", "lci", FftBenchParams(
        n1=8, n2=8, n_localities=4, platform=EXPANSE), 11))


def test_serve_point_invariance():
    # Saturated so the identity premises hold: the quiesce timer (a
    # replica on every shard, same seq on each) cuts the run, and sheds
    # are request-side (gateway) only.
    task = RunSpec("serve", "lci", ServeBenchParams(
        offered_kps=3000.0, horizon_us=1200.0, n_localities=4,
        platform=EXPANSE), 13, flow=SERVE_FLOW)
    seq = _assert_invariant(task)
    assert seq["shed_requests"] > 0          # genuinely saturated
    assert seq["shed_responses"] == 0        # premise of the cut proof


def test_policy_routing_through_execution():
    # --shards routes evaluate_point through the sharded engine; the
    # result must equal the plain sequential evaluation.
    task = RunSpec("message_rate", "lci", MessageRateParams(
        msg_size=64, batch=8, total_msgs=160, inject_rate_kps=None,
        platform=EXPANSE), 5)
    seq = evaluate_point(task)
    with execution(jobs=1, shards=2):
        assert evaluate_point(task) == seq


# ---------------------------------------------------------------------------
# window-boundary determinism under fault plans
# ---------------------------------------------------------------------------
def _faulted_run(plan: str):
    """Deadline-terminated all-to-all chatter under a fault plan.

    Deadline termination freezes every shard at exactly the same virtual
    instant, so the merged fault counters must be identical at any shard
    count — the keyed fault draws make the drop/slow schedule a pure
    function of each message's (source, per-source seq) identity.
    """
    def run():
        rt = make_runtime("mpi", platform=EXPANSE, n_localities=4, seed=9,
                          fault_plan=FaultPlan.parse(plan))

        def sink(worker, x):
            return None

        rt.register_action("sink", sink)

        def chatter(lid):
            def task(worker):
                for i in range(30):
                    yield from worker.locality.apply(
                        worker, (lid + 1 + i) % 4, "sink", (i,),
                        arg_sizes=[64])
            return task

        rt.boot()
        for lid in range(4):
            if rt.shard_owns(lid):
                rt.locality(lid).spawn(chatter(lid), name=f"chat{lid}")
        rt.run_until(2500.0)
        return dict(sorted(rt.fault_summary().items()))

    return run


@pytest.mark.faults
@pytest.mark.parametrize("plan", ["drop=0.08", "slow=0:1500@1*3",
                                  "drop=0.03,corrupt=0.02"])
def test_fault_plan_window_determinism(plan):
    run = _faulted_run(plan)
    r1 = run_sharded_point(run, 1)
    assert r1, "fault plan produced no counters — test is vacuous"
    assert run_sharded_point(run, 2) == r1
    assert run_sharded_point(run, 4) == r1


def test_fault_counters_nonzero_under_drop():
    r = run_sharded_point(_faulted_run("drop=0.08"), 2)
    assert r.get("drops", 0) > 0
    assert r.get("retransmits", 0) > 0


# ---------------------------------------------------------------------------
# lookahead + unsupported-feature guards
# ---------------------------------------------------------------------------
def test_zero_lookahead_rejected_at_attach():
    flat = EXPANSE.with_(network=EXPANSE.network.with_(wire_latency_us=0.0))
    set_current(ShardContext(0, 2))
    try:
        with pytest.raises(LookaheadViolation, match="no lookahead"):
            make_runtime("mpi", platform=flat, n_localities=2, seed=1)
    finally:
        set_current(None)


def test_stale_import_raises_lookahead_violation():
    set_current(ShardContext(0, 2))
    try:
        rt = make_runtime("mpi", platform=EXPANSE, n_localities=2, seed=1)
        ctx = rt.shard_ctx
        rt.sim.now = 100.0
        with pytest.raises(LookaheadViolation, match="violated"):
            # guard fires on the timestamp, before any decoding
            ctx._import_msgs([(99.0, 0, 0, 1, None)])
    finally:
        set_current(None)


def test_tracing_rejected_under_shards():
    set_current(ShardContext(0, 2))
    try:
        with pytest.raises(ShardingUnsupported, match="trace"):
            make_runtime("mpi", platform=EXPANSE, n_localities=2, seed=1,
                         trace="parcel")
    finally:
        set_current(None)


def test_one_runtime_per_shard():
    set_current(ShardContext(0, 2))
    try:
        make_runtime("mpi", platform=EXPANSE, n_localities=2, seed=1)
        with pytest.raises(ShardingUnsupported, match="exactly one"):
            make_runtime("mpi", platform=EXPANSE, n_localities=2, seed=1)
    finally:
        set_current(None)


def test_octotiger_rejected_under_shards():
    task = RunSpec("octotiger", "mpi_i", OctoTigerBenchParams(
        n_localities=2, paper_level=3, n_steps=1, platform=EXPANSE), 7)
    with execution(jobs=1, shards=2):
        with pytest.raises(ShardingUnsupported, match="octotiger"):
            evaluate_point(task)
    # the same guard holds for a direct run inside a shard worker
    set_current(ShardContext(0, 2))
    try:
        with pytest.raises(ShardingUnsupported, match="octotiger"):
            run(task)
    finally:
        set_current(None)


def test_shards_one_is_in_process():
    # --shards 1 must not fork; it runs under an in-process context.
    def probe():
        ctx = current_context()
        return (ctx.shard_id, ctx.n_shards, len(ctx.owned))

    assert current_context() is None
    assert run_sharded_point(probe, 1) == (0, 1, 0)
    assert current_context() is None  # context restored afterwards


def _metrics_run(**layers):
    """A 4-locality message-rate point: two sender → receiver pairs (one
    per shard at ``--shards 2``), deadline-terminated so every shard
    stops at the same instant; returns the flattened metrics.

    The config is not lazy-idle eligible: sharded runs always take the
    step path, so a pinned ``cq`` config's ``pp.idle_rounds_elided``
    (and the other lazy counters) legitimately differ from sequential.
    """
    def run():
        rt = make_runtime("lci_sr_sy_mt", platform=EXPANSE,
                          n_localities=4, seed=5, **layers)

        def sink(worker, i):
            return None

        rt.register_action("sink", sink)

        def sender(dest):
            def task(worker):
                for i in range(60):
                    yield from worker.locality.apply(
                        worker, dest, "sink", (i,), arg_sizes=[8])
            return task

        rt.boot()
        for src, dest in ((0, 1), (2, 3)):
            if rt.shard_owns(src):
                rt.locality(src).spawn(sender(dest), name=f"send{src}")
        rt.run_until(400.0)
        return rt.metrics().as_dict()

    return run


@pytest.mark.parametrize("layers", [
    {},
    {"fault_plan": FaultPlan.parse("drop=0.03,slow=0:200@1*2"),
     "flow_policy": FlowControlPolicy(credit_window=4, max_backlog=8)},
], ids=["plain", "faults+flow"])
def test_metrics_match_sequential_under_shards(layers):
    """``--shards 2`` reports the sequential run's metrics.  Fault draws
    are keyed by message identity whenever a shard context is active, so
    the sequential reference is the in-process ``--shards 1`` engine
    (the plain point also matches the bare kernel)."""
    run = _metrics_run(**layers)
    seq = run_sharded_point(run, 1)
    assert seq["wire.msgs"] > 0 and seq["worker.cpu_us"] > 0
    if layers:
        assert seq["fault.drops"] > 0 and "flow.L3.backlog_peak" in seq
    else:
        assert run() == seq
    assert run_sharded_point(run, 2) == seq


# ---------------------------------------------------------------------------
# cache fingerprint covers the shard-engine modules
# ---------------------------------------------------------------------------
def test_cache_misses_after_shard_module_edit(tmp_path, monkeypatch):
    """Editing a shard-engine source file must invalidate every cache key."""
    import shutil

    import repro

    task = RunSpec("message_rate", "mpi", MessageRateParams(
        msg_size=8, batch=8, total_msgs=16, inject_rate_kps=None,
        platform=EXPANSE), 1)
    cache = ResultCache(tmp_path / "cache")
    try:
        key_before = cache.key(task)
        cache.put(task, {"x": 1.0})
        assert cache.get(task) == {"x": 1.0}

        # Clone the package tree, touch ONLY the shard engine, repoint
        # the fingerprint at the clone.
        src = type(repro).__dict__  # noqa: F841  (keep repro imported)
        pkg_root = tmp_path / "repro"
        shutil.copytree(
            __import__("pathlib").Path(repro.__file__).resolve().parent,
            pkg_root, ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(repro, "__file__",
                            str(pkg_root / "__init__.py"))
        assert code_fingerprint(refresh=True) is not None
        assert cache.key(task) == key_before  # identical clone, same key

        target = pkg_root / "sim" / "shard" / "context.py"
        target.write_text(target.read_text() + "\n# touched\n")
        code_fingerprint(refresh=True)
        assert cache.key(task) != key_before
        assert cache.get(task) is None  # the old entry is unreachable
    finally:
        monkeypatch.undo()
        code_fingerprint(refresh=True)  # restore the process-wide digest


# ---------------------------------------------------------------------------
# seed-ladder helpers (the last ad-hoc derivation sites now route here)
# ---------------------------------------------------------------------------
def test_repeat_seed_ladder_pinned():
    from repro.bench.seeds import REPEAT_BASE, REPEAT_STEP, repeat_seeds

    # The historical inline sequence every committed figure was
    # generated with: 1000 + i*7919.  Pinned so the migrations in
    # bench/sweep.py and bench/perfbench.py stay bit-exact.
    assert (REPEAT_BASE, REPEAT_STEP) == (1000, 7919)
    assert repeat_seeds(3) == [1000, 8919, 16838]
    assert repeat_seeds(1) == [1000]
    # sweep.py's per-spec ladder: base_seed + rep*7919
    assert repeat_seeds(3, base=42) == [42, 7961, 15880]
    with pytest.raises(ValueError, match="at least one"):
        repeat_seeds(0)


def test_sweep_cells_use_the_ladder():
    from repro.bench.sweep import SweepSpec, run_sweep

    spec = SweepSpec(axes={"x": [1, 2]}, repeats=2, base_seed=500)
    result = run_sweep(lambda x, seed: {"y": float(seed)}, spec, jobs=1)
    assert [row["seed"] for row in result.rows] == \
        [500 + rep * 7919 for _ in (1, 2) for rep in range(2)]
