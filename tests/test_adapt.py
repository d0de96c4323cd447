"""Adaptive-policy controller + auto-tuner tests (pytest -m adapt).

Three contracts:

* **Byte-identity when off** — a runtime built without ``adapt=`` must
  produce exactly the results it produced before the subsystem existed,
  across fault/flow/trace feature combinations (the committed
  ``results/fig1.txt`` diff in CI is the end-to-end half of this).
* **Determinism when on** — an adaptive run is a pure function of
  ``(config, spec, params, seed)``: rerunning it, fanning it across
  worker processes, or replaying it through a warm cache all yield the
  identical result dict, controller counters included.
* **The tuner emits a valid artifact** — ``run_tune`` writes a
  ``BENCH_tune.json`` that passes ``validate_bench``, and the committed
  artifact records a tuned config that beats the paper's best static
  configuration.
"""

import json
from pathlib import Path

import pytest

from repro import FaultPlan, FlowControlPolicy, make_runtime
from repro.adapt import AdaptiveSpec
from repro.bench import MessageRateParams, RunSpec, run
from repro.bench.parallel import evaluate_point, execution, run_points
from repro.hpx_rt.platform import EXPANSE
from repro.sim.shard import ShardContext, ShardingUnsupported, set_current

pytestmark = pytest.mark.adapt

P_SMALL = MessageRateParams(msg_size=8, batch=10, total_msgs=200,
                            inject_rate_kps=None, platform=EXPANSE)


# ---------------------------------------------------------------------------
# AdaptiveSpec validation + round-trip
# ---------------------------------------------------------------------------
def test_spec_defaults_valid():
    AdaptiveSpec()


@pytest.mark.parametrize("kw", [
    {"interval_us": 0.0},
    {"agg_hold_init": -1},
    {"agg_hold_start": 512, "agg_hold_max": 256},
    {"eager_scale_min": 0.0},
    {"eager_scale_init": 8.0},
    {"backlog_low": 9, "backlog_high": 8},
    {"contention_low": 0.9, "contention_high": 0.5},
    {"dwell_ticks": 0},
    {"step": 1.0},
])
def test_spec_rejects_bad_values(kw):
    with pytest.raises(ValueError):
        AdaptiveSpec(**kw)


def test_spec_dict_roundtrip():
    spec = AdaptiveSpec(agg_hold_init=1024, eager_scale_init=0.5,
                        dwell_ticks=3)
    assert AdaptiveSpec.from_dict(spec.as_dict()) == spec


def test_spec_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown"):
        AdaptiveSpec.from_dict({"interval_us": 50.0, "bogus": 1})


# ---------------------------------------------------------------------------
# byte-identity when off
# ---------------------------------------------------------------------------
FEATURE_COMBOS = [
    {},
    {"faults": FaultPlan.parse("drop=0.05")},
    {"flow": FlowControlPolicy()},
    {"trace": "parcel"},
    {"faults": FaultPlan.parse("drop=0.02,corrupt=0.01"),
     "flow": FlowControlPolicy()},
]


@pytest.mark.parametrize("config", ["lci_psr_cq_pin_i", "lci_psr_cq_pin",
                                    "mpi"])
def test_adaptive_off_identity(config):
    """With ``adapt=None`` the result dict is identical to a run that
    never mentions the subsystem, for every feature combination — and an
    adaptive run in between leaks no state into later plain runs."""
    for kw in FEATURE_COMBOS:
        before = run(RunSpec("message_rate", config, P_SMALL, 5,
                             **kw)).as_dict()
        assert not any(k.startswith("adapt.") for k in before)
        # An adaptive run on the same config must not perturb anything.
        run(RunSpec("message_rate", config, P_SMALL, 5,
                    adapt=AdaptiveSpec(),
                    **{k: v for k, v in kw.items() if k != "trace"}))
        after = run(RunSpec("message_rate", config, P_SMALL, 5, adapt=None,
                            **kw)).as_dict()
        assert after == before


def test_adaptive_off_runtime_has_no_controller():
    rt = make_runtime("lci", platform=EXPANSE, n_localities=2, seed=1)
    rt.boot()
    try:
        assert rt.adapt is None
        for loc in rt.localities:
            assert loc.parcelport.adapt is None
    finally:
        rt.shutdown()


# ---------------------------------------------------------------------------
# determinism when on
# ---------------------------------------------------------------------------
def test_adaptive_run_deterministic():
    spec = AdaptiveSpec(agg_hold_init=512)
    a = run(RunSpec("message_rate", "lci_psr_cq_pin", P_SMALL, 9,
                    adapt=spec)).as_dict()
    b = run(RunSpec("message_rate", "lci_psr_cq_pin", P_SMALL, 9,
                    adapt=spec)).as_dict()
    assert a == b
    assert a["adapt.ticks"] > 0


def _adapt_tasks():
    spec = AdaptiveSpec(agg_hold_init=512)
    return [RunSpec("message_rate", "lci_psr_cq_pin", P_SMALL, s, adapt=spec)
            for s in (3, 4)]


def test_adaptive_jobs_invariance():
    seq = [evaluate_point(t) for t in _adapt_tasks()]
    with execution(jobs=2):
        par = run_points(_adapt_tasks())
    assert par == seq


def test_adaptive_warm_cache_invariance(tmp_path):
    with execution(cache=tmp_path / "c") as pol:
        cold = run_points(_adapt_tasks())
        assert pol.cache.stats()["misses"] == 2
        warm = run_points(_adapt_tasks())
        assert warm == cold
        assert pol.cache.stats()["hits"] == 2
    assert cold == [evaluate_point(t) for t in _adapt_tasks()]


def test_adapt_in_cache_key_only_when_on(tmp_path):
    """A plain task's cache key must be unchanged by the subsystem (all
    pre-existing cache entries stay valid), and an adaptive task must
    never collide with its plain twin."""
    plain = RunSpec("message_rate", "lci", P_SMALL, 1)
    on = RunSpec("message_rate", "lci", P_SMALL, 1, adapt=AdaptiveSpec())
    assert '"adapt"' not in plain.canonical()
    assert json.loads(on.canonical())["adapt"] == AdaptiveSpec().as_dict()
    assert plain.canonical() != on.canonical()


@pytest.mark.parametrize("adapt", [True, {"agg_hold_max": 64}])
def test_run_spec_refuses_adapt_that_is_not_a_spec(adapt):
    """The runtime would accept these shorthands, but the cache key could
    not serialize them, so the spec refuses them when constructed."""
    with pytest.raises(TypeError, match="AdaptiveSpec"):
        RunSpec("message_rate", "lci", P_SMALL, 1, adapt=adapt)


# ---------------------------------------------------------------------------
# the controller actually controls
# ---------------------------------------------------------------------------
def test_controller_pins_worker_progress_under_contention():
    """On the worker-progress config the controller detects progress-lock
    contention and flips to a pinned engine — the adaptive run must beat
    the static one."""
    p = MessageRateParams(msg_size=8, batch=100, total_msgs=2000,
                          inject_rate_kps=None, platform=EXPANSE)
    plain = run(RunSpec("message_rate", "lci_psr_cq_mt_i", p, 1))
    tuned = run(RunSpec("message_rate", "lci_psr_cq_mt_i", p, 1,
                        adapt=AdaptiveSpec()))
    assert tuned.adapt["retune.progress_pinned"] >= 1
    assert tuned.adapt["progress_pinned_final"] == 1.0
    assert tuned.message_rate_kps > plain.message_rate_kps * 1.5


def test_controller_inert_on_best_static_config():
    """On the paper's winner the signals stay in band: zero retunes and
    the exact static schedule (identical rate, not merely close)."""
    p = MessageRateParams(msg_size=8, batch=100, total_msgs=2000,
                          inject_rate_kps=None, platform=EXPANSE)
    plain = run(RunSpec("message_rate", "lci_psr_cq_pin_i", p, 1))
    tuned = run(RunSpec("message_rate", "lci_psr_cq_pin_i", p, 1,
                        adapt=AdaptiveSpec()))
    assert tuned.adapt["retunes"] == 0.0
    assert tuned.message_rate_kps == plain.message_rate_kps


def test_aggregation_hold_engages_and_flushes():
    spec = AdaptiveSpec(agg_hold_init=4096)
    r = run(RunSpec("message_rate", "lci_psr_cq_pin", P_SMALL, 2, adapt=spec))
    assert r.adapt["agg_hold_final"] >= 0
    # Every message still arrives: holds delay pumps, never drop them.
    assert r.message_rate_kps > 0


# ---------------------------------------------------------------------------
# sharding guard
# ---------------------------------------------------------------------------
def test_adapt_rejected_under_shards():
    set_current(ShardContext(0, 2))
    try:
        with pytest.raises(ShardingUnsupported, match="adapt"):
            make_runtime("lci", platform=EXPANSE, n_localities=2, seed=1,
                         adapt=AdaptiveSpec())
    finally:
        set_current(None)


def test_adapt_task_rejected_by_sharded_engine():
    task = _adapt_tasks()[0]
    with execution(shards=2):
        with pytest.raises(ShardingUnsupported, match="adapt"):
            run_points([task])


# ---------------------------------------------------------------------------
# the auto-tuner
# ---------------------------------------------------------------------------
def test_run_tune_smoke(tmp_path):
    from repro.adapt.tuner import run_tune
    rc = run_tune(workload="message_rate", out_dir=str(tmp_path),
                  configs=["lci_psr_cq_pin_i", "lci_psr_cq_mt_i"],
                  adapt_variants={"static": None, "auto": AdaptiveSpec()},
                  budgets=[200, 400])
    assert rc == 0
    doc = json.loads((tmp_path / "BENCH_tune.json").read_text())
    assert doc["kind"] == "tune"
    assert doc["baseline"]["config"] == "lci_psr_cq_pin_i"
    assert len(doc["rungs"]) == 2
    names = {c["name"] for c in doc["rungs"][0]["candidates"]}
    assert names == {"lci_psr_cq_pin_i", "lci_psr_cq_pin_i+auto",
                     "lci_psr_cq_mt_i", "lci_psr_cq_mt_i+auto"}
    assert doc["winner"]["score"] > 0
    from repro.bench.perfbench import validate_bench
    assert validate_bench(doc) == []


def test_committed_tune_artifact_beats_baseline():
    """The checked-in BENCH_tune.json must validate and must record a
    tuned configuration that beats ``lci_psr_cq_pin_i``."""
    path = Path(__file__).resolve().parent.parent / "BENCH_tune.json"
    doc = json.loads(path.read_text())
    from repro.bench.perfbench import validate_bench
    assert validate_bench(doc) == []
    assert doc["winner"]["improvement_pct"] > 0
    assert doc["baseline"]["config"] == "lci_psr_cq_pin_i"
