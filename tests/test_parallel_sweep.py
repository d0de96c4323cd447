"""Parallel sweep engine + result cache (repro.bench.parallel).

The contracts under test:

* A :class:`RunSpec` serializes canonically: stable, sorted, every
  params field and set layer included (the platform in full).
* ``run_points`` with ``jobs=N`` returns results **element-wise identical**
  to a sequential run (every point is an independent deterministic
  simulation keyed by its own seed).
* The content-addressed cache: a hit skips the simulation entirely, a
  changed parameter / seed / code fingerprint misses, ``no_cache=True``
  bypasses a populated cache.
* ``run_sweep(jobs=N)`` produces the same rows as sequential.
"""

import dataclasses
import json
import os
import pickle

import pytest

import repro.bench.parallel as parallel
from repro import FaultPlan, FlowControlPolicy, RetryPolicy
from repro.bench import (SERVE_FLOW, LatencyParams, MessageRateParams,
                         OctoTigerBenchParams, RunSpec, ServeBenchParams,
                         run, workloads)
from repro.bench.parallel import (ExecutionPolicy, ResultCache,
                                  code_fingerprint, evaluate_point,
                                  execution, run_points, set_policy)
from repro.bench.sweep import SweepSpec, run_sweep
from repro.hpx_rt.platform import EXPANSE, ROSTAM


def rate_spec(cfg="mpi_i", total=300, rate=None, seed=5, **layers):
    return RunSpec("message_rate", cfg,
                   MessageRateParams(msg_size=8, batch=50, total_msgs=total,
                                     inject_rate_kps=rate, platform=EXPANSE),
                   seed, **layers)


def small_tasks(n_seeds=2, total=300):
    return [rate_spec(cfg, total, rate, seed=1000 + i * 7919)
            for cfg in ("mpi_i", "lci_psr_cq_pin_i")
            for rate in (100.0, None)
            for i in range(n_seeds)]


# ---------------------------------------------------------------------------
# run specs
# ---------------------------------------------------------------------------
def test_point_task_canonical_is_stable_and_sorted():
    t = rate_spec(total=100, seed=3)
    c = t.canonical()
    assert c == t.canonical()
    assert (c.index('"config"') < c.index('"params"') < c.index('"seed"')
            < c.index('"workload"'))
    assert '"platform":{' in c and '"name":"expanse"' in c
    # layers that are off are left out of the key
    for layer in ("faults", "retry", "flow", "trace", "adapt"):
        assert f'"{layer}"' not in c


def test_task_builders_serialize_platform_by_name():
    """The key carries the platform by name and, since a platform is no
    longer looked up by name, every other field of it too."""
    t1 = RunSpec("latency", "mpi_i",
                 LatencyParams(msg_size=8, window=4, steps=5,
                               platform=ROSTAM), 1)
    t2 = RunSpec("octotiger", "mpi_i",
                 OctoTigerBenchParams(platform=EXPANSE, n_localities=2,
                                      paper_level=4, n_steps=1), 1)
    p1 = json.loads(t1.canonical())["params"]["platform"]
    p2 = json.loads(t2.canonical())["params"]["platform"]
    assert p1["name"] == "rostam" and p2["name"] == "expanse"
    assert p1 == dataclasses.asdict(ROSTAM)
    assert p2 == dataclasses.asdict(EXPANSE)
    assert "cost" in p1 and "network" in p1


def test_same_name_platforms_with_different_costs_get_different_keys(
        tmp_path):
    tweaked = EXPANSE.with_(cost=EXPANSE.cost.with_(parcel_create_us=0.5))
    assert tweaked.name == EXPANSE.name
    a = rate_spec()
    b = RunSpec("message_rate", "mpi_i",
                dataclasses.replace(a.params, platform=tweaked), a.seed)
    cache = ResultCache(tmp_path)
    assert a.canonical() != b.canonical()
    assert cache.key(a) != cache.key(b)
    cache.put(a, {"x": 1.0})
    assert cache.get(b) is None


def test_set_layers_enter_the_key():
    base = rate_spec()
    keys = {base.canonical()}
    for layers in ({"faults": FaultPlan(drop_prob=0.01)},
                   {"retry": RetryPolicy()},
                   {"flow": FlowControlPolicy()},
                   {"trace": "parcel"}):
        keys.add(rate_spec(**layers).canonical())
    assert len(keys) == 5


def _one_spec(name):
    """A small spec for every registered workload."""
    params = workloads()[name].params()
    flow = SERVE_FLOW if name == "serve" else None
    return RunSpec(name, "lci", params, 7, flow=flow,
                   faults=FaultPlan(drop_prob=0.01))


@pytest.mark.parametrize("name", sorted(workloads()))
def test_spec_pickle_roundtrip_every_workload(name):
    spec = _one_spec(name)
    back = pickle.loads(pickle.dumps(spec))
    assert back == spec
    assert back.canonical() == spec.canonical()


def test_evaluate_point_matches_direct_run():
    task = rate_spec()
    direct = run(RunSpec("message_rate", "mpi_i",
                         MessageRateParams(msg_size=8, batch=50,
                                           total_msgs=300,
                                           inject_rate_kps=None,
                                           platform=EXPANSE),
                         seed=5)).as_dict()
    assert evaluate_point(task) == direct


def test_evaluate_point_rejects_unknown_kind_and_platform():
    with pytest.raises(ValueError, match="unknown workload"):
        evaluate_point(RunSpec("nope", "mpi_i", MessageRateParams(), 0))
    with pytest.raises(TypeError, match="LatencyParams"):
        RunSpec("latency", "mpi_i", MessageRateParams(), 0)
    # a platform is a PlatformSpec, never a name to look up
    with pytest.raises(TypeError, match="platform"):
        RunSpec("message_rate", "mpi_i", MessageRateParams(platform="cray"),
                0)


def test_serve_spec_requires_shed_mode_flow():
    for flow in (None, FlowControlPolicy(credit_window=8)):
        with pytest.raises(ValueError, match="shed-mode"):
            RunSpec("serve", "mpi_i", ServeBenchParams(), 0, flow=flow)
    RunSpec("serve", "mpi_i", ServeBenchParams(), 0, flow=SERVE_FLOW)


def test_run_points_refuses_traced_specs(monkeypatch):
    monkeypatch.setattr(parallel, "evaluate_point", lambda spec: {})
    with pytest.raises(ValueError, match="traced"):
        run_points([rate_spec(), rate_spec(trace="parcel")], jobs=1,
                   no_cache=True)


# ---------------------------------------------------------------------------
# parallel == sequential
# ---------------------------------------------------------------------------
def test_jobs2_results_element_wise_identical_to_sequential():
    tasks = small_tasks()
    seq = run_points(tasks, jobs=1, no_cache=True)
    par = run_points(tasks, jobs=2, no_cache=True)
    assert len(seq) == len(tasks)
    assert seq == par


def test_run_sweep_jobs2_rows_identical_to_sequential():
    spec = SweepSpec(axes={"config": ["mpi_i", "lci_psr_cq_pin_i"],
                           "total_msgs": [200, 400]}, repeats=2)
    seq = run_sweep(_sweep_fn, spec, jobs=1)
    par = run_sweep(_sweep_fn, spec, jobs=2)
    assert seq.rows == par.rows
    assert len(seq.rows) == spec.size
    assert [r["seed"] for r in seq.rows[:2]] == [1000, 8919]


def _sweep_fn(config, total_msgs, seed):
    # top-level so ProcessPoolExecutor workers can unpickle it
    params = MessageRateParams(msg_size=8, batch=50, total_msgs=total_msgs,
                               inject_rate_kps=None, platform=EXPANSE)
    return run(RunSpec("message_rate", config, params, seed)).as_dict()


# ---------------------------------------------------------------------------
# result cache
# ---------------------------------------------------------------------------
def test_cache_roundtrip_and_hit_skips_simulation(tmp_path, monkeypatch):
    tasks = small_tasks(n_seeds=1)
    cache = ResultCache(tmp_path)
    first = run_points(tasks, jobs=1, cache=cache)
    assert cache.stats() == {"hits": 0, "misses": len(tasks),
                             "stores": len(tasks)}

    def boom(task):
        raise AssertionError("cache hit must not re-simulate")

    monkeypatch.setattr(parallel, "evaluate_point", boom)
    second = run_points(tasks, jobs=1, cache=cache)
    assert second == first
    assert cache.hits == len(tasks)


def test_changed_param_and_seed_miss(tmp_path):
    cache = ResultCache(tmp_path)
    base = small_tasks(n_seeds=1)[0]
    cache.put(base, {"x": 1.0})
    assert cache.get(base) == {"x": 1.0}
    other_seed = dataclasses.replace(base, seed=base.seed + 1)
    other_param = dataclasses.replace(
        base, params=base.params.with_(total_msgs=999))
    assert cache.get(other_seed) is None
    assert cache.get(other_param) is None


def test_changed_code_fingerprint_misses(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    task = small_tasks(n_seeds=1)[0]
    cache.put(task, {"x": 2.0})
    assert cache.get(task) == {"x": 2.0}
    monkeypatch.setattr(parallel, "_FINGERPRINT", "0" * 64)
    assert cache.get(task) is None


def test_no_cache_bypasses_populated_cache(tmp_path, monkeypatch):
    tasks = small_tasks(n_seeds=1)[:1]
    cache = ResultCache(tmp_path)
    cache.put(tasks[0], {"sentinel": 1.0})
    monkeypatch.setattr(parallel, "evaluate_point",
                        lambda task: {"fresh": 2.0})
    with execution(jobs=1, cache=cache):
        cached = run_points(tasks)
        assert cached == [{"sentinel": 1.0}]
        fresh = run_points(tasks, no_cache=True)
        assert fresh == [{"fresh": 2.0}]
    assert cache.stores == 1  # no_cache run must not write either


def test_cache_ignores_corrupt_and_wrong_schema_entries(tmp_path):
    cache = ResultCache(tmp_path)
    task = small_tasks(n_seeds=1)[0]
    path = cache._path(cache.key(task))
    path.parent.mkdir(parents=True)
    path.write_text("{not json")
    assert cache.get(task) is None
    path.write_text('{"schema": "repro-cache/0", "result": {"x": 1}}')
    assert cache.get(task) is None


def test_concurrent_put_of_same_key_does_not_crash(tmp_path, monkeypatch):
    """Two writers storing one key (two figure runs sharing a cache
    directory): the second writer's whole put lands between the first
    writer's write and its rename.  Both must succeed."""
    cache = ResultCache(tmp_path)
    task = small_tasks(n_seeds=1)[0]
    real_replace = os.replace
    nested = []

    def racing_replace(src, dst):
        if not nested:
            nested.append(True)
            cache.put(task, {"x": 2.0})
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", racing_replace)
    cache.put(task, {"x": 1.0})
    assert cache.stores == 2
    assert cache.get(task) == {"x": 1.0}
    assert not list(tmp_path.rglob("*.tmp"))


def test_code_fingerprint_is_hex_and_cached():
    fp = code_fingerprint()
    assert fp == code_fingerprint()
    assert len(fp) == 64 and int(fp, 16) >= 0


# ---------------------------------------------------------------------------
# execution policy
# ---------------------------------------------------------------------------
def test_set_policy_validates_and_execution_restores(tmp_path):
    prev = parallel.policy()
    with execution(jobs=3, cache=tmp_path) as pol:
        assert parallel.policy() is pol
        assert pol.jobs == 3 and pol.cache is not None
        with pytest.raises(ValueError, match="jobs"):
            set_policy(jobs=0)
    assert parallel.policy() is prev


def test_env_var_supplies_default_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(parallel.CACHE_ENV, str(tmp_path / "envcache"))
    with execution(jobs=1, cache=None):
        pol = set_policy()
        assert pol.cache is not None
        assert pol.cache.root == tmp_path / "envcache"
        pol2 = set_policy(no_cache=True)
        assert pol2.cache is None
