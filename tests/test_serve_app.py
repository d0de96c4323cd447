"""Open-loop serving subsystem test battery (``pytest -m serve``).

Five contracts, mirroring docs/SERVING.md:

* the arrival/size generators are pure functions of their rng stream —
  seed-stable, rate-accurate, and bounded;
* the shared seed helpers in ``repro.bench.seeds`` reproduce both the
  historical sweep-seed ladder (bit-for-bit) and the RngPool substream
  derivation;
* ``TimeSeries.p999`` has exact, pinned small-sample semantics (linear
  interpolation, numpy-identical);
* request accounting is conservation-exact under sustained overload:
  offered = delivered + shed + failed + in-flight at quiesce, with
  shedding engaging as admission control past saturation;
* every run is deterministic — identical results across reruns, traced
  vs untraced, ``--jobs 2`` fan-out, and a warm result cache.
"""

import numpy as np
import pytest

from repro import make_runtime
from repro.apps.serve import (ServeConfig, ServeDriver, bounded_pareto,
                              bounded_pareto_mean, bursty_arrival_times,
                              poisson_arrival_times)
from repro.bench.figures import SERVE_CONFIGS, find_knee
from repro.bench.seeds import (REPEAT_BASE, REPEAT_STEP, derive_seed,
                               repeat_seeds, substream_seeds)
from repro.bench import SERVE_FLOW, RunSpec, ServeBenchParams, run
from repro.obs.metrics import build_runtime_metrics
from repro.sim.rng import RngPool
from repro.sim.stats import TimeSeries, percentile

pytestmark = pytest.mark.serve

#: the three config families the per-test matrix exercises (the figures
#: sweep all five of SERVE_CONFIGS)
CONFIGS = ["lci_psr_cq_pin_i", "mpi_i", "mpi"]


def _rng(seed=7):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# arrival generators
# ---------------------------------------------------------------------------
def test_poisson_arrivals_deterministic_sorted_and_bounded():
    a = poisson_arrival_times(_rng(), 100.0, 5000.0)
    b = poisson_arrival_times(_rng(), 100.0, 5000.0)
    assert a == b
    assert a == sorted(a)
    assert all(0.0 < t < 5000.0 for t in a)


def test_poisson_arrivals_hit_the_offered_rate():
    # 200 K req/s over 50 ms -> 10000 expected; Poisson sd ~ 100
    times = poisson_arrival_times(_rng(1), 200.0, 50_000.0)
    assert 9500 < len(times) < 10500


def test_poisson_arrivals_empty_on_degenerate_inputs():
    assert poisson_arrival_times(_rng(), 0.0, 1000.0) == []
    assert poisson_arrival_times(_rng(), 100.0, 0.0) == []


def test_bursty_arrivals_deterministic_and_bounded():
    a = bursty_arrival_times(_rng(3), 100.0, 10_000.0)
    b = bursty_arrival_times(_rng(3), 100.0, 10_000.0)
    assert a == b
    assert a == sorted(a)
    assert all(0.0 <= t < 10_000.0 for t in a)


def test_bursty_long_run_rate_matches_poisson_x_axis():
    # Same long-run offered rate as the Poisson generator (within the
    # heavy-tailed process's wider tolerance over a long horizon).
    times = bursty_arrival_times(_rng(4), 100.0, 400_000.0)
    rate = len(times) / 400_000.0 * 1e3
    assert 70.0 < rate < 130.0


def test_bursty_arrivals_are_burstier_than_poisson():
    # Index of dispersion of per-ms counts: ~1 for Poisson, >1 for the
    # heavy-tailed ON/OFF process at the same offered rate.
    def dispersion(times, horizon):
        counts = np.bincount((np.asarray(times) // 1000).astype(int),
                             minlength=int(horizon // 1000))
        return counts.var() / counts.mean()

    h = 200_000.0
    poisson = poisson_arrival_times(_rng(5), 100.0, h)
    bursty = bursty_arrival_times(_rng(5), 100.0, h)
    assert dispersion(bursty, h) > 2.0 * dispersion(poisson, h)


def test_bursty_rejects_bad_on_fraction():
    with pytest.raises(ValueError, match="on_fraction"):
        bursty_arrival_times(_rng(), 100.0, 1000.0, on_fraction=0.0)


# ---------------------------------------------------------------------------
# bounded Pareto sizes
# ---------------------------------------------------------------------------
def test_bounded_pareto_stays_in_bounds_and_is_heavy_tailed():
    rng = _rng(11)
    draws = [bounded_pareto(rng, 1.3, 64.0, 16384.0) for _ in range(4000)]
    assert all(64.0 <= d <= 16384.0 for d in draws)
    # heavy tail: the mean sits far above the median
    assert np.mean(draws) > 1.5 * np.median(draws)


def test_bounded_pareto_empirical_mean_matches_closed_form():
    rng = _rng(12)
    draws = [bounded_pareto(rng, 1.5, 100.0, 10_000.0) for _ in range(20000)]
    mean = bounded_pareto_mean(1.5, 100.0, 10_000.0)
    assert abs(np.mean(draws) - mean) / mean < 0.05


def test_bounded_pareto_degenerate_and_invalid():
    assert bounded_pareto(_rng(), 1.3, 512.0, 512.0) == 512.0
    assert bounded_pareto_mean(1.3, 512.0, 512.0) == 512.0
    with pytest.raises(ValueError, match="lo <= hi"):
        bounded_pareto(_rng(), 1.3, 10.0, 1.0)
    with pytest.raises(ValueError, match="alpha"):
        bounded_pareto(_rng(), 0.0, 1.0, 10.0)


def test_bounded_pareto_mean_alpha_one_special_case():
    # alpha == 1 takes the logarithmic branch; sanity: between lo and hi
    m = bounded_pareto_mean(1.0, 100.0, 10_000.0)
    assert 100.0 < m < 10_000.0


# ---------------------------------------------------------------------------
# shared seed helpers
# ---------------------------------------------------------------------------
def test_repeat_seeds_is_the_historical_ladder_bit_for_bit():
    assert repeat_seeds(1) == [1000]
    assert repeat_seeds(3) == [1000 + i * 7919 for i in range(3)]
    assert repeat_seeds(2, base=5) == [5, 5 + REPEAT_STEP]
    assert REPEAT_BASE == 1000 and REPEAT_STEP == 7919
    with pytest.raises(ValueError):
        repeat_seeds(0)


def test_derive_seed_matches_rngpool_substreams():
    pool = RngPool(1234)
    for name in ("serve.arrivals", "serve.req_bytes", "anything"):
        ours = np.random.default_rng(derive_seed(1234, name))
        theirs = pool.stream(name)
        assert ours.integers(0, 2**31, 8).tolist() == \
            theirs.integers(0, 2**31, 8).tolist()


def test_substream_seeds_are_distinct_and_stable():
    seeds = substream_seeds(99, "clients", 16)
    assert len(seeds) == 16 and len(set(seeds)) == 16
    assert seeds == substream_seeds(99, "clients", 16)
    assert substream_seeds(99, "clients", 0) == []
    with pytest.raises(ValueError):
        substream_seeds(99, "clients", -1)


# ---------------------------------------------------------------------------
# TimeSeries.p999 exact small-sample semantics
# ---------------------------------------------------------------------------
def _series(values):
    ts = TimeSeries()
    for i, v in enumerate(values):
        ts.record(float(i), float(v))
    return ts


def test_p999_single_sample_degenerates_to_that_sample():
    assert _series([42.0]).p999() == 42.0


def test_p999_two_samples_interpolates_linearly():
    # rank = 0.999*(n-1) = 0.999 -> 0.001*v0 + 0.999*v1, exactly
    ts = _series([100.0, 200.0])
    assert ts.p999() == pytest.approx(100.0 * 0.001 + 200.0 * 0.999)


def test_p999_1001_uniform_samples_lands_on_the_999th():
    ts = _series(range(1001))  # 0..1000, rank = 0.999*1000 = 999
    assert ts.p999() == pytest.approx(999.0)


def test_p999_matches_numpy_linear_method():
    rng = _rng(21)
    vals = rng.exponential(50.0, size=257).tolist()
    ts = _series(vals)
    assert ts.p999() == pytest.approx(
        float(np.percentile(vals, 99.9, method="linear")))
    assert ts.p999() == pytest.approx(percentile(vals, 99.9))


def test_p999_empty_series_is_zero_and_ordering_holds():
    assert TimeSeries().p999() == 0.0
    ts = _series(_rng(22).normal(100.0, 10.0, size=500))
    assert ts.p50() <= ts.p99() <= ts.p999() <= max(ts.values())


# ---------------------------------------------------------------------------
# driver: config validation and light-load correctness
# ---------------------------------------------------------------------------
def _serve(config, params, seed, trace=None):
    return run(RunSpec("serve", config, params, seed, flow=SERVE_FLOW,
                       trace=trace))


def _light_params(**kw):
    base = dict(offered_kps=50.0, horizon_us=1000.0, drain_us=1000.0)
    base.update(kw)
    return ServeBenchParams(**base)


def test_serve_config_validation():
    cfg = ServeConfig()
    with pytest.raises(ValueError, match="localities"):
        cfg.validate(1)
    with pytest.raises(ValueError, match="arrival"):
        ServeConfig(arrival="constant").validate(2)
    with pytest.raises(ValueError, match="client"):
        ServeConfig(n_clients=0).validate(2)
    with pytest.raises(ValueError, match="positive"):
        ServeConfig(offered_kps=0.0).validate(2)
    with pytest.raises(ValueError, match="slo"):
        ServeConfig(slo_us=0.0).validate(2)
    with pytest.raises(ValueError, match="drain"):
        ServeConfig(drain_us=-1.0).validate(2)


@pytest.mark.parametrize("config", CONFIGS)
def test_light_load_delivers_everything_in_slo(config):
    res = _serve(config, _light_params(), seed=1000)
    assert res.offered > 20
    assert res.delivered == res.offered
    assert res.shed_requests == res.shed_responses == 0
    assert res.failed == res.in_flight == 0
    assert res.slo_attainment == 1.0
    assert res.goodput_kps == pytest.approx(res.achieved_kps)


def test_driver_accounting_identity_closes():
    rt = make_runtime("lci_psr_cq_pin_i", n_localities=3, seed=5)
    driver = ServeDriver(rt, ServeConfig(offered_kps=50.0,
                                         horizon_us=1000.0))
    res = driver.run(max_events=5_000_000)
    res.check_conservation()  # raises on a leak
    assert res.offered == len(driver.requests)
    # the schedule is precomputed: every request has a server != gateway
    assert all(1 <= r.server < 3 for r in driver.requests)
    assert all(r.deadline_us == r.t_arrive + driver.cfg.slo_us
               for r in driver.requests)


def test_driver_claims_the_parcel_failure_hook_exclusively():
    rt = make_runtime("mpi_i", n_localities=2, seed=5)
    rt.on_parcel_failure = lambda parcel, exc: None
    with pytest.raises(RuntimeError, match="on_parcel_failure"):
        ServeDriver(rt, ServeConfig(offered_kps=10.0,
                                    horizon_us=500.0)).run()


def test_tiny_slo_counts_misses_without_losing_requests():
    res = _serve("lci_psr_cq_pin_i", _light_params(slo_us=0.5),
                 seed=1000)
    assert res.delivered == res.offered
    assert res.deadline_misses == res.delivered
    assert res.goodput_kps == 0.0 and res.slo_attainment == 0.0


def _conserved(res):
    return res.offered == (res.delivered + res.shed_requests
                           + res.shed_responses + res.failed
                           + res.in_flight)


def test_bursty_arrival_end_to_end_run():
    res = _serve("mpi_i", _light_params(arrival="bursty"), seed=1000)
    assert _conserved(res)
    assert res.offered > 0 and res.delivered > 0


def test_serve_stats_flow_into_metrics_registry():
    rt = make_runtime("lci_psr_cq_pin_i", n_localities=3, seed=5,
                      flow_policy=SERVE_FLOW, reliable=True)
    driver = ServeDriver(rt, ServeConfig(offered_kps=50.0,
                                         horizon_us=1000.0))
    res = driver.run(max_events=5_000_000)
    reg = build_runtime_metrics(rt)
    flat = reg.as_dict()
    assert flat["serve.responses_delivered"] == res.delivered
    assert flat["serve.requests_offered"] == res.offered
    assert flat["serve.requests_in_flight"] == res.in_flight
    hist = reg.get("serve.latency_us")
    assert hist is not None and hist.count == len(res.latency)
    assert hist.p999() == pytest.approx(res.latency.p999())


# ---------------------------------------------------------------------------
# shedding as admission control: sustained overload
# ---------------------------------------------------------------------------
OVERLOAD = ServeBenchParams(offered_kps=1600.0, horizon_us=1500.0,
                            drain_us=1500.0)


@pytest.mark.parametrize("config", CONFIGS)
def test_sustained_overload_sheds_and_conserves(config):
    res = _serve(config, OVERLOAD, seed=1000)
    assert _conserved(res)
    assert res.shed_requests > 0, "admission control never engaged"
    assert res.slo_attainment < 0.5, "overload point is not saturating"
    assert res.faults.get("parcels_shed", 0) > 0
    assert res.deadline_misses <= res.delivered


def test_quiesce_catches_in_flight_requests_exactly():
    # No drain: whatever the horizon catches mid-stack must be counted
    # as in_flight, and the identity must still close.
    res = _serve("mpi_i",
                 ServeBenchParams(offered_kps=800.0, horizon_us=1000.0,
                                  drain_us=0.0),
                 seed=1000)
    assert _conserved(res)
    assert res.in_flight > 0


def test_overload_accounting_is_rerun_deterministic():
    a = _serve("lci_psr_cq_pin_i", OVERLOAD, seed=1000).as_dict()
    b = _serve("lci_psr_cq_pin_i", OVERLOAD, seed=1000).as_dict()
    assert a == b


def test_traced_run_reports_identical_metrics():
    plain = _serve("mpi_i", OVERLOAD, seed=1000)
    traced = _serve("mpi_i", OVERLOAD, seed=1000, trace="parcel")
    assert plain.as_dict() == traced.as_dict()
    assert traced.obs is not None and len(traced.obs) > 0


def test_different_seeds_give_different_schedules():
    a = _serve("mpi_i", OVERLOAD, seed=1000)
    b = _serve("mpi_i", OVERLOAD, seed=8919)
    assert a.offered != b.offered or a.as_dict() != b.as_dict()


# ---------------------------------------------------------------------------
# sweep integration: --jobs and warm-cache invariance
# ---------------------------------------------------------------------------
def _overload_tasks():
    return [RunSpec("serve", cfg,
                    ServeBenchParams(offered_kps=kps, horizon_us=1000.0,
                                     drain_us=1000.0),
                    seed, flow=SERVE_FLOW)
            for cfg in ("lci_psr_cq_pin_i", "mpi_i")
            for kps in (100.0, 1600.0)
            for seed in repeat_seeds(1)]


def test_serve_points_identical_under_jobs2():
    from repro.bench.parallel import run_points

    seq = run_points(_overload_tasks(), jobs=1, no_cache=True)
    par = run_points(_overload_tasks(), jobs=2, no_cache=True)
    assert seq == par
    # the heavy points shed; the light ones do not
    assert seq[1]["shed_requests"] > 0 and seq[3]["shed_requests"] > 0
    assert seq[0]["shed_requests"] == 0 and seq[2]["shed_requests"] == 0


def test_serve_points_identical_on_warm_cache(tmp_path):
    from repro.bench.parallel import ResultCache, run_points

    cache = ResultCache(tmp_path / "serve-cache")
    cold = run_points(_overload_tasks(), jobs=1, cache=cache)
    assert cache.stats()["misses"] == len(cold)
    warm = run_points(_overload_tasks(), jobs=1, cache=cache)
    assert warm == cold
    assert cache.stats()["hits"] == len(cold)


# ---------------------------------------------------------------------------
# knee finding + figure checks
# ---------------------------------------------------------------------------
def test_find_knee_locates_the_last_attaining_load():
    loads = [25.0, 50.0, 100.0, 200.0, 400.0]
    assert find_knee(loads, [1.0, 1.0, 0.95, 0.4, 0.1]) == 100.0
    # saturated below the sweep -> 0 (fails the inside-sweep check)
    assert find_knee(loads, [0.5, 0.4, 0.3, 0.2, 0.1]) == 0.0
    # never saturates -> the top of the ladder (also a located failure)
    assert find_knee(loads, [1.0] * 5) == 400.0
    # a post-dip recovery still reports the largest attaining load
    assert find_knee(loads, [1.0, 0.2, 0.95, 0.4, 0.1]) == 100.0


def test_serve_sweep_checks_on_synthetic_figure():
    from repro.bench.figures import FigureResult
    from repro.bench.harness import Series
    from repro.bench.validation import validate

    loads = [25.0, 50.0, 100.0, 200.0, 400.0]
    knees = {"lci_psr_cq_pin_i": 200.0, "lci_sr_cq_pin_i": 100.0,
             "mpi": 50.0, "mpi_i": 50.0, "mpi_orig": 50.0}
    series = []
    for cfg in SERVE_CONFIGS:
        s = Series(label=cfg)
        for x, y in zip(loads, [25.0, 50.0, 100.0, 120.0, 80.0]):
            s.add(x, y)
        series.append(s)
    fig = FigureResult(
        "serve_sweep", "synthetic", series, meta={
            "loads": loads, "knees": knees,
            "p99_us": {c: [10.0, 12.0, 20.0, 150.0, 400.0]
                       for c in SERVE_CONFIGS},
            "counters": {c: {"shed_requests": 5.0, "deadline_misses": 9.0,
                             "credit_stalls": 3.0}
                         for c in SERVE_CONFIGS}})
    outcomes = validate(fig)
    assert outcomes, "serve_sweep has no registered checks"
    failed = [o.name for o in outcomes if not o.passed]
    assert not failed, failed


def test_serve_sweep_checks_catch_a_missing_knee():
    from repro.bench.figures import FigureResult
    from repro.bench.validation import checks_for

    fig = FigureResult("serve_sweep", "synthetic", [], meta={
        "loads": [25.0, 400.0],
        "knees": {"lci_psr_cq_pin_i": 400.0, "mpi": 0.0}})
    by_name = {getattr(c, "__name__", ""): c
               for c in checks_for("serve_sweep")}
    knee_check = [c for c in checks_for("serve_sweep")][0]
    out = knee_check(fig)
    assert out.name == "knee_located_per_family" and not out.passed
    assert "lci_psr_cq_pin_i" in out.detail and "mpi" in out.detail
