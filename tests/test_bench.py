"""Tests for the benchmark harness layer (workloads, harness, reporting)."""

import pytest

from repro.bench import (FIGURES, LatencyParams, Measurement,
                         MessageRateParams, OctoTigerBenchParams, RunSpec,
                         Series, platform_tables, repeat, run,
                         table_abbreviations)
from repro.bench.reporting import (ascii_plot, format_bar_chart,
                                   format_series_table, format_table)
from repro.hpx_rt.platform import LAPTOP


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------
def test_repeat_aggregates_keys():
    calls = []

    def fn(seed):
        calls.append(seed)
        return {"x": float(len(calls)), "y": 2.0}

    out = repeat(fn, n=4)
    assert out["x"].n == 4
    assert out["x"].values == [1.0, 2.0, 3.0, 4.0]
    assert out["y"].mean == 2.0
    assert out["y"].std == 0.0
    assert len(set(calls)) == 4     # distinct seeds


def test_repeat_requires_positive_n():
    with pytest.raises(ValueError):
        repeat(lambda s: {}, n=0)


def test_measurement_repr():
    m = Measurement([1.0, 2.0, 3.0])
    assert m.mean == 2.0
    assert "±" in repr(m)


def test_series_add_and_lookup():
    s = Series(label="x")
    s.add(1.0, 10.0)
    s.add(2.0, Measurement([20.0, 22.0]))
    assert s.peak == 21.0
    assert s.y_at(1.2) == 10.0
    assert s.y_at(2.0) == 21.0
    assert s.yerr[0] == 0.0 and s.yerr[1] > 0


def test_series_y_at_empty_raises():
    with pytest.raises(ValueError):
        Series(label="e").y_at(1.0)


# ---------------------------------------------------------------------------
# workloads (LAPTOP-sized so they run fast)
# ---------------------------------------------------------------------------
def test_message_rate_run_returns_sane_rates():
    p = MessageRateParams(msg_size=8, batch=10, total_msgs=100,
                          inject_rate_kps=None, platform=LAPTOP)
    r = run(RunSpec("message_rate", "lci_psr_cq_pin_i", p))
    assert r.total_msgs == 100
    assert 0 < r.comm_time_us
    assert 0 < r.inject_time_us <= r.comm_time_us
    assert r.message_rate_kps <= r.achieved_injection_kps
    d = r.as_dict()
    assert set(d) == {"achieved_injection_kps", "message_rate_kps"}


def test_message_rate_throttled_injection():
    fast = run(RunSpec("message_rate", "lci_psr_cq_pin_i", MessageRateParams(
        msg_size=8, batch=10, total_msgs=100, inject_rate_kps=None,
        platform=LAPTOP)))
    slow = run(RunSpec("message_rate", "lci_psr_cq_pin_i", MessageRateParams(
        msg_size=8, batch=10, total_msgs=100, inject_rate_kps=50.0,
        platform=LAPTOP)))
    assert slow.achieved_injection_kps < fast.achieved_injection_kps
    # throttled to ~50 K/s
    assert slow.achieved_injection_kps == pytest.approx(50.0, rel=0.2)


def test_message_rate_batch_divisibility_enforced():
    p = MessageRateParams(batch=100, total_msgs=150)
    with pytest.raises(ValueError):
        run(RunSpec("message_rate", "mpi", p))


def test_latency_run_and_metric():
    p = LatencyParams(msg_size=8, window=2, steps=5, platform=LAPTOP)
    r = run(RunSpec("latency", "lci_psr_cq_pin_i", p))
    assert r.one_way_latency_us == pytest.approx(
        r.total_time_us / (2 * 5))
    assert r.one_way_latency_us > 0


def test_latency_grows_with_message_size():
    small = run(RunSpec("latency", "mpi_i", LatencyParams(
        msg_size=8, window=1, steps=5, platform=LAPTOP)))
    big = run(RunSpec("latency", "mpi_i", LatencyParams(
        msg_size=65536, window=1, steps=5, platform=LAPTOP)))
    assert big.one_way_latency_us > small.one_way_latency_us


def test_octotiger_bench_returns_metrics():
    p = OctoTigerBenchParams(platform=LAPTOP, n_localities=2,
                             paper_level=5, n_steps=1)
    out = run(RunSpec("octotiger", "lci_psr_cq_pin_i", p)).as_dict()
    assert out["steps_per_second"] > 0
    assert out["leaves"] > 0
    assert out["total_time_us"] > 0


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------
def test_format_table_alignment():
    out = format_table([["a", 1], ["bbb", 22]], header=["k", "v"])
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("k")
    assert set(lines[1]) <= {"-", " "}


def test_format_series_table_merges_x_axes():
    s1 = Series("a")
    s1.add(1, 10.0)
    s2 = Series("b")
    s2.add(2, 20.0)
    out = format_series_table([s1, s2])
    assert "a" in out and "b" in out
    assert "-" in out    # missing cells marked


def test_ascii_plot_renders_all_series():
    s1 = Series("one")
    for x, y in [(1, 10), (10, 100), (100, 1000)]:
        s1.add(x, y)
    s2 = Series("two")
    for x, y in [(1, 5), (10, 50)]:
        s2.add(x, y)
    out = ascii_plot([s1, s2], width=30, height=8, title="t")
    assert "o = one" in out
    assert "x = two" in out
    assert "log" in out


def test_ascii_plot_empty():
    assert ascii_plot([Series("e")]) == "(no data)"


def test_format_bar_chart():
    out = format_bar_chart(["aa", "b"], [10.0, 5.0], width=10, unit="K")
    lines = out.splitlines()
    assert lines[0].count("#") == 10
    assert lines[1].count("#") == 5


def test_tables_render():
    t1 = table_abbreviations()
    assert "putsendrecv" in t1
    assert "send immediate" in t1
    t23 = platform_tables()
    assert "expanse" in t23 and "rostam" in t23
    assert "128" in t23 and "40" in t23


def test_figure_registry_complete():
    for n in range(1, 12):
        assert f"fig{n}" in FIGURES
    assert "ablation_mpi_pp" in FIGURES
    assert "ablation_aggregation" in FIGURES
