"""Wall-clock perf harness (repro.bench.perfbench).

Wall-clock numbers themselves are never asserted (they vary per host) —
these tests pin the harness mechanics: the BENCH document schema, the
validator, and the determinism cross-checks built into the bench runners.
A miniature workload set keeps the bench runs fast.
"""

import json

import pytest

import repro.bench.perfbench as perfbench
from repro.bench.perfbench import (BENCH_SCHEMA, KERNEL_WORKLOADS,
                                   bench_kernel, run_perf, validate_bench)

TINY_WORKLOADS = {name: (fn, 400, 800)
                  for name, (fn, _s, _f) in KERNEL_WORKLOADS.items()}


@pytest.fixture()
def tiny_workloads(monkeypatch):
    monkeypatch.setattr(perfbench, "KERNEL_WORKLOADS", TINY_WORKLOADS)


def test_kernel_workloads_have_smoke_and_full_scales():
    assert set(KERNEL_WORKLOADS) == {"timeout_storm", "process_ping_pong",
                                     "condition_fanin", "call_storm"}
    for _fn, smoke, full in KERNEL_WORKLOADS.values():
        assert 0 < smoke < full


def test_workloads_process_same_events_on_both_kernels():
    import repro.sim._seed_kernel as seed_kernel
    import repro.sim.core as live_kernel
    for name, (fn, _s, _f) in KERNEL_WORKLOADS.items():
        assert fn(live_kernel, 400) == fn(seed_kernel, 400), name


def test_bench_kernel_document_schema(tiny_workloads):
    doc = bench_kernel(repeats=1)
    assert validate_bench(doc) == []
    assert doc["schema"] == BENCH_SCHEMA
    assert doc["kind"] == "kernel" and doc["scale"] == "smoke"
    assert set(doc["workloads"]) == set(TINY_WORKLOADS)
    for w in doc["workloads"].values():
        assert w["events"] > 0
        assert w["speedup"] == pytest.approx(
            w["live_events_per_s"] / w["seed_events_per_s"], rel=0.01)
    assert doc["speedup_min"] <= doc["speedup_geomean"]


def test_bench_kernel_full_scale_flag(tiny_workloads):
    doc = bench_kernel(full=True, repeats=1)
    assert doc["scale"] == "full"
    assert all(w["n"] == 800 for w in doc["workloads"].values())


def test_validate_bench_flags_problems():
    assert any("schema" in e for e in validate_bench({}))
    assert any("kind" in e for e in validate_bench({"schema": BENCH_SCHEMA}))
    kernel_doc = {"schema": BENCH_SCHEMA, "kind": "kernel",
                  "python": "3", "platform": "x", "generated_utc": "t",
                  "repeats": 1, "scale": "smoke",
                  "workloads": {"w": {"n": 1, "events": 0, "live_s": 1,
                                      "live_events_per_s": 1, "seed_s": 1,
                                      "seed_events_per_s": 1,
                                      "speedup": 1}},
                  "speedup_min": 1, "speedup_geomean": 1}
    errors = validate_bench(kernel_doc)
    assert errors == ["workload w: bad events=0"]
    figures_doc = {"schema": BENCH_SCHEMA, "kind": "figures",
                   "python": "3", "platform": "x", "generated_utc": "t",
                   "repeats": 1, "scale": "smoke",
                   "figures": {"fig1_quick": {"wall_s": 1.0}},
                   "sweep": {"points": 4, "sequential_s": 1.0, "jobs": 2,
                             "parallel_s": 1.0, "speedup": 1.0}}
    assert validate_bench(figures_doc) == []
    del figures_doc["sweep"]
    assert validate_bench(figures_doc) == ["figures doc has no sweep timing"]


def test_validate_bench_models_kind():
    models_doc = {"schema": BENCH_SCHEMA, "kind": "models",
                  "python": "3", "platform": "x", "generated_utc": "t",
                  "repeats": 1, "scale": "smoke",
                  "workloads": {"w": {"live_s": 0.5, "ref_s": 1.0,
                                      "speedup": 2.0}},
                  "speedup_min": 2.0, "speedup_geomean": 2.0}
    assert validate_bench(models_doc) == []
    models_doc["workloads"]["w"]["ref_s"] = 0
    assert validate_bench(models_doc) == ["workload w: bad ref_s=0"]
    del models_doc["workloads"]
    assert any("no workloads" in e for e in validate_bench(models_doc))


def test_bench_models_document_schema(monkeypatch):
    """bench_models over a miniature real workload: identity + schema."""
    from repro.bench import MessageRateParams, RunSpec, run

    params = MessageRateParams(msg_size=8, batch=25, total_msgs=200,
                               inject_rate_kps=200.0)
    spec = RunSpec("message_rate", "mpi_i", params, 7)
    tiny = {"tiny_mpi_i": lambda: run(spec).as_dict()}
    monkeypatch.setattr(perfbench, "_model_workloads", lambda full: tiny)
    doc = perfbench.bench_models(repeats=1)
    assert validate_bench(doc) == []
    assert doc["kind"] == "models" and doc["scale"] == "smoke"
    assert set(doc["workloads"]) == {"tiny_mpi_i"}
    w = doc["workloads"]["tiny_mpi_i"]
    assert w["speedup"] == pytest.approx(w["ref_s"] / w["live_s"], rel=0.01)
    assert doc["speedup_min"] <= doc["speedup_geomean"]


def test_bench_models_detects_divergence(monkeypatch):
    """A workload whose result changes between runs must be rejected."""
    import itertools
    counter = itertools.count()
    tiny = {"diverges": lambda: {"x": next(counter)}}
    monkeypatch.setattr(perfbench, "_model_workloads", lambda full: tiny)
    with pytest.raises(AssertionError, match="diverged"):
        perfbench.bench_models(repeats=1)


def test_model_workloads_cover_issue_surface():
    """The macrobench must span fig1 points, the MT sweep, and Octo-Tiger."""
    names = set(perfbench._model_workloads(full=False))
    assert names == {"fig1_point_mpi_i", "fig1_point_lci_pin",
                     "rate_sweep_lci_mt", "octotiger_step_mpi_i"}


def test_committed_baselines_are_valid():
    """The BENCH_*.json files at the repo root must pass the validator."""
    from pathlib import Path
    root = Path(__file__).resolve().parent.parent
    for fname in ("BENCH_kernel.json", "BENCH_models.json",
                  "BENCH_figures.json"):
        path = root / fname
        assert path.exists(), f"{fname} baseline missing (run repro-fig perf)"
        doc = json.loads(path.read_text())
        assert validate_bench(doc) == [], fname
    models = json.loads((root / "BENCH_models.json").read_text())
    # the committed baseline documents the >=1.5x model-path target
    assert models["speedup_geomean"] >= 1.5


def test_run_perf_writes_valid_documents(tiny_workloads, tmp_path,
                                         monkeypatch, capsys):
    # stub the (slow) figure and model benches; kernel bench runs tiny
    monkeypatch.setattr(
        perfbench, "_model_workloads",
        lambda full: {"tiny": lambda: {"x": sum(range(200_000))}})
    monkeypatch.setattr(
        perfbench, "bench_figures",
        lambda full=False, jobs=None: {
            "schema": BENCH_SCHEMA, "kind": "figures", "python": "3",
            "platform": "x", "generated_utc": "t", "repeats": 1,
            "scale": "smoke",
            "figures": {"fig1_quick": {"wall_s": 0.1}},
            "sweep": {"points": 2, "sequential_s": 0.2, "jobs": 2,
                      "parallel_s": 0.1, "speedup": 2.0}})
    assert run_perf(out_dir=str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "kernel microbenchmarks" in out and "speedup" in out
    assert "model macrobenchmarks" in out
    for fname in ("BENCH_kernel.json", "BENCH_models.json",
                  "BENCH_figures.json"):
        doc = json.loads((tmp_path / fname).read_text())
        assert validate_bench(doc) == []
