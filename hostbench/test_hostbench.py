"""Tests of the benchmark itself: ``python3 -m pytest hostbench -q``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
#: the cheapest workload; one pass takes about two seconds
WORKLOAD = "rate_mpi"


@pytest.fixture(scope="module", autouse=True)
def program():
    run.load_program()


def _run_cli(capsys, *args: str):
    assert run.main(["--workload", WORKLOAD, "--seconds", "0.01",
                     *args]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"),
                                        ("1", "per_layer")])
def test_every_metric_prints_by_name_with_its_unit(capsys, trace, kind):
    lines, result = _run_cli(capsys, "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(re.fullmatch(rf"{re.escape(name)} \S+ {re.escape(unit)}",
                                line) for line in lines), name
    meta = json.loads(lines[-2])["meta"]
    assert {"cpu_count", "platform", "python", "commit",
            "samples"} <= set(meta)
    assert any(line.startswith("fail_frac 0.0 ratio") for line in lines)


def test_a_tampered_golden_makes_fail_frac_positive(capsys):
    golden = run.load_golden(WORKLOAD, run.DEFAULT_SEED)
    assert golden, "golden.json has no digests for the test workload"
    point = next(iter(golden))
    tampered = dict(golden, **{point: "0" * 16})
    result = run.measure(WORKLOAD, run.DEFAULT_SEED, 0.01, False, tampered)
    out = capsys.readouterr().out
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    fail_frac = float(re.search(r"^fail_frac (\S+) ratio", out, re.M)[1])
    assert fail_frac > 0.0
    assert f"FAILED {point}: digest" in out


def test_golden_digests_match_at_the_default_seed():
    golden = json.loads(run.GOLDEN.read_text())
    assert golden["seed"] == run.DEFAULT_SEED
    assert set(golden["workloads"]) == set(WORKLOADS)
    for name, points in WORKLOADS.items():
        assert set(golden["workloads"][name]) == {p.name for p in points}
    res = run.run_pass(WORKLOAD, run.DEFAULT_SEED,
                       run.load_golden(WORKLOAD, run.DEFAULT_SEED), False)
    assert res.failed == 0, res.errors


def test_exact_counts_repeat_across_runs():
    first = run.run_pass(WORKLOAD, 5, None, True)
    second = run.run_pass(WORKLOAD, 5, None, True)
    assert first.counts["events"] > 0
    assert None not in first.counts.values()
    assert first.counts == second.counts
    assert first.digests == second.digests


def test_without_the_program_it_fails_without_a_result(tmp_path):
    bare = tmp_path / "checkout"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOAD,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_no_frozen_reference_module_is_imported():
    banned = ("_seed_kernel", "seedpaths", "_seed_match", "perfbench")
    for path in HERE.glob("*.py"):
        if path.name == Path(__file__).name:
            continue
        text = path.read_text()
        assert not [b for b in banned if b in text], path.name


def test_scaling_cancels_a_uniform_host_slowdown():
    def passes(slowdown):
        out = []
        for _ in range(3):
            p = run.PassResult()
            p.times = {"a": (0.1 * slowdown, 0.5 * slowdown, 0.7 * slowdown,
                             0.04 * slowdown),
                       "b": (0.2 * slowdown, 1.0 * slowdown, 1.3 * slowdown,
                             0.05 * slowdown)}
            p.msgs = 100
            out.append(p)
        return out

    fast = run.end_to_end(passes(1.0), [(0.3, 0.04)], 1.0)
    slow = run.end_to_end(passes(1.8), [(0.54, 0.072)], 1.0)
    for name in ("wall_s", "sim_msgs_per_s", "setup_s"):
        assert slow[name]["value"] == pytest.approx(fast[name]["value"])
    assert run.point_medians(passes(1.8), run.TOTAL, False) == \
        pytest.approx(1.8 * run.point_medians(passes(1.0), run.TOTAL, False))


def test_the_reference_is_fixed_and_its_process_stops():
    import reference
    assert reference.unit(reference.make_heap()) == reference._EVENTS
    with reference.Reference() as ref:
        units = ref.sample(0.0)
        child = ref._proc
    assert len(units) == 2 and all(u > 0.0 for u in units)
    assert child.poll() is not None
