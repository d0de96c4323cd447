"""Wall-clock performance harness for the event kernel and figure drivers.

Everything else in ``repro.bench`` measures *simulated* time; this module
is the one place that measures *wall-clock* time, so the kernel fast paths
(docs/PERFORMANCE.md) have recorded, regression-checkable numbers:

* **Kernel microbenchmarks** — timeout storm, process ping-pong, condition
  fan-in, ``schedule_call`` storm — each run on both the live kernel
  (:mod:`repro.sim.core`) and the frozen pre-optimisation baseline
  (:mod:`repro.sim._seed_kernel`), reporting median-of-k events/sec and
  the live/seed speedup ratio.
* **Model macrobenchmarks** — end-to-end model workloads (a fig. 1
  message-rate point, a multi-threaded rate-sweep point, an Octo-Tiger
  step) run live and under :func:`repro.bench.seedpaths.reference_models`,
  which swaps the whole frozen seed stack (matching queues, model hot
  paths, message objects, *and* the seed kernel) back in.  Results are
  asserted identical before anything is timed, so every speedup quoted
  here is earned under the bit-identity contract.
* **Figure wall-times** — end-to-end quick-figure regeneration plus a
  sequential-vs-``--jobs`` sweep timing (speedup scales with available
  cores; on a single-core host the ratio is honestly ~1×).

Results are emitted as ``BENCH_kernel.json`` / ``BENCH_models.json`` /
``BENCH_figures.json``
(schema tag ``repro-bench/1``, validated by :func:`validate_bench`).  CI
runs the smoke scale and *records* the numbers — wall-clock varies across
runners, so nothing gates on them; the committed baselines at the repo
root are the reference points for eyeballing regressions.
"""

from __future__ import annotations

import json
import os
import platform as _platform
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..hpx_rt.platform import EXPANSE, PlatformSpec
from .runner import RunResult, RunSpec, Workload, run

__all__ = ["KERNEL_WORKLOADS", "BENCH_SCHEMA",
           "bench_kernel", "bench_models", "bench_figures", "bench_shards",
           "validate_bench", "run_perf"]

#: schema tag stamped into every BENCH_*.json document
BENCH_SCHEMA = "repro-bench/1"


# ---------------------------------------------------------------------------
# kernel microbenchmarks — written against a kernel *module* so the same
# workload runs on repro.sim.core and repro.sim._seed_kernel
# ---------------------------------------------------------------------------
def _noop() -> None:
    pass


def _timeout_storm(mod, n: int) -> int:
    """Many processes each yielding a long run of plain timeouts."""
    sim = mod.Simulator()

    def proc(sim, k):
        for i in range(k):
            yield sim.timeout(0.5 + (i % 7) * 0.25)

    for _ in range(10):
        sim.process(proc(sim, n // 10))
    sim.run()
    return sim.event_count


def _process_ping_pong(mod, n: int) -> int:
    """Spawn/complete churn: every round pays a boot and a completion wake."""
    sim = mod.Simulator()

    def child(sim):
        yield sim.timeout(0.1)
        return 1

    def parent(sim, k):
        total = 0
        for _ in range(k):
            total += yield sim.process(child(sim))
        return total

    sim.process(parent(sim, n))
    sim.run()
    return sim.event_count


def _condition_fanin(mod, n: int) -> int:
    """AllOf/AnyOf over 16-wide event fan-ins, round after round."""
    sim = mod.Simulator()

    def waiter(sim, rounds):
        for _ in range(rounds):
            evs = [sim.timeout(0.5 + (i % 3) * 0.25) for i in range(16)]
            yield mod.AllOf(sim, evs)
            yield mod.AnyOf(sim, [sim.timeout(1.0), sim.timeout(2.0)])

    sim.process(waiter(sim, n // 16))
    sim.run()
    return sim.event_count


def _call_storm(mod, n: int) -> int:
    """Raw ``schedule_call`` throughput (batched API when available)."""
    sim = mod.Simulator()
    calls = [((i % 97) * 0.5, _noop) for i in range(n)]
    if hasattr(sim, "schedule_calls"):
        sim.schedule_calls(calls)
    else:
        for delay, fn in calls:
            sim.schedule_call(delay, fn)
    sim.run()
    return sim.event_count


#: name → (workload fn, smoke-scale n, full-scale n)
KERNEL_WORKLOADS: Dict[str, Tuple[Callable, int, int]] = {
    "timeout_storm": (_timeout_storm, 50_000, 200_000),
    "process_ping_pong": (_process_ping_pong, 12_000, 50_000),
    "condition_fanin": (_condition_fanin, 10_000, 40_000),
    "call_storm": (_call_storm, 50_000, 200_000),
}


def _doc_header(kind: str, repeats: int) -> Dict[str, Any]:
    return {
        "schema": BENCH_SCHEMA,
        "kind": kind,
        "python": sys.version.split()[0],
        "platform": _platform.platform(),
        "cpu_count": os.cpu_count(),
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "repeats": repeats,
    }


def bench_kernel(full: bool = False,
                 repeats: Optional[int] = None) -> Dict[str, Any]:
    """Run every kernel workload on live + seed kernels; return the doc."""
    import repro.sim._seed_kernel as seed_kernel
    import repro.sim.core as live_kernel

    repeats = repeats or (5 if full else 3)
    doc = _doc_header("kernel", repeats)
    doc["scale"] = "full" if full else "smoke"
    workloads: Dict[str, Any] = {}
    speedups: List[float] = []
    for name, (fn, n_smoke, n_full) in KERNEL_WORKLOADS.items():
        n = n_full if full else n_smoke
        # warm up once, then time live/seed interleaved so slow drift in
        # host CPU speed cancels out of the ratio
        live_ev = fn(live_kernel, n)
        seed_ev = fn(seed_kernel, n)
        if live_ev != seed_ev:
            raise AssertionError(
                f"{name}: event_count diverged between kernels "
                f"({live_ev} vs {seed_ev}) — determinism contract broken")
        live_times: List[float] = []
        seed_times: List[float] = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn(live_kernel, n)
            live_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            fn(seed_kernel, n)
            seed_times.append(time.perf_counter() - t0)
        live_s = statistics.median(live_times)
        seed_s = statistics.median(seed_times)
        live_eps = live_ev / live_s
        seed_eps = seed_ev / seed_s
        workloads[name] = {
            "n": n, "events": live_ev,
            "live_s": round(live_s, 6),
            "live_events_per_s": round(live_eps),
            "seed_s": round(seed_s, 6),
            "seed_events_per_s": round(seed_eps),
            "speedup": round(live_eps / seed_eps, 3),
        }
        speedups.append(live_eps / seed_eps)
    doc["workloads"] = workloads
    doc["speedup_min"] = round(min(speedups), 3)
    doc["speedup_geomean"] = round(
        statistics.geometric_mean(speedups), 3)
    return doc


# ---------------------------------------------------------------------------
# end-to-end model macrobenchmarks — live vs frozen-reference stack
# ---------------------------------------------------------------------------
def _model_workloads(full: bool) -> Dict[str, Callable[[], Any]]:
    """name → zero-arg runner returning a comparable result dict.

    Each runner is deterministic for a fixed seed, so the live run and the
    :func:`~repro.bench.seedpaths.reference_models` run must return equal
    results — that equality is asserted before any timing happens.
    """
    from .message_rate import MessageRateParams
    from .octotiger_bench import OctoTigerBenchParams

    mr = MessageRateParams(msg_size=8, batch=50,
                           total_msgs=2000 if full else 600,
                           inject_rate_kps=200.0)
    ot = OctoTigerBenchParams(n_localities=2,
                              paper_level=4 if full else 3, n_steps=1)
    specs = {
        "fig1_point_mpi_i": RunSpec("message_rate", "mpi_i", mr, 7),
        "fig1_point_lci_pin":
            RunSpec("message_rate", "lci_psr_cq_pin_i", mr, 7),
        "rate_sweep_lci_mt": RunSpec("message_rate", "lci_sr_sy_mt", mr, 7),
        "octotiger_step_mpi_i": RunSpec("octotiger", "mpi_i", ot, 7),
    }
    return {name: (lambda spec=spec: run(spec).as_dict())
            for name, spec in specs.items()}


def bench_models(full: bool = False,
                 repeats: Optional[int] = None) -> Dict[str, Any]:
    """Run the model workloads live and frozen-reference; return the doc.

    The reference side runs under :func:`repro.bench.seedpaths.
    reference_models`, i.e. the complete pre-optimisation model stack
    (linear-scan matching, un-split hot paths, dataclass messages, seed
    kernel).  Timings interleave live/reference so host-speed drift
    cancels out of the ratio; the headline number is the geomean speedup
    across workloads (target: >= 1.5x on these model-dominated runs).
    """
    from .seedpaths import reference_models

    repeats = repeats or (5 if full else 3)
    doc = _doc_header("models", repeats)
    doc["scale"] = "full" if full else "smoke"
    workloads: Dict[str, Any] = {}
    speedups: List[float] = []
    for name, fn in _model_workloads(full).items():
        # warm-up doubles as the identity check: the optimised stack must
        # reproduce the frozen reference bit-for-bit before it gets timed
        live_res = fn()
        with reference_models():
            ref_res = fn()
        if live_res != ref_res:
            raise AssertionError(
                f"{name}: live result diverged from frozen reference — "
                f"determinism contract broken")
        live_times: List[float] = []
        ref_times: List[float] = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            live_times.append(time.perf_counter() - t0)
            with reference_models():
                t0 = time.perf_counter()
                fn()
                ref_times.append(time.perf_counter() - t0)
        live_s = statistics.median(live_times)
        ref_s = statistics.median(ref_times)
        workloads[name] = {
            "live_s": round(live_s, 6),
            "ref_s": round(ref_s, 6),
            "speedup": round(ref_s / live_s, 3),
        }
        speedups.append(ref_s / live_s)
    doc["workloads"] = workloads
    doc["speedup_min"] = round(min(speedups), 3)
    doc["speedup_geomean"] = round(
        statistics.geometric_mean(speedups), 3)
    return doc


# ---------------------------------------------------------------------------
# end-to-end figure wall-times
# ---------------------------------------------------------------------------
def bench_figures(full: bool = False, jobs: Optional[int] = None
                  ) -> Dict[str, Any]:
    """Time quick-figure regeneration and a sequential-vs-parallel sweep."""
    from .figures import fig1
    from .message_rate import MessageRateParams
    from .parallel import execution, run_points

    jobs = jobs or min(4, os.cpu_count() or 1)
    doc = _doc_header("figures", repeats=1)
    doc["scale"] = "full" if full else "smoke"
    total = 4000 if full else 1000

    figures: Dict[str, Any] = {}
    with execution(jobs=1, cache=None):
        t0 = time.perf_counter()
        fig1(quick=True, total=total)
        figures["fig1_quick"] = {"total_msgs": total,
                                 "wall_s": round(time.perf_counter() - t0,
                                                 3)}
    doc["figures"] = figures

    # the same independent task list, sequential then fanned out
    from .seeds import repeat_seeds
    tasks = [RunSpec("message_rate", cfg,
                     MessageRateParams(msg_size=8, batch=50,
                                       total_msgs=total,
                                       inject_rate_kps=rate), seed)
             for cfg in ("mpi_i", "lci_psr_cq_pin_i")
             for rate in (100.0, 400.0, None)
             for seed in repeat_seeds(2 if full else 1)]
    t0 = time.perf_counter()
    seq = run_points(tasks, jobs=1, no_cache=True)
    seq_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    par = run_points(tasks, jobs=jobs, no_cache=True)
    par_s = time.perf_counter() - t0
    if seq != par:
        raise AssertionError("parallel sweep results diverged from "
                             "sequential — determinism contract broken")
    doc["sweep"] = {
        "points": len(tasks),
        "sequential_s": round(seq_s, 3),
        "jobs": jobs,
        "parallel_s": round(par_s, 3),
        "speedup": round(seq_s / par_s, 3) if par_s else 0.0,
    }
    return doc


# ---------------------------------------------------------------------------
# sharded-engine scaling macro
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PairPingParams:
    """A partition-friendly macro for the sharded engine.

    Localities pair up (``2k <-> 2k+1``) and stream pings for a fixed
    virtual horizon; the contiguous ownership split keeps every pair on
    one shard, so measured scaling reflects engine + barrier overhead,
    not wire-codec cost.  Deadline termination freezes every shard at
    exactly ``horizon_us``, which is what makes the aggregate event
    count shard-count-invariant (asserted by :func:`bench_shards`).
    """

    n_localities: int = 32
    rounds: int = 20
    horizon_us: float = 300.0
    platform: PlatformSpec = EXPANSE


@dataclass
class PairPingResult(RunResult):
    events: int       #: kernel events summed over every shard
    windows: int      #: barrier windows the sharded engine granted

    def workload_dict(self) -> Dict[str, float]:
        return {"events": self.events, "windows": self.windows}


def _pair_ping(rt, p: PairPingParams) -> PairPingResult:
    def pong(worker, i):
        return None

    rt.register_action("pong", pong)

    def pinger(lid):
        def task(worker):
            for i in range(p.rounds):
                yield from worker.locality.apply(
                    worker, lid + 1, "pong", (i,), arg_sizes=[64])
        return task

    rt.boot()
    for lid in range(0, p.n_localities, 2):
        if rt.shard_owns(lid):
            rt.locality(lid).spawn(pinger(lid), name=f"ping{lid}")
    rt.run_until(float(p.horizon_us))
    ctx = rt.shard_ctx
    return PairPingResult(events=rt.census().total("sim", "events"),
                          windows=ctx.windows if ctx is not None else 0)


PAIR_PING = Workload(PairPingParams, _pair_ping,
                     lambda p, flow: {"n_localities": p.n_localities})


def bench_shards(full: bool = False,
                 repeats: Optional[int] = None) -> Dict[str, Any]:
    """Scale the pair-ping-pong macro over shard counts; return the doc.

    Every shard count must produce the *same* aggregate event count
    (shard-count invariance — asserted here before anything is recorded);
    the quoted numbers are aggregate events/sec and wall seconds per
    shard count, with ``--shards 1`` (in-process, no barriers) as the
    baseline.  Like every wall-clock suite here, CI records but does not
    gate on the ratios: on a single-core host the honest speedup is ~1×
    or below (the processes time-slice one core and pay the barrier
    tax); the committed baseline states its ``cpu_count`` for exactly
    that reason.
    """
    from ..sim.shard.runner import run_sharded_point

    repeats = repeats or (3 if full else 2)
    n_localities = 256 if full else 32
    rounds = 30 if full else 20
    horizon_us = 400.0 if full else 300.0
    shard_counts = (1, 2, 4, 8) if full else (1, 2, 4)

    doc = _doc_header("shards", repeats)
    doc["scale"] = "full" if full else "smoke"
    doc["workload"] = {"macro": "pair_ping_pong", "config": "lci",
                       "n_localities": n_localities, "rounds": rounds,
                       "horizon_us": horizon_us}
    plat = EXPANSE.with_(max_nodes=max(EXPANSE.max_nodes, n_localities),
                         sim_cores_per_node=2)
    workload = RunSpec("pair_ping", "lci",
                       PairPingParams(n_localities=n_localities,
                                      rounds=rounds, horizon_us=horizon_us,
                                      platform=plat), seed=7)

    results: Dict[str, Any] = {}
    events0: Optional[int] = None
    base_s: Optional[float] = None
    for n in shard_counts:
        # warm-up doubles as the invariance check
        r = run_sharded_point(workload, n)
        if events0 is None:
            events0 = r["events"]
        elif r["events"] != events0:
            raise AssertionError(
                f"shards={n}: aggregate event count diverged "
                f"({r['events']} vs {events0}) — shard-count invariance "
                f"broken")
        times: List[float] = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            run_sharded_point(workload, n)
            times.append(time.perf_counter() - t0)
        wall = statistics.median(times)
        if n == 1:
            base_s = wall
        eps = r["events"] / wall
        results[str(n)] = {
            "events": r["events"],
            "windows": r["windows"],
            "wall_s": round(wall, 6),
            "events_per_s": round(eps),
            "speedup_vs_1": round(base_s / wall, 3),
        }
    doc["shard_counts"] = results
    doc["best_speedup"] = max(r["speedup_vs_1"]
                              for r in results.values())
    return doc


# ---------------------------------------------------------------------------
# schema validation (what the CI perf job checks)
# ---------------------------------------------------------------------------
def validate_bench(doc: Dict[str, Any]) -> List[str]:
    """Return a list of schema problems (empty = valid)."""
    errors: List[str] = []
    if doc.get("schema") != BENCH_SCHEMA:
        errors.append(f"schema != {BENCH_SCHEMA!r}: {doc.get('schema')!r}")
    kind = doc.get("kind")
    if kind not in ("kernel", "models", "figures", "shards", "tune"):
        errors.append(f"unknown kind {kind!r}")
    for key in ("python", "platform", "generated_utc", "repeats", "scale"):
        if key not in doc:
            errors.append(f"missing key {key!r}")
    if kind == "kernel":
        workloads = doc.get("workloads")
        if not workloads:
            errors.append("kernel doc has no workloads")
        else:
            for name, w in workloads.items():
                for key in ("n", "events", "live_s", "live_events_per_s",
                            "seed_s", "seed_events_per_s", "speedup"):
                    val = w.get(key)
                    if not isinstance(val, (int, float)) or val <= 0:
                        errors.append(f"workload {name}: bad {key}={val!r}")
        for key in ("speedup_min", "speedup_geomean"):
            if not isinstance(doc.get(key), (int, float)):
                errors.append(f"missing/bad {key}")
    elif kind == "models":
        workloads = doc.get("workloads")
        if not workloads:
            errors.append("models doc has no workloads")
        else:
            for name, w in workloads.items():
                for key in ("live_s", "ref_s", "speedup"):
                    val = w.get(key)
                    if not isinstance(val, (int, float)) or val <= 0:
                        errors.append(f"workload {name}: bad {key}={val!r}")
        for key in ("speedup_min", "speedup_geomean"):
            if not isinstance(doc.get(key), (int, float)):
                errors.append(f"missing/bad {key}")
    elif kind == "shards":
        counts = doc.get("shard_counts")
        if not counts:
            errors.append("shards doc has no shard_counts")
        else:
            events = {c.get("events") for c in counts.values()}
            if len(events) != 1:
                errors.append(f"aggregate events differ across shard "
                              f"counts: {sorted(events)} — invariance "
                              f"contract broken")
            for n, c in counts.items():
                for key in ("events", "wall_s", "events_per_s",
                            "speedup_vs_1"):
                    val = c.get(key)
                    if not isinstance(val, (int, float)) or val <= 0:
                        errors.append(f"shards={n}: bad {key}={val!r}")
        if "workload" not in doc:
            errors.append("shards doc has no workload description")
        if not isinstance(doc.get("best_speedup"), (int, float)):
            errors.append("missing/bad best_speedup")
    elif kind == "figures":
        if not doc.get("figures"):
            errors.append("figures doc has no figure timings")
        sweep = doc.get("sweep")
        if not sweep:
            errors.append("figures doc has no sweep timing")
        else:
            for key in ("points", "sequential_s", "jobs", "parallel_s",
                        "speedup"):
                val = sweep.get(key)
                if not isinstance(val, (int, float)) or val <= 0:
                    errors.append(f"sweep: bad {key}={val!r}")
    elif kind == "tune":
        for key in ("workload", "metric"):
            if not doc.get(key):
                errors.append(f"tune doc missing {key!r}")
        base = doc.get("baseline")
        if not isinstance(base, dict) or "config" not in base:
            errors.append("tune doc missing baseline.config")
        elif not isinstance(base.get("score"), (int, float)) \
                or base["score"] <= 0:
            errors.append(f"baseline: bad score={base.get('score')!r}")
        rungs = doc.get("rungs")
        if not rungs:
            errors.append("tune doc has no rungs")
        else:
            for i, rung in enumerate(rungs):
                cands = rung.get("candidates")
                if not cands:
                    errors.append(f"rung {i}: no candidates")
                    continue
                names = set()
                for c in cands:
                    if "name" not in c or "config" not in c:
                        errors.append(f"rung {i}: candidate missing "
                                      f"name/config: {c!r}")
                        continue
                    names.add(c["name"])
                    if not isinstance(c.get("score"), (int, float)):
                        errors.append(f"rung {i}: candidate {c['name']}: "
                                      f"bad score={c.get('score')!r}")
                kept = rung.get("kept")
                if not isinstance(kept, list) or not kept:
                    errors.append(f"rung {i}: bad kept={kept!r}")
                elif not set(kept) <= names:
                    errors.append(f"rung {i}: kept names not a subset of "
                                  f"candidates: {sorted(set(kept) - names)}")
        winner = doc.get("winner")
        if not isinstance(winner, dict) or "config" not in winner:
            errors.append("tune doc missing winner.config")
        else:
            for key in ("score", "improvement_pct"):
                if not isinstance(winner.get(key), (int, float)):
                    errors.append(f"winner: bad {key}={winner.get(key)!r}")
    return errors


# ---------------------------------------------------------------------------
# CLI driver (``repro-fig perf``)
# ---------------------------------------------------------------------------
def run_perf(full: bool = False, out_dir: str = ".",
             jobs: Optional[int] = None) -> int:
    """Run both benches, write BENCH_*.json, print a summary; 0 on success."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    kernel_doc = bench_kernel(full=full)
    print(f"== kernel microbenchmarks "
          f"({kernel_doc['scale']}, median of {kernel_doc['repeats']}) ==")
    for name, w in kernel_doc["workloads"].items():
        print(f"  {name:<18} {w['live_events_per_s']:>9,} ev/s  "
              f"(seed {w['seed_events_per_s']:>9,})  "
              f"speedup {w['speedup']:.2f}x")
    print(f"  min speedup {kernel_doc['speedup_min']:.2f}x, "
          f"geomean {kernel_doc['speedup_geomean']:.2f}x")

    models_doc = bench_models(full=full)
    print(f"== model macrobenchmarks "
          f"({models_doc['scale']}, median of {models_doc['repeats']}) ==")
    for name, w in models_doc["workloads"].items():
        print(f"  {name:<22} live {w['live_s']:.2f}s  "
              f"ref {w['ref_s']:.2f}s  speedup {w['speedup']:.2f}x")
    print(f"  min speedup {models_doc['speedup_min']:.2f}x, "
          f"geomean {models_doc['speedup_geomean']:.2f}x")

    figures_doc = bench_figures(full=full, jobs=jobs)
    sweep = figures_doc["sweep"]
    print("== figure wall-times ==")
    for name, f in figures_doc["figures"].items():
        print(f"  {name:<18} {f['wall_s']:.1f}s")
    print(f"  sweep {sweep['points']} pts: sequential "
          f"{sweep['sequential_s']:.1f}s, --jobs {sweep['jobs']} "
          f"{sweep['parallel_s']:.1f}s ({sweep['speedup']:.2f}x, "
          f"{os.cpu_count()} cores)")

    shards_doc = bench_shards(full=full)
    w = shards_doc["workload"]
    print(f"== sharded engine ({shards_doc['scale']}, "
          f"{w['n_localities']} localities, median of "
          f"{shards_doc['repeats']}) ==")
    for n, c in shards_doc["shard_counts"].items():
        print(f"  shards={n:<3} {c['events_per_s']:>9,} ev/s  "
              f"{c['wall_s']:.2f}s wall  "
              f"({c['speedup_vs_1']:.2f}x vs 1)")
    print(f"  best speedup {shards_doc['best_speedup']:.2f}x "
          f"({os.cpu_count()} cores)")

    failures = 0
    for fname, doc in (("BENCH_kernel.json", kernel_doc),
                       ("BENCH_models.json", models_doc),
                       ("BENCH_figures.json", figures_doc),
                       ("BENCH_shards.json", shards_doc)):
        errors = validate_bench(doc)
        if errors:
            failures += 1
            for e in errors:
                print(f"  INVALID {fname}: {e}")
        path = out / fname
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"  wrote {path}")
    print(f"[perf done in {time.perf_counter() - t0:.1f}s wall]")
    return 1 if failures else 0
