"""Host-time benchmark of the simulator: one workload per invocation.

Usage (from the repository root)::

    python3 hostbench/run.py --workload rate_lci --seed 1 --seconds 20 --trace 0

The workload's points run one after another in one thread (a closed loop
of concurrency 1), pass after pass, until ``--seconds`` have gone by.
``--trace 0`` prints the end-to-end metrics of untraced passes, timed
in CPU time and scaled to nominal host speed by the reference workload
of ``reference.py``, which runs in a child process next to every point;
``--trace 1`` alternates untraced passes (exact per-layer counts) with
profiled passes (per-layer host self time and calls) and prints the
per-layer metrics.  Every point's simulated results are checked against
the workload's invariants and, at the default seed, against the golden
digests in ``golden.json``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--write-golden`` reruns every workload once at the default seed and
rewrites ``golden.json``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"

#: the seed the golden digests were generated with
DEFAULT_SEED = 1
#: held out: never run while a change is being written, only to confirm
#: a finished change on a seed that has no golden digest
HELDOUT_SEED = 20231112
#: fresh interpreters that time ``import repro`` for setup_s
IMPORT_REPEATS = 5
#: CPU time of each reference sample taken next to a point: at least
#: REF_MIN_S, and REF_SHARE of the time the point itself took
REF_MIN_S = 0.06
REF_SHARE = 0.25
#: untraced passes a --trace 0 run makes at least, so that every point's
#: median has two samples even where one pass outlasts --seconds
MIN_PASSES = 2

sys.path.insert(0, str(HERE))
from layers import (COUNTS, LAYERS, RATIOS, profile_call,  # noqa: E402
                    runtime_counts)
from reference import NOMINAL_UNIT_S, Reference, pin_to_one_cpu  # noqa: E402
from workloads import (WORKLOADS, digest, entry_modules,  # noqa: E402
                       point_seed)

class ProgramMissing(RuntimeError):
    """The checkout has no simulator source to benchmark."""


def load_program() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    init = SRC / "repro" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no simulator source at {init}")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"imported repro from {repro.__file__}, "
                             f"not from {SRC}")


#: fields of a point's timing record in :attr:`PassResult.times`
BUILD, LOOP, TOTAL, REF = 0, 1, 2, 3


#: the clock of untraced passes: the process's CPU time.  The workload
#: runs on one thread and never waits on I/O, so on an idle host this
#: equals wall time; unlike wall time it leaves out the time other
#: processes hold the core.
CPU_CLOCK = time.process_time
#: the clock of --trace 1 runs, the profiler's own
WALL_CLOCK = time.perf_counter


def reference_units(ref: Reference, point_s: float) -> List[float]:
    """CPU seconds of each reference unit, sampled for a time in
    proportion to the ``point_s`` seconds of the point beside it."""
    return ref.sample(max(REF_MIN_S, REF_SHARE * point_s))


@dataclass
class PassResult:
    """One pass over a workload's points."""

    #: host time of the pass, less the reference samples in it
    wall_s: float = 0.0
    #: point -> (build_s, loop_s, total_s, ref_s) of each point that
    #: passed its checks; total_s runs from construction to the checked
    #: result, ref_s is the reference unit's time around the point (the
    #: mean over the units sampled before and after it, so a short sample
    #: weighs little; None without samples)
    times: Dict[str, Tuple[float, float, float, Optional[float]]] = field(
        default_factory=dict)
    msgs: int = 0
    attempted: int = 0
    failed: int = 0
    digests: Dict[str, str] = field(default_factory=dict)
    results: Dict[str, Any] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    counts: Optional[Dict[str, Optional[float]]] = None


def run_pass(workload: str, seed: int, golden: Optional[Dict[str, str]],
             read_counts: bool, ref: Optional[Reference] = None
             ) -> PassResult:
    """Build, drive and check every point of ``workload`` once.

    With ``ref`` the pass is timed in CPU time and samples the reference
    before and after each point; without, on the wall clock.
    """
    clock = CPU_CLOCK if ref is not None else WALL_CLOCK
    out = PassResult()
    counts: Dict[str, Optional[float]] = {}
    t_start = clock()
    before = [] if ref is None else reference_units(ref, 0.0)
    ref_s = clock() - t_start
    for point in WORKLOADS[workload]:
        out.attempted += 1
        try:
            t0 = clock()
            run = point.build(point, point_seed(seed, workload, point.name))
            t1 = clock()
            run.drive()
            t2 = clock()
            results = run.check()
            t3 = clock()
            msgs = run.msgs
            if read_counts:
                for k, v in runtime_counts(run.rt, point.config).items():
                    counts[k] = (None if v is None or counts.get(k, 0) is None
                                 else counts.get(k, 0) + v)
        except Exception as exc:  # a broken point is counted, not fatal
            out.failed += 1
            out.errors.append(f"{point.name}: {type(exc).__name__}: {exc}")
            continue
        finally:
            run = None    # the runtime is garbage before the next point
        unit_s = None
        if ref is not None:
            t4 = clock()
            after = reference_units(ref, t3 - t0)
            unit_s, before = statistics.mean(before + after), after
            ref_s += clock() - t4
        out.times[point.name] = (t1 - t0, t2 - t1, t3 - t0, unit_s)
        out.msgs += msgs
        d = out.digests[point.name] = digest(results)
        out.results[point.name] = results
        if golden is not None and golden.get(point.name) != d:
            out.failed += 1
            out.errors.append(f"{point.name}: digest {d} != golden "
                              f"{golden.get(point.name)}")
    out.wall_s = clock() - t_start - ref_s
    if read_counts:
        counts["msgs"] = out.msgs
        out.counts = counts
    return out


def import_seconds(workload: str,
                   ref: Reference) -> List[Tuple[float, float]]:
    """Time ``import repro`` (and the workload's app module) in fresh
    interpreters, so every sample pays the same cold-process cost;
    returns (import_s, ref_s) pairs, ref_s sampled around each import.

    The import is timed in the CPU time of the thread that imports: a
    thread numpy's BLAS starts meanwhile is not on the import's path.
    """
    mods = ", ".join(entry_modules(workload))
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.thread_time(); "
            f"import {mods}; print(time.thread_time() - t)")
    out = []
    before = reference_units(ref, 0.0)
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)],
                              capture_output=True, text=True, check=True,
                              timeout=120)
        import_s = float(proc.stdout.strip().splitlines()[-1])
        after = reference_units(ref, import_s)
        out.append((import_s, statistics.mean(before + after)))
        before = after
    return out


def metadata(seed: int, samples: Dict[str, int]) -> Dict[str, Any]:
    """Where and on what the numbers were measured."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return {"cpu_count": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "commit": commit,
            "src_sha256": h.hexdigest()[:16], "seed": seed,
            "default_seed": DEFAULT_SEED, "heldout_seed": HELDOUT_SEED,
            "samples": samples}


def _metric(value: Optional[float], unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def point_medians(passes: List[PassResult], phase: int,
                  scaled: bool) -> float:
    """Sum over points of the median over ``passes`` of each point's
    ``phase`` time; ``scaled`` puts each time at nominal host speed first.

    Other tenants of the host slow it down by up to twofold, in spells
    that can outlast a run.  Dividing a point's time by the reference
    unit's time sampled around it, and multiplying by the unit's nominal
    time, cancels such a slowdown (see README.md and reference.py).
    """
    names = {name for p in passes for name in p.times}
    total = 0.0
    for name in names:
        runs = [p.times[name] for p in passes if name in p.times]
        total += statistics.median(
            t[phase] * NOMINAL_UNIT_S / t[REF] if scaled else t[phase]
            for t in runs)
    return total


def end_to_end(passes: List[PassResult],
               imports: List[Tuple[float, float]],
               ok_frac: float) -> Dict[str, Dict[str, Any]]:
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    loop_s = point_medians(passes, LOOP, True)
    import_s = statistics.median(t * NOMINAL_UNIT_S / ref
                                 for t, ref in imports)
    return {
        "wall_s": _metric(point_medians(passes, TOTAL, True), "s"),
        "sim_msgs_per_s": _metric(
            passes[0].msgs / loop_s if loop_s else 0.0, "msg/s"),
        "setup_s": _metric(import_s + point_medians(passes, BUILD, True),
                           "s"),
        "peak_rss_mb": _metric(rss_kib / 1024.0, "MiB"),
        "ok_frac": _metric(ok_frac, "ratio"),
    }


def per_layer(untraced: List[PassResult], traced: List[PassResult],
              profiles: List[Any]) -> Dict[str, Dict[str, Any]]:
    counts = dict(untraced[0].counts)
    counts["loop_s"] = point_medians(untraced, LOOP, False)
    out: Dict[str, Dict[str, Any]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = _metric(statistics.median(
            prof.self_s.get(layer, 0.0) for prof in profiles), "s")
        out[f"{layer}.calls"] = _metric(statistics.median(
            prof.calls.get(layer, 0) for prof in profiles), "count")
    for name, (key, unit) in COUNTS.items():
        out[name] = _metric(counts[key], unit)
    for name, (num, den, unit) in RATIOS.items():
        n, d = counts[num], counts[den]
        out[name] = _metric(None if n is None or d is None
                            else (n / d if d else 0.0), unit)
    # both sides unscaled: the traced passes take no reference samples,
    # which the profiler would slow down along with the program
    untraced_s = point_medians(untraced, TOTAL, False)
    out["trace.overhead_frac"] = _metric(
        point_medians(traced, TOTAL, False) / untraced_s - 1.0
        if untraced_s else None,
        "ratio")
    out["trace.unattributed_frac"] = _metric(statistics.median(
        1.0 - sum(prof.self_s.get(lay, 0.0) for lay in LAYERS) / p.wall_s
        for p, prof in zip(traced, profiles)), "ratio")
    return out


def exact_counts_repeat(passes: List[PassResult]) -> List[str]:
    """Exact counts that differ between the passes of one run."""
    first = passes[0].counts
    return sorted({k for p in passes[1:] for k in first
                   if p.counts[k] != first[k]})


def report_points(workload: str, first: PassResult, passes: List[PassResult],
                  golden: Optional[Dict[str, str]]) -> int:
    """Print each point's simulated results and digest; returns the
    number of point runs whose results differ from the first pass."""
    drift = 0
    for point in WORKLOADS[workload]:
        d = first.digests.get(point.name)
        for p in passes[1:]:
            if point.name in p.digests and p.digests[point.name] != d:
                drift += 1
                p.errors.append(f"{point.name}: digest "
                                f"{p.digests[point.name]} differs from the "
                                f"first pass ({d})")
        verdict = ("no golden at this seed" if golden is None
                   else "matches golden" if golden.get(point.name) == d
                   else "DIFFERS from golden")
        print(f"point {workload}/{point.name} digest={d} ({verdict})")
        res = first.results.get(point.name)
        if res is not None:
            print("  " + json.dumps(res, sort_keys=True))
    combined = hashlib.sha256(json.dumps(first.digests, sort_keys=True)
                              .encode()).hexdigest()[:16]
    print(f"workload {workload} digest={combined}")
    return drift


def measure(workload: str, seed: int, seconds: float, trace: bool,
            golden: Optional[Dict[str, str]]) -> Dict[str, Any]:
    """Run passes for ``seconds``; returns the result object."""
    untraced: List[PassResult] = []
    traced: List[PassResult] = []
    profiles: List[Any] = []
    src_repro = str((SRC / "repro").resolve())
    # untraced runs pin themselves and the reference to one CPU
    cpu = None if trace else pin_to_one_cpu()
    with contextlib.nullcontext() if trace else Reference() as ref:
        imports = [] if trace else import_seconds(workload, ref)
        t_begin = time.perf_counter()
        last_pass_s = 0.0
        min_passes = 1 if trace else MIN_PASSES
        # stop at the pass boundary nearest to the deadline
        while (len(untraced) < min_passes or (trace and not traced)
               or time.perf_counter() - t_begin + last_pass_s / 2.0
               < seconds):
            t_pass = time.perf_counter()
            gc.collect()
            if trace and len(traced) < len(untraced):
                res, prof = profile_call(
                    lambda: run_pass(workload, seed, golden, True),
                    src_repro)
                traced.append(res)
                profiles.append(prof)
            else:
                untraced.append(run_pass(workload, seed, golden, trace, ref))
            last_pass_s = time.perf_counter() - t_pass
    passes = untraced + traced
    drift = report_points(workload, untraced[0], passes, golden)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes) + drift
    for err in sorted({e for p in passes for e in p.errors}):
        print(f"FAILED {err}")
    if trace:
        metrics = per_layer(untraced, traced, profiles)
        unstable = exact_counts_repeat(untraced + traced)
        if unstable:
            print(f"FAILED exact counts differ between passes: {unstable}")
            failed += 1
        samples = {"untraced_passes": len(untraced),
                   "traced_passes": len(traced)}
    else:
        metrics = end_to_end(untraced, imports, 1.0 - failed / attempted)
        # wall_s, sim_msgs_per_s and the build part of setup_s sum each
        # point's median of `passes` runs; setup_s adds the median of
        # `imports` cold imports
        samples = {"passes": len(untraced), "imports": len(imports),
                   "point_runs": attempted, "pinned_cpu": cpu}
        walls = [p.wall_s for p in untraced]
        units = [t[REF] for p in untraced for t in p.times.values()]
        print(f"pass CPU time at host speed: median "
              f"{statistics.median(walls)} s, min {min(walls)} s, max "
              f"{max(walls)} s over {len(walls)} passes; unscaled wall_s "
              f"{point_medians(untraced, TOTAL, False)} s")
        print(f"reference unit: median {statistics.median(units)} s, min "
              f"{min(units)} s, max {max(units)} s over {len(units)} "
              f"samples; nominal {NOMINAL_UNIT_S} s")
    fail_frac = failed / attempted
    print(f"fail_frac {fail_frac} ratio ({failed} of {attempted} "
          f"point runs failed)")
    for name, m in metrics.items():
        shown = "missing" if m["value"] is None else repr(m["value"])
        print(f"{name} {shown} {m['unit']}")
    print(json.dumps({"meta": metadata(seed, samples)}, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def write_golden() -> int:
    """Regenerate golden.json from one pass per workload at DEFAULT_SEED."""
    out: Dict[str, Dict[str, str]] = {}
    for workload in WORKLOADS:
        res = run_pass(workload, DEFAULT_SEED, None, False)
        if res.failed:
            for err in res.errors:
                print(f"FAILED {err}", file=sys.stderr)
            return 1
        out[workload] = res.digests
        print(f"{workload}: {res.digests}")
    GOLDEN.write_text(json.dumps({"seed": DEFAULT_SEED, "workloads": out},
                                 indent=2, sort_keys=True) + "\n")
    return 0


def load_golden(workload: str, seed: int,
                path: Path = GOLDEN) -> Optional[Dict[str, str]]:
    """The workload's golden digests if ``seed`` is the golden seed."""
    data = json.loads(path.read_text())
    if seed != data["seed"]:
        return None
    return data["workloads"].get(workload, {})


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(prog="hostbench",
                                 description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)
    if not args.write_golden and args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        load_program()
    except ProgramMissing as exc:
        print(f"hostbench: error: {exc}", file=sys.stderr)
        return 2
    if args.write_golden:
        return write_golden()
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), load_golden(args.workload, args.seed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
