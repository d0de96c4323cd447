"""The ``repro-fig tune`` auto-tuner: successive halving over

``PPConfig`` x adaptive-parameter space.

Every search point is an ordinary sweep point evaluated through
:func:`repro.bench.parallel.run_points`, so the search inherits the
engine's whole contract: points fan out across ``--jobs`` processes,
results are deterministic functions of their :class:`~repro.bench.RunSpec`,
and repeated points — within a search, across searches, or shared with a
figure regeneration — are content-addressed cache hits.

The search itself is classic successive halving: all candidates run at
the smallest budget, the top half advances to a doubled budget, and so on
until one rung remains at full budget.  The trajectory (every rung's
scores and survivors) is emitted as ``BENCH_tune.json`` (schema kind
``tune``, validated by :func:`repro.bench.perfbench.validate_bench`), and
the winner is compared against the paper's best static configuration
``lci_psr_cq_pin_i`` at the full budget.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..bench import (SERVE_FLOW, FftBenchParams, MessageRateParams, RunSpec,
                     ServeBenchParams)
from ..bench.parallel import policy, run_points
from ..bench.perfbench import _doc_header, validate_bench
from ..bench.seeds import repeat_seeds
from .policy import AdaptiveSpec

__all__ = ["run_tune", "BASELINE_CONFIG", "ADAPT_VARIANTS", "WORKLOADS"]

#: the static config the tuned result must beat (the paper's overall winner)
BASELINE_CONFIG = "lci_psr_cq_pin_i"

#: named adaptive-parameter variants searched against every config;
#: ``None`` = adaptation off (the static config itself is a candidate)
ADAPT_VARIANTS: Dict[str, Optional[AdaptiveSpec]] = {
    "static": None,
    # Fixed aggregation window from t=0; controller may still retune it.
    "hold256": AdaptiveSpec(agg_hold_init=256),
    "hold1k": AdaptiveSpec(agg_hold_init=1024, agg_hold_max=16384),
    # Purely reactive: all knobs start at the config's values.
    "auto": AdaptiveSpec(),
    # Rendezvous-leaning: halve the eager cutoff from the start.
    "rndv": AdaptiveSpec(eager_scale_init=0.5),
}

#: configs crossed with the adaptive variants (the baseline is always
#: searched too, so "no change" is a reachable answer)
SEARCH_CONFIGS = ["lci_psr_cq_pin_i", "lci_psr_cq_pin", "lci_sr_cq_pin"]


def _mr_spec(config: str, adapt: Optional[AdaptiveSpec], budget: int,
             seed: int) -> RunSpec:
    return RunSpec("message_rate", config,
                   MessageRateParams(msg_size=8, batch=100,
                                     total_msgs=budget,
                                     inject_rate_kps=None),
                   seed, adapt=adapt)


def _fft_spec(config: str, adapt: Optional[AdaptiveSpec], budget: int,
              seed: int) -> RunSpec:
    return RunSpec("fft", config,
                   FftBenchParams(n1=budget, n2=budget, n_localities=4),
                   seed, adapt=adapt)


def _serve_spec(config: str, adapt: Optional[AdaptiveSpec], budget: float,
                seed: int) -> RunSpec:
    return RunSpec("serve", config,
                   ServeBenchParams(offered_kps=400.0,
                                    horizon_us=float(budget),
                                    n_localities=4),
                   seed, flow=SERVE_FLOW, adapt=adapt)


#: workload name -> (spec factory, metric key, quick budgets, full budgets)
WORKLOADS = {
    "message_rate": (_mr_spec, "message_rate_kps",
                     [1000, 2000, 4000], [5000, 10000, 20000]),
    "fft": (_fft_spec, "points_per_second",
            [8, 16, 32], [16, 32, 64]),
    "serve": (_serve_spec, "goodput_kps",
              [500.0, 1000.0, 2000.0], [1000.0, 2000.0, 4000.0]),
}


def _candidates(configs: Sequence[str],
                variants: Dict[str, Optional[AdaptiveSpec]]
                ) -> List[Tuple[str, str, Optional[AdaptiveSpec]]]:
    """(name, config, adaptive spec) triples, deterministic order."""
    out = []
    for config in configs:
        for vname, spec in variants.items():
            name = config if spec is None else f"{config}+{vname}"
            out.append((name, config, spec))
    return out


def _rung(spec_factory, name_cfg_adapt, budget, seeds) -> List[RunSpec]:
    """One rung's specs for all candidates x seeds (flat list)."""
    return [spec_factory(config, adapt, budget, seed)
            for _name, config, adapt in name_cfg_adapt for seed in seeds]


def run_tune(workload: Optional[str] = None, full: bool = False,
             out_dir: str = ".", repeats: Optional[int] = None,
             configs: Optional[Sequence[str]] = None,
             adapt_variants: Optional[Dict[str, Optional[AdaptiveSpec]]]
             = None,
             budgets: Optional[Sequence[Any]] = None) -> int:
    """Run the search, print the trajectory, write ``BENCH_tune.json``.

    Returns 0 when the emitted document validates (the *smoke* contract;
    whether the winner actually beats the baseline is recorded in
    ``winner.improvement_pct`` and asserted by CI on the committed
    artifact, not on every quick rerun).
    """
    workload = workload or "serve"
    if workload not in WORKLOADS:
        raise ValueError(f"unknown tune workload {workload!r} "
                         f"(choose from {sorted(WORKLOADS)})")
    spec_factory, metric, quick_budgets, full_budgets = WORKLOADS[workload]
    if budgets is None:
        budgets = full_budgets if full else quick_budgets
    repeats = repeats or (3 if full else 1)
    seeds = repeat_seeds(repeats)
    cands = _candidates(configs or SEARCH_CONFIGS,
                        adapt_variants or ADAPT_VARIANTS)

    t0 = time.perf_counter()
    doc = _doc_header("tune", repeats)
    doc["scale"] = "full" if full else "smoke"
    doc["workload"] = workload
    doc["metric"] = metric
    rungs_doc: List[Dict[str, Any]] = []
    print(f"== auto-tune {workload} (metric {metric}, "
          f"{len(cands)} candidates, budgets {list(budgets)}) ==")

    survivors = list(cands)
    scored: List[Dict[str, Any]] = []
    for r, budget in enumerate(budgets):
        results = iter(run_points(_rung(spec_factory, survivors, budget,
                                        seeds)))
        scored = []
        for name, config, adapt in survivors:
            vals = [next(results)[metric] for _ in seeds]
            entry = {"name": name, "config": config,
                     "adapt": None if adapt is None else adapt.as_dict(),
                     "score": sum(vals) / len(vals)}
            scored.append(entry)
        # Deterministic ranking: score descending, name as tie-break.
        scored.sort(key=lambda c: (-c["score"], c["name"]))
        last = r == len(budgets) - 1
        n_keep = len(scored) if last else max(2, math.ceil(len(scored) / 2))
        kept = [c["name"] for c in scored[:n_keep]]
        rungs_doc.append({"budget": budget, "candidates": scored,
                          "kept": kept})
        print(f"  rung {r} (budget {budget}): "
              f"best {scored[0]['name']} = {scored[0]['score']:.1f}, "
              f"kept {len(kept)}/{len(scored)}")
        by_name = {name: (name, config, adapt)
                   for name, config, adapt in survivors}
        survivors = [by_name[n] for n in kept]

    # Baseline at full budget (a cache hit if it survived the search).
    base_specs = _rung(spec_factory, [(BASELINE_CONFIG, BASELINE_CONFIG,
                                       None)], budgets[-1], seeds)
    base_vals = [res[metric] for res in run_points(base_specs)]
    base_score = sum(base_vals) / len(base_vals)
    winner = scored[0]
    improvement = (winner["score"] / base_score - 1.0) * 100.0
    doc["baseline"] = {"config": BASELINE_CONFIG, "score": base_score}
    doc["rungs"] = rungs_doc
    doc["winner"] = {"name": winner["name"], "config": winner["config"],
                     "adapt": winner["adapt"], "score": winner["score"],
                     "improvement_pct": improvement}
    cache = policy().cache
    doc["cache"] = cache.stats() if cache is not None else {}
    print(f"  baseline {BASELINE_CONFIG} = {base_score:.1f}")
    print(f"  winner   {winner['name']} = {winner['score']:.1f} "
          f"({improvement:+.1f}%)")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    errors = validate_bench(doc)
    for e in errors:
        print(f"  INVALID BENCH_tune.json: {e}")
    path = out / "BENCH_tune.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"  wrote {path}")
    print(f"[tune done in {time.perf_counter() - t0:.1f}s wall]")
    return 1 if errors else 0
