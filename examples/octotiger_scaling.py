#!/usr/bin/env python
"""Octo-Tiger strong scaling across parcelports (the paper's §5 study).

Runs the mini Octo-Tiger on the Expanse or Rostam platform preset over a
range of node counts and prints steps/s plus the relative speedups the
paper plots on the right axis of Figs 10/11.

Run:  python examples/octotiger_scaling.py [--platform expanse]
                                           [--nodes 2 8] [--steps 1]
"""

import argparse
import time

from repro.bench import OctoTigerBenchParams, RunSpec, run
from repro.bench.reporting import format_table
from repro.hpx_rt.platform import platform_by_name

CONFIGS = {"lci": "lci_psr_cq_pin_i", "mpi": "mpi", "mpi_i": "mpi_i"}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--platform", default="expanse",
                    choices=["expanse", "rostam"])
    ap.add_argument("--nodes", type=int, nargs="+", default=[2, 8])
    ap.add_argument("--steps", type=int, default=1)
    args = ap.parse_args()

    platform = platform_by_name(args.platform)
    paper_level = 6 if args.platform == "expanse" else 5

    rows = []
    for nodes in args.nodes:
        result = {}
        for name, cfg in CONFIGS.items():
            params = OctoTigerBenchParams(platform=platform,
                                          n_localities=nodes,
                                          paper_level=paper_level,
                                          n_steps=args.steps)
            t0 = time.time()
            out = run(RunSpec("octotiger", cfg, params)).as_dict()
            result[name] = out["steps_per_second"]
            print(f"  nodes={nodes:<3} {name:<6} "
                  f"steps/s={out['steps_per_second']:8.3f} "
                  f"({time.time() - t0:.1f}s wall)")
        rows.append([nodes,
                     f"{result['lci']:.3f}",
                     f"{result['mpi']:.3f}",
                     f"{result['mpi_i']:.3f}",
                     f"{result['lci'] / result['mpi']:.3f}",
                     f"{result['lci'] / result['mpi_i']:.3f}"])

    print()
    print(format_table(rows, header=["nodes", "lci", "mpi", "mpi_i",
                                     "lci/mpi", "lci/mpi_i"]))
    print("\n(the paper's Fig 10 shows lci/mpi up to 1.175x and lci/mpi_i "
          "up to 13.6x on Expanse;\n Fig 11 shows at most 1.08x on Rostam)")


if __name__ == "__main__":
    main()
