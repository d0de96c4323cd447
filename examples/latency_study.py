#!/usr/bin/env python
"""Latency study: ping-pong latencies vs message size and window.

A miniature of the paper's §4.2 experiments (Figs 7-9): one-way latency of
the multi-message ping-pong across parcelport variants.

Run:  python examples/latency_study.py [--steps 20]
"""

import argparse

from repro.bench import LatencyParams, RunSpec, Series, run
from repro.bench.reporting import ascii_plot, format_series_table
from repro.hpx_rt.platform import EXPANSE

CONFIGS = ["mpi", "mpi_i", "lci_psr_cq_pin", "lci_psr_cq_pin_i",
           "lci_psr_cq_mt_i"]
SIZES = [8, 512, 4096, 16384, 65536]
WINDOWS = [1, 8, 64]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=20)
    args = ap.parse_args()

    print("=== one-way latency vs message size (window 1) ===")
    size_series = []
    for cfg in CONFIGS:
        s = Series(label=cfg)
        for size in SIZES:
            r = run(RunSpec("latency", cfg, LatencyParams(
                msg_size=size, window=1, steps=args.steps,
                platform=EXPANSE)))
            s.add(size, r.one_way_latency_us)
        size_series.append(s)
    print(format_series_table(size_series, x_name="bytes",
                              y_fmt="{:.2f}"))
    print(ascii_plot(size_series, title="latency (us) vs size"))

    print("\n=== 16 KiB latency vs window size ===")
    win_series = []
    for cfg in CONFIGS:
        s = Series(label=cfg)
        for w in WINDOWS:
            r = run(RunSpec("latency", cfg, LatencyParams(
                msg_size=16384, window=w, steps=max(5, args.steps // 2),
                platform=EXPANSE)))
            s.add(w, r.one_way_latency_us)
        win_series.append(s)
    print(format_series_table(win_series, x_name="window",
                              y_fmt="{:.1f}"))

    lci = next(s for s in size_series if s.label == "lci_psr_cq_pin_i")
    mpi_i = next(s for s in size_series if s.label == "mpi_i")
    print(f"\nmpi_i / lci latency ratio: "
          f"{mpi_i.y_at(8) / lci.y_at(8):.2f}x at 8B, "
          f"{mpi_i.y_at(65536) / lci.y_at(65536):.2f}x at 64KiB "
          f"(paper: ~1.3x below 1KB, 3-5x above)")


if __name__ == "__main__":
    main()
