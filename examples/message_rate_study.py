#!/usr/bin/env python
"""Message-rate study: sweep injection rates across parcelport variants.

Reproduces a miniature of the paper's §4.1 message-rate experiments (Figs
1-3) and prints the series as a table plus an ASCII log-log plot.  Shows
how to drive the benchmark workloads directly, without the per-figure
drivers.

Run:  python examples/message_rate_study.py [--size 8] [--total 2000]
"""

import argparse

from repro.bench import MessageRateParams, RunSpec, Series, run
from repro.bench.reporting import ascii_plot, format_series_table
from repro.hpx_rt.platform import EXPANSE

CONFIGS = ["mpi", "mpi_i", "lci_psr_cq_pin", "lci_psr_cq_pin_i",
           "lci_psr_cq_mt_i"]
RATES_KPS = [100.0, 400.0, 1600.0, None]   # None = unlimited


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--size", type=int, default=8,
                    help="message size in bytes (paper: 8 or 16384)")
    ap.add_argument("--total", type=int, default=2000,
                    help="total messages per run (paper: 500000)")
    args = ap.parse_args()

    batch = 100 if args.size <= 1024 else 10
    total = args.total - args.total % batch

    series = []
    for cfg in CONFIGS:
        s = Series(label=cfg)
        for rate in RATES_KPS:
            params = MessageRateParams(
                msg_size=args.size, batch=batch, total_msgs=total,
                inject_rate_kps=rate, platform=EXPANSE)
            r = run(RunSpec("message_rate", cfg, params))
            s.add(r.achieved_injection_kps, r.message_rate_kps)
            print(f"  {cfg:<18} attempted={rate or 'unlimited':>9} "
                  f"achieved_inj={r.achieved_injection_kps:9.1f}K/s "
                  f"rate={r.message_rate_kps:9.1f}K/s")
        series.append(s)

    print()
    print(format_series_table(series, x_name="inj K/s"))
    print()
    print(ascii_plot(series, title=f"{args.size}B message rate (K/s)"))
    best = max(series, key=lambda s: s.peak)
    print(f"\nbest configuration: {best.label} at {best.peak:.0f} K msgs/s")


if __name__ == "__main__":
    main()
