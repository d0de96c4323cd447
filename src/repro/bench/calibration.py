"""Calibration self-check: do the tuned constants still hit their anchors?

DESIGN.md §4's cost constants were calibrated against a handful of anchor
measurements (the paper-shape targets).  Anyone touching
:class:`~repro.hpx_rt.platform.CostModel`, :class:`~repro.mpi_sim.params.
MpiParams` or :class:`~repro.lci_sim.params.LciParams` should re-run
:func:`check_calibration` — it reruns fast probes of each anchor and
reports which bands still hold.

The bands are deliberately wide (the anchors are order-of-magnitude and
ordering constraints, not exact values); a failure means a *shape* from
the paper is at risk, not that a number moved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .latency import LatencyParams
from .message_rate import MessageRateParams
from .runner import RunSpec, run

__all__ = ["Anchor", "ANCHORS", "check_calibration", "format_calibration"]


@dataclass
class Anchor:
    """One calibration target: a measurement and its acceptable band."""

    name: str
    description: str
    measure: Callable[[], float]
    lo: float
    hi: float

    def check(self) -> Tuple[bool, float]:
        value = self.measure()
        return (self.lo <= value <= self.hi), value


def _rate(config: str, size: int = 8, total: int = 2000,
          batch: int = 100) -> float:
    params = MessageRateParams(msg_size=size, batch=batch,
                               total_msgs=total, inject_rate_kps=None,
                               max_events=30_000_000)
    return run(RunSpec("message_rate", config, params)).message_rate_kps


def _latency(config: str, size: int = 8) -> float:
    params = LatencyParams(msg_size=size, window=1, steps=15)
    return run(RunSpec("latency", config, params)).one_way_latency_us


def _anchors() -> List[Anchor]:
    return [
        Anchor("lci_peak_8b",
               "best LCI 8B rate lands near the paper's ~750 K/s",
               lambda: _rate("lci_psr_cq_pin_i"), 500.0, 1300.0),
        Anchor("mt_band_8b",
               "worker-progress variants near the paper's ~285 K/s",
               lambda: _rate("lci_psr_cq_mt_i"), 150.0, 450.0),
        Anchor("no_immediate_band_8b",
               "aggregation-path ceiling near the paper's ~400 K/s",
               lambda: _rate("lci_psr_cq_pin"), 280.0, 700.0),
        Anchor("pin_over_mt_ratio",
               "dedicated progress thread gap in the paper's 2-3.5x",
               lambda: _rate("lci_psr_cq_pin_i")
               / _rate("lci_psr_cq_mt_i"), 1.8, 4.5),
        Anchor("lci_over_mpi_i_8b",
               "LCI clearly out-rates mpi_i at 8B",
               lambda: _rate("lci_psr_cq_pin_i") / _rate("mpi_i"),
               2.0, 30.0),
        Anchor("lci_16k_band",
               "16 KiB LCI rate near the paper's ~200 K/s",
               lambda: _rate("lci_psr_cq_pin_i", size=16384, total=500,
                             batch=10), 120.0, 400.0),
        Anchor("small_latency_band",
               "8B one-way latency in the low single-digit us",
               lambda: _latency("lci_psr_cq_pin_i"), 2.0, 8.0),
        Anchor("mpi_i_small_latency_close",
               "mpi_i within ~1.5x of LCI below 1KB (paper: 1.3x)",
               lambda: _latency("mpi_i") / _latency("lci_psr_cq_pin_i"),
               0.95, 1.8),
        Anchor("mpi_i_large_latency_worse",
               "mpi_i clearly worse for 64 KiB (paper: 3-5x)",
               lambda: _latency("mpi_i", size=65536)
               / _latency("lci_psr_cq_pin_i", size=65536), 1.2, 8.0),
    ]


#: name -> anchor, built lazily so importing this module costs nothing
ANCHORS: Dict[str, Anchor] = {}


def check_calibration(names: Optional[List[str]] = None
                      ) -> Dict[str, Tuple[bool, float, Anchor]]:
    """Run (a subset of) the anchors; returns name -> (ok, value, anchor)."""
    if not ANCHORS:
        for a in _anchors():
            ANCHORS[a.name] = a
    selected = names if names is not None else list(ANCHORS)
    out: Dict[str, Tuple[bool, float, Anchor]] = {}
    for name in selected:
        anchor = ANCHORS[name]
        ok, value = anchor.check()
        out[name] = (ok, value, anchor)
    return out


def format_calibration(results: Dict[str, Tuple[bool, float, "Anchor"]]
                       ) -> str:
    lines = []
    for name, (ok, value, anchor) in results.items():
        mark = "PASS" if ok else "FAIL"
        lines.append(f"[{mark}] {name}: {value:.2f} "
                     f"(band {anchor.lo:g}..{anchor.hi:g}) — "
                     f"{anchor.description}")
    return "\n".join(lines)
