"""Distributed-FFT workload: the incast workload for the bench layer.

Drives :class:`~repro.apps.fft.FftDriver` on the runtime that
:func:`repro.bench.run` builds and flattens the result into the primitive
metric dict the sweep engine / figure drivers consume.  Flow control is
switched on per point through ``RunSpec.flow`` (:data:`FFT_FLOW` is the
incast setting); the reliability layer whose acks carry the credits comes
with it.  That is what lets the incast sweep show credit stalls and
deferred sends at the top of the size ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from ..apps.fft import COMPLEX_BYTES, FftConfig, FftDriver
from ..flow import FlowControlPolicy
from ..hpx_rt.platform import EXPANSE, PlatformSpec
from .runner import RunResult, Workload

__all__ = ["FftBenchParams", "FftBenchResult", "FFT_FLOW", "WORKLOAD"]

#: flow control for the incast runs: a 4-message credit window and a
#: shallow sender backlog, so the transpose fan-in visibly engages
#: credit stalls and deferred sends at the top of the size ladder
FFT_FLOW = FlowControlPolicy(credit_window=4, max_backlog=8)


@dataclass(frozen=True)
class FftBenchParams:
    """One FFT sweep point (quick defaults; see docs/COLLECTIVES.md)."""

    n1: int = 16
    n2: int = 16
    n_localities: int = 4
    iterations: int = 1
    #: per-row-segment messages (the realistic, backlog-deepening mode)
    fragment: bool = True
    platform: PlatformSpec = EXPANSE
    max_events: int = 20_000_000

    def with_(self, **kw) -> "FftBenchParams":
        return replace(self, **kw)

    @property
    def transpose_msg_bytes(self) -> int:
        """Wire size of one transpose message at this point."""
        seg = COMPLEX_BYTES * (self.n2 // self.n_localities)
        if self.fragment:
            return seg
        return seg * (self.n1 // self.n_localities)


@dataclass
class FftBenchResult(RunResult):
    phase_times_us: Dict[str, float]      #: summed over iterations
    total_time_us: float
    points_per_second: float
    checksum: complex

    def workload_dict(self) -> Dict[str, float]:
        return {
            "points_per_second": self.points_per_second,
            "total_time_us": self.total_time_us,
            "row_fft1_us": self.phase_times_us["row_fft1"],
            "transpose_us": self.phase_times_us["transpose"],
            "row_fft2_us": self.phase_times_us["row_fft2"],
        }


def drive(rt, p: FftBenchParams) -> FftBenchResult:
    """One full distributed-FFT run on a built runtime."""
    driver = FftDriver(rt, FftConfig(n1=p.n1, n2=p.n2,
                                     iterations=p.iterations,
                                     fragment=p.fragment))
    res = driver.run(max_events=p.max_events)
    return FftBenchResult(
        phase_times_us={k: sum(v) for k, v in res.phase_times_us.items()},
        total_time_us=res.total_time_us,
        points_per_second=res.points_per_second,
        checksum=res.checksum)


def _runtime(p: FftBenchParams, flow) -> Dict[str, object]:
    kw: Dict[str, object] = {"n_localities": p.n_localities}
    if flow is not None:
        # credits ride on the reliability layer's end-to-end acks
        kw["reliable"] = True
    return kw


WORKLOAD = Workload(FftBenchParams, drive, _runtime)
