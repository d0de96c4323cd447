"""Serving-tier workload: open-loop RPC load for the bench layer.

Drives :class:`~repro.apps.serve.ServeDriver` on the runtime that
:func:`repro.bench.run` builds and flattens the result into the primitive
metric dict the sweep engine / figure drivers consume.  Every point runs
under a **shed-mode** :class:`~repro.flow.FlowControlPolicy` passed as
``RunSpec.flow`` (credits riding the reliability acks + bounded backlogs
with ``overflow="shed"``; :data:`SERVE_FLOW` is the standard setting), so
past saturation the stack *rejects* excess requests instead of growing
unbounded queues — shedding as admission control, the regime
``serve_sweep`` maps per parcelport config family.  A spec without a
shed-mode policy is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from ..apps.serve import ServeConfig, ServeDriver
from ..flow import OVERFLOW_SHED, FlowControlPolicy
from ..hpx_rt.platform import EXPANSE, PlatformSpec
from .runner import RunResult, Workload

__all__ = ["ServeBenchParams", "ServeBenchResult", "SERVE_FLOW", "WORKLOAD"]

#: flow control for the serving runs: an 8-message credit window with
#: shallow shed-mode backlogs, so past saturation the stack rejects
#: excess requests (``ParcelShedError``) instead of queueing unboundedly
SERVE_FLOW = FlowControlPolicy(credit_window=8, max_backlog=16,
                               max_queued_parcels=64,
                               overflow=OVERFLOW_SHED)


@dataclass(frozen=True)
class ServeBenchParams:
    """One serving sweep point (quick defaults; see docs/SERVING.md)."""

    offered_kps: float = 100.0
    horizon_us: float = 2000.0
    n_localities: int = 4          #: gateway + (n_localities - 1) servers
    n_clients: int = 1_000_000
    arrival: str = "poisson"       #: or "bursty"
    slo_us: float = 200.0
    drain_us: float = 2000.0
    req_bytes_max: int = 16384
    resp_bytes_max: int = 32768
    service_base_us: float = 1.0
    platform: PlatformSpec = EXPANSE
    max_events: int = 30_000_000

    def with_(self, **kw) -> "ServeBenchParams":
        return replace(self, **kw)

    def serve_config(self) -> ServeConfig:
        return ServeConfig(n_clients=self.n_clients,
                           offered_kps=self.offered_kps,
                           horizon_us=self.horizon_us,
                           arrival=self.arrival,
                           req_bytes_max=self.req_bytes_max,
                           resp_bytes_max=self.resp_bytes_max,
                           service_base_us=self.service_base_us,
                           slo_us=self.slo_us, drain_us=self.drain_us)


@dataclass
class ServeBenchResult(RunResult):
    offered: int
    delivered: int
    shed_requests: int
    shed_responses: int
    failed: int
    in_flight: int
    deadline_misses: int
    goodput_kps: float
    achieved_kps: float
    offered_kps: float          #: measured (realized arrivals / horizon)
    slo_attainment: float
    p50_us: float
    p99_us: float
    p999_us: float

    def workload_dict(self) -> Dict[str, float]:
        return {
            "offered_kps": self.offered_kps,
            "achieved_kps": self.achieved_kps,
            "goodput_kps": self.goodput_kps,
            "slo_attainment": self.slo_attainment,
            "p50_us": self.p50_us,
            "p99_us": self.p99_us,
            "p999_us": self.p999_us,
            "offered": float(self.offered),
            "delivered": float(self.delivered),
            "shed_requests": float(self.shed_requests),
            "shed_responses": float(self.shed_responses),
            "failed": float(self.failed),
            "in_flight": float(self.in_flight),
            "deadline_misses": float(self.deadline_misses),
        }


def drive(rt, p: ServeBenchParams) -> ServeBenchResult:
    """One full open-loop serving run on a built runtime."""
    res = ServeDriver(rt, p.serve_config()).run(max_events=p.max_events)
    pct = res.percentiles()
    return ServeBenchResult(
        offered=res.offered, delivered=res.delivered,
        shed_requests=res.shed_requests, shed_responses=res.shed_responses,
        failed=res.failed, in_flight=res.in_flight,
        deadline_misses=res.deadline_misses,
        goodput_kps=res.goodput_kps, achieved_kps=res.achieved_kps,
        offered_kps=res.offered_kps, slo_attainment=res.slo_attainment,
        p50_us=pct["p50_us"], p99_us=pct["p99_us"], p999_us=pct["p999_us"])


def _runtime(p: ServeBenchParams,
             flow: Optional[FlowControlPolicy]) -> Dict[str, object]:
    if flow is None or flow.overflow != OVERFLOW_SHED:
        raise ValueError("serve runs need a shed-mode flow policy "
                         "(RunSpec.flow, e.g. SERVE_FLOW); got "
                         f"{flow!r}")
    # credits ride on the reliability layer's acks
    return {"n_localities": p.n_localities, "reliable": True}


WORKLOAD = Workload(ServeBenchParams, drive, _runtime)
