"""Latency microbenchmark (§4.2, Figs 7–9).

Multi-message ping-pong: ``window`` chains of tasks bounce a fixed-size
message between two localities for ``steps`` iterations; every ping and
every pong is a separate HPX task.  One-way latency = total time /
(2 × steps), as the paper computes it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from ..hpx_rt.platform import EXPANSE, PlatformSpec
from .runner import RunResult, Workload

__all__ = ["LatencyParams", "LatencyResult", "WORKLOAD"]


@dataclass(frozen=True)
class LatencyParams:
    msg_size: int = 8
    window: int = 1           #: concurrent ping-pong chains (1–64 in Fig 8/9)
    steps: int = 50           #: chain length (paper's "step number")
    platform: PlatformSpec = EXPANSE
    max_events: int = 20_000_000

    def with_(self, **kw) -> "LatencyParams":
        return replace(self, **kw)


@dataclass
class LatencyResult(RunResult):
    total_time_us: float
    #: ping-pong chains killed by a message failure (faults only)
    failed_chains: int = 0

    @property
    def one_way_latency_us(self) -> float:
        """Average one-way message latency (the paper's y axis)."""
        return self.total_time_us / (2 * self.params.steps)

    def workload_dict(self) -> Dict[str, float]:
        out = {"one_way_latency_us": self.one_way_latency_us}
        if self.faults or self.failed_chains:
            out["failed_chains"] = float(self.failed_chains)
        return out


def drive(rt, p: LatencyParams) -> LatencyResult:
    """One latency run: ``window`` chains × ``steps`` round trips.

    Under faults, a chain whose ping or pong exhausts its retries is
    counted as failed and released — the run still terminates.  Flow
    control adds credit/backlog throttling (a shed ping or pong likewise
    kills its chain).
    """
    sim = rt.sim
    done = rt.new_latch(p.window)
    size = p.msg_size
    state = {"failed_chains": 0}

    if rt.fault_plan is not None or rt.flow_policy is not None:
        def on_fail(parcel, exc):
            # Exactly one ping or pong is in flight per chain, so a failed
            # parcel kills exactly one chain: release its latch slot.
            state["failed_chains"] += 1
            done.count_down()
        rt.on_parcel_failure = on_fail

    def ping(worker, token):
        # Runs on locality 1; answer with a pong.
        yield from worker.locality.apply(worker, 0, "pong", (token,),
                                         arg_sizes=[size])

    def pong(worker, token):
        # Runs on locality 0; continue or finish the chain.
        chain, step = token
        if step + 1 < p.steps:
            yield from worker.locality.apply(worker, 1, "ping",
                                             ((chain, step + 1),),
                                             arg_sizes=[size])
        else:
            done.count_down()

    rt.register_action("ping", ping)
    rt.register_action("pong", pong)

    def starter(worker):
        for chain in range(p.window):
            yield from rt.locality(0).apply(worker, 1, "ping",
                                            ((chain, 0),),
                                            arg_sizes=[size])

    rt.boot()
    rt.locality(0).spawn(starter, name="latency_start")
    rt.run_until(done, max_events=p.max_events)
    return LatencyResult(total_time_us=sim.now,
                         failed_chains=state["failed_chains"])


WORKLOAD = Workload(LatencyParams, drive,
                    lambda p, flow: {"n_localities": 2})
