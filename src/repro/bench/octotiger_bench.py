"""Octo-Tiger application workload (§5, Figs 10–11)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from ..apps.octotiger import OctoTigerConfig, OctoTigerDriver
from ..hpx_rt.platform import EXPANSE, PlatformSpec
from .runner import RunResult, Workload

__all__ = ["OctoTigerBenchParams", "OctoTigerBenchResult", "WORKLOAD"]


@dataclass(frozen=True)
class OctoTigerBenchParams:
    platform: PlatformSpec = EXPANSE
    n_localities: int = 4
    paper_level: int = 6      #: 6 on Expanse, 5 on Rostam (§5)
    n_steps: int = 5          #: the paper's stop step
    max_events: int = 60_000_000

    def with_(self, **kw) -> "OctoTigerBenchParams":
        return replace(self, **kw)


@dataclass
class OctoTigerBenchResult(RunResult):
    steps_per_second: float   #: the Fig 10/11 metric
    total_time_us: float
    census: Dict[str, int]    #: octree structure counters

    def workload_dict(self) -> Dict[str, float]:
        out = {"steps_per_second": self.steps_per_second,
               "total_time_us": self.total_time_us}
        out.update({k: float(v) for k, v in self.census.items()})
        return out


def drive(rt, p: OctoTigerBenchParams) -> OctoTigerBenchResult:
    """One Octo-Tiger run on a built runtime."""
    cfg = OctoTigerConfig.for_paper_level(p.paper_level, n_steps=p.n_steps)
    result = OctoTigerDriver(rt, cfg).run(max_events=p.max_events)
    return OctoTigerBenchResult(steps_per_second=result.steps_per_second,
                                total_time_us=result.total_time_us,
                                census=dict(result.census))


WORKLOAD = Workload(
    OctoTigerBenchParams, drive,
    lambda p, flow: {"n_localities": p.n_localities},
    unshardable="the octotiger proxy's result depends on cross-locality "
                "scheduler state that the sharded engine does not merge; "
                "run it without --shards")
