"""One run path for every workload: a :class:`RunSpec` in, a typed result out.

HPX has one parcelport interface and every transport plugs in behind it;
the bench layer mirrors that with one runner and pluggable workloads.  A
workload supplies three things:

* a frozen ``Params`` dataclass (its operating point, platform included);
* a typed result that subclasses :class:`RunResult`;
* a :class:`Workload` record with its runtime choices (locality count,
  reliability) and its ``drive(rt, params)`` step.

:func:`run` is the only place in :mod:`repro.bench` that builds a
runtime.  It attaches the optional layers a :class:`RunSpec` carries
(faults, retry, flow control, tracing, adaptation), drives the workload,
and fills in the result trailer every workload shares.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Optional

from ..adapt.policy import AdaptiveSpec
from ..faults import FaultPlan, RetryPolicy
from ..flow import FlowControlPolicy
from ..hpx_rt.platform import PlatformSpec
from ..parcelport import PPConfig
from .. import make_runtime

__all__ = ["RunSpec", "RunResult", "Workload", "run", "workloads",
           "refuse_under_shards"]


@dataclass(kw_only=True)
class RunResult:
    """Base of every workload's typed result; owns the shared trailer.

    :func:`run` fills these fields in after the workload's drive step.
    """

    config: str = ""
    params: Any = None
    #: merged fault/flow counters (empty unless faults or flow were on)
    faults: Dict[str, int] = field(default_factory=dict)
    #: the run's SpanRecorder when tracing was requested (else None);
    #: deliberately excluded from :meth:`as_dict` so traced and untraced
    #: runs report byte-identical results
    obs: Any = None
    #: the run's MetricsRegistry when tracing was requested (else None)
    metrics: Any = None
    #: AdaptiveController summary (empty without adaptation)
    adapt: Dict[str, float] = field(default_factory=dict)

    def workload_dict(self) -> Dict[str, float]:
        """The workload's own flat metrics (everything but the trailer)."""
        raise NotImplementedError

    def as_dict(self) -> Dict[str, float]:
        """Flat metric dict: the workload's keys, then ``fault.*`` and
        ``adapt.*`` (each present only when that layer reported)."""
        out = self.workload_dict()
        for k, v in sorted(self.faults.items()):
            out[f"fault.{k}"] = float(v)
        for k, v in sorted(self.adapt.items()):
            out[f"adapt.{k}"] = float(v)
        return out


@dataclass(frozen=True)
class Workload:
    """What one workload plugs into :func:`run`."""

    params: type
    #: ``drive(rt, params)``: register actions, boot, run to completion
    #: and return the typed result (trailer fields left at defaults)
    drive: Callable[[Any, Any], RunResult]
    #: ``runtime(params, flow)``: the workload's own ``make_runtime``
    #: keywords (``n_localities``, ``reliable``); may refuse a spec
    runtime: Callable[[Any, Optional[FlowControlPolicy]], Dict[str, Any]]
    #: why the sharded engine cannot run this workload (None = it can)
    unshardable: Optional[str] = None


def workloads() -> Dict[str, Workload]:
    """The registry: workload name → :class:`Workload`."""
    from . import (fft_bench, latency, message_rate, octotiger_bench,
                   perfbench, serve_bench)
    return {"message_rate": message_rate.WORKLOAD,
            "latency": latency.WORKLOAD,
            "fft": fft_bench.WORKLOAD,
            "serve": serve_bench.WORKLOAD,
            "octotiger": octotiger_bench.WORKLOAD,
            "pair_ping": perfbench.PAIR_PING}


#: the optional layers, in canonical order (``None`` = layer off)
_LAYERS = ("faults", "retry", "flow", "trace", "adapt")


@dataclass(frozen=True)
class RunSpec:
    """One run: workload + config + params + seed + optional layers.

    Frozen and picklable, so it is at once the cache key
    (:meth:`canonical`), the payload a ``--jobs`` worker or a shard
    process receives, and the tuner's candidate.
    """

    workload: str
    config: str                  #: Table-1 configuration label
    params: Any                  #: the workload's frozen Params
    seed: int = 0xC0FFEE
    faults: Optional[FaultPlan] = None
    retry: Optional[RetryPolicy] = None
    flow: Optional[FlowControlPolicy] = None
    trace: "str | bool | None" = None
    adapt: Optional[AdaptiveSpec] = None

    def __post_init__(self) -> None:
        wl = workloads().get(self.workload)
        if wl is None:
            raise ValueError(f"unknown workload {self.workload!r} "
                             f"(choose from {sorted(workloads())})")
        if not isinstance(self.params, wl.params):
            raise TypeError(f"{self.workload} runs take "
                            f"{wl.params.__name__}, not "
                            f"{type(self.params).__name__}")
        if not isinstance(self.params.platform, PlatformSpec):
            raise TypeError(f"params.platform must be a PlatformSpec, not "
                            f"{self.params.platform!r}")
        if self.adapt is not None and not isinstance(self.adapt,
                                                     AdaptiveSpec):
            raise TypeError(f"adapt must be an AdaptiveSpec or None, not "
                            f"{self.adapt!r}")
        wl.runtime(self.params, self.flow)  # lets the workload refuse

    def canonical(self) -> str:
        """Canonical JSON (sorted keys, fixed separators) for cache keys.

        Every field of ``params`` and of each set layer is serialized in
        full, nested dataclasses (the platform and its cost model)
        included; layers that are off are left out.
        """
        doc: Dict[str, Any] = {"workload": self.workload,
                               "config": self.config,
                               "params": asdict(self.params),
                               "seed": self.seed}
        for name in _LAYERS:
            layer = getattr(self, name)
            if layer is not None:
                doc[name] = layer if name == "trace" else asdict(layer)
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def refuse_under_shards(spec: RunSpec) -> None:
    """Raise :class:`~repro.sim.shard.ShardingUnsupported` for a spec the
    sharded engine cannot reproduce byte-identically, before any shard
    process is forked."""
    from ..sim.shard.context import ADAPT_UNSHARDABLE, ShardingUnsupported

    reason = workloads()[spec.workload].unshardable
    if reason is None and spec.adapt is not None:
        reason = ADAPT_UNSHARDABLE
    if reason is not None:
        raise ShardingUnsupported(reason)


def run(spec: RunSpec) -> RunResult:
    """Build the runtime for ``spec``, drive its workload, return the
    typed result with the shared trailer filled in."""
    from ..sim.shard.context import ShardingUnsupported, current_context

    wl = workloads()[spec.workload]
    ctx = current_context()
    # inside a shard, adapt is refused by ShardContext.attach
    if ctx is not None and ctx.n_shards > 1 and wl.unshardable is not None:
        raise ShardingUnsupported(wl.unshardable)
    config = PPConfig.parse(spec.config)
    rt = make_runtime(config, platform=spec.params.platform, seed=spec.seed,
                      fault_plan=spec.faults, retry_policy=spec.retry,
                      flow_policy=spec.flow, trace=spec.trace,
                      adapt=spec.adapt, **wl.runtime(spec.params, spec.flow))
    result = wl.drive(rt, spec.params)
    result.config = config.label
    result.params = spec.params
    if spec.faults is not None or spec.flow is not None:
        result.faults = rt.fault_summary()
    result.obs = rt.obs
    if rt.obs is not None:
        result.metrics = rt.metrics()
    if rt.adapt is not None:
        result.adapt = rt.adapt.summary()
    return result
