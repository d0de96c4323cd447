"""The simulated HPX runtime: localities, actions, message delivery.

A :class:`HpxRuntime` owns the simulator, the network fabric, and a set of
:class:`Locality` objects (one per node — matching the paper's one-process-
per-node runs).  Applications:

1. register actions (``runtime.register_action``),
2. boot (``runtime.boot()``),
3. spawn tasks on localities; tasks invoke remote actions with
   ``yield from locality.apply(worker, dest, "action", args, arg_sizes)``,
4. drive the simulation with ``runtime.run_until(future)``.

The parcelport for each locality is produced by a user-supplied factory so
this module stays independent of :mod:`repro.parcelport`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..faults import FaultInjector, FaultPlan, RetryPolicy
from ..flow import FlowControlPolicy
from ..netsim.fabric import Fabric
from ..obs.census import take_census
from ..obs.spans import SpanRecorder
from ..sim.core import Event, Simulator
from ..sim.rng import RngPool
from ..sim.stats import StatSet
from .future import Future, Latch
from .parcel import HpxMessage, Parcel
from .parcel_layer import ParcelLayer
from .platform import CostModel, PlatformSpec
from .scheduler import Scheduler, Worker
from .serialization import deserialize_cost
from .task import Task

__all__ = ["HpxRuntime", "Locality"]


class Locality:
    """One HPX process (== one node in all the paper's experiments)."""

    def __init__(self, runtime: "HpxRuntime", lid: int):
        self.runtime = runtime
        self.lid = lid
        self.sim = runtime.sim
        self.platform = runtime.platform
        self.cost = runtime.cost
        self.nic = runtime.fabric.add_node(lid)
        self.sched = Scheduler(self.sim, name=f"L{lid}.sched")
        self.nic.on_deliver = self.sched.notify
        self.parcelport = None  # set by HpxRuntime.boot()
        self.parcel_layer: Optional[ParcelLayer] = None
        self.workers: List[Worker] = []
        self.stats = StatSet(f"L{lid}")

    # -- tasking ------------------------------------------------------------
    def spawn(self, fn: Callable, name: str = "") -> None:
        """Enqueue a task (``fn(worker) -> generator | None``)."""
        self.sched.push(Task(fn, name=name))

    # -- remote invocation -------------------------------------------------
    def apply(self, worker: Worker, dest: int, action: str,
              args: Tuple[Any, ...] = (),
              arg_sizes: Optional[Sequence[int]] = None):
        """Generator: invoke ``action`` on locality ``dest`` (§2.2 RPC path)."""
        if action not in self.runtime.actions:
            raise KeyError(f"unregistered action {action!r}")
        yield worker.cpu(self.cost.parcel_create_us)
        parcel = Parcel(action=action, dest=dest, src=self.lid, args=args,
                        arg_sizes=tuple(arg_sizes) if arg_sizes is not None
                        else tuple(8 for _ in args))
        self.stats.inc("parcels_created")
        if dest == self.lid:
            # Local invocation: HPX short-circuits the network entirely.
            self._spawn_parcel_task(parcel)
            return
        obs = self.runtime.obs
        if obs is not None:
            obs.instant("parcel", "submit", loc=self.lid, tid=worker.name,
                        pid=parcel.pid, dest=dest, action=action)
        yield from self.parcel_layer.put_parcel(worker, parcel)

    # -- receive upcall (called by the parcelport) ---------------------------
    def on_message(self, msg: HpxMessage) -> None:
        """Deliver a fully-received HPX message: decode + run its actions."""
        self.stats.inc("messages_received")
        cost = self.cost

        def decode(worker: Worker, msg=msg):
            yield worker.cpu(deserialize_cost(msg, cost))
            for parcel in msg.parcels:
                yield worker.cpu(cost.task_spawn_us)
                self._spawn_parcel_task(parcel)

        self.spawn(decode, name="decode")

    def _spawn_parcel_task(self, parcel: Parcel) -> None:
        runtime = self.runtime
        cost = self.cost
        self.stats.inc("parcels_executed")

        def run_action(worker: Worker, parcel=parcel):
            yield worker.cpu(cost.action_dispatch_us)
            handler = runtime.actions[parcel.action]
            body = handler(worker, *parcel.args)
            if body is not None:
                yield from body

        self.spawn(run_action, name=parcel.action)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Locality {self.lid}>"


class HpxRuntime:
    """Simulated distributed HPX instance."""

    def __init__(self, platform: PlatformSpec, n_localities: int,
                 parcelport_factory: Callable[[Locality], Any],
                 immediate: bool = False,
                 cost: Optional[CostModel] = None,
                 seed: int = 0xC0FFEE,
                 fabric_factory: Optional[Callable] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 reliable: Optional[bool] = None,
                 flow_policy: Optional[FlowControlPolicy] = None,
                 trace: "str | bool | None" = None,
                 adapt: "Any | None" = None):
        if n_localities < 1:
            raise ValueError("need at least one locality")
        if n_localities > platform.max_nodes:
            raise ValueError(
                f"{platform.name} allows at most {platform.max_nodes} nodes "
                f"(asked for {n_localities}) — same limit as the paper")
        self.platform = platform
        self.cost = cost if cost is not None else platform.cost
        self.sim = Simulator()
        self.rng = RngPool(seed)
        # fabric_factory(sim, params) lets experiments swap the default
        # non-blocking crossbar for e.g. an oversubscribed FatTreeFabric.
        if fabric_factory is None:
            self.fabric = Fabric(self.sim, platform.network)
        else:
            self.fabric = fabric_factory(self.sim, platform.network)
        # Fault injection: a zero plan (or None) means *no* injector at
        # all — the fault-free fast paths stay byte-identical to a build
        # without the faults layer.
        self.fault_plan = fault_plan
        if fault_plan is not None and not fault_plan.is_zero:
            self.fault_injector: Optional[FaultInjector] = FaultInjector(
                self.sim, fault_plan, self.rng.stream("faults"))
            self.fabric.injector = self.fault_injector
        else:
            self.fault_injector = None
        self.retry_policy = (retry_policy if retry_policy is not None
                             else RetryPolicy())
        #: parcelports build their reliability layer iff this is True;
        #: defaults to "faults are active", overridable for tests that
        #: want the ack protocol without losses (or vice versa)
        self.reliable = (reliable if reliable is not None
                         else self.fault_injector is not None)
        #: end-to-end flow control (credits + bounded backlogs); None keeps
        #: every flow check compiled out of the data path
        self.flow_policy = flow_policy
        #: hook(parcel, exc) invoked for every parcel of a message that
        #: exhausted its retries (or was shed under overload) — applications
        #: fail futures here
        self.on_parcel_failure: Optional[Callable] = None
        self.actions: Dict[str, Callable] = {}
        self.running = True
        self.immediate = immediate
        #: span recorder (repro.obs); None keeps every instrumentation
        #: site compiled down to a single ``is not None`` check — a
        #: traced-off run is byte-identical to a build without repro.obs
        self.obs: Optional[SpanRecorder] = (
            SpanRecorder(self.sim, spec=trace) if trace else None)
        self.localities: List[Locality] = [
            Locality(self, lid) for lid in range(n_localities)]
        if self.obs is not None:
            self.fabric.obs = self.obs
            for loc in self.localities:
                loc.nic.obs = self.obs
        #: adaptive policies (repro.adapt); None keeps every adaptation
        #: hook down to a single ``is not None`` check — an adaptive-off
        #: run is byte-identical to a build without repro.adapt.  Accepts
        #: an AdaptiveSpec, a spec dict, or True (defaults).
        if adapt is None or adapt is False:
            self.adapt_spec = None
        else:
            from ..adapt import AdaptiveSpec
            if adapt is True:
                self.adapt_spec = AdaptiveSpec()
            elif isinstance(adapt, dict):
                self.adapt_spec = AdaptiveSpec.from_dict(adapt)
            else:
                self.adapt_spec = adapt
        #: the AdaptiveController, built at boot() when adapt_spec is set
        self.adapt = None
        self._pp_factory = parcelport_factory
        self._booted = False
        # Sharded engine: when a shard context is active this runtime is
        # one shard's replica of the world — attach derives the owned
        # locality set and arms the fabric's export boundary.
        from ..sim.shard.context import current_context
        self.shard_ctx = current_context()
        #: peer shards' censuses, absorbed on the root shard at the
        #: collective stop (empty everywhere else)
        self.peer_census: List[Any] = []  # of repro.obs.census.Census
        if self.shard_ctx is not None:
            self.shard_ctx.attach(self)
            if self.shard_ctx.n_shards > 1:
                self.shard_ctx.register_contrib(
                    "rt.census", self.census, self.peer_census.append)

    # -- setup -------------------------------------------------------------
    def register_action(self, name: str, fn: Callable) -> None:
        """Register ``fn(worker, *args) -> generator | None`` as an action."""
        if name in self.actions:
            raise ValueError(f"action {name!r} already registered")
        self.actions[name] = fn

    def action(self, name: str) -> Callable:
        """Decorator form of :meth:`register_action`."""
        def deco(fn: Callable) -> Callable:
            self.register_action(name, fn)
            return fn
        return deco

    def boot(self) -> None:
        """Create parcelports and start worker (and progress) threads."""
        if self._booted:
            raise RuntimeError("runtime already booted")
        self._booted = True
        for loc in self.localities:
            loc.parcelport = self._pp_factory(loc)
            loc.parcel_layer = ParcelLayer(loc, immediate=self.immediate)
        # The adaptive controller attaches after parcelports and layers
        # exist but before any starts, so every stack sees the shared
        # state from its first event onward.
        if self.adapt_spec is not None:
            from ..adapt import AdaptiveController
            self.adapt = AdaptiveController(self, self.adapt_spec)
        # Parcelports exist on all localities before any starts (so the
        # first message cannot arrive at an unbooted peer).  Under the
        # sharded engine only *owned* localities execute: construction is
        # replicated on every shard (identical rng draws), but progress
        # engines and workers start solely where the locality lives.
        ctx = self.shard_ctx
        for loc in self.localities:
            if ctx is not None and ctx.n_shards > 1 \
                    and loc.lid not in ctx.owned:
                continue
            loc.parcelport.start()
            # A pinned progress thread (the rp/pin configurations) runs on
            # its own simulated core *in addition* to the workers: on the
            # real 128-core nodes its core share is 1/128 (negligible),
            # and charging it 1/16 of our scaled-down core count would
            # grossly exaggerate its cost.
            n_cores = self.platform.sim_cores_per_node
            for core in range(n_cores):
                w = Worker(loc, core)
                loc.workers.append(w)
                w.start()

    # -- execution -------------------------------------------------------------
    def locality(self, lid: int) -> Locality:
        return self.localities[lid]

    @property
    def now(self) -> float:
        return self.sim.now

    def new_future(self) -> Future:
        return Future(self.sim)

    def new_latch(self, n: int) -> Latch:
        return Latch(self.sim, n)

    def run_until(self, what: "Future | Latch | Event | float",
                  max_events: Optional[int] = None,
                  shard_mode: str = "root") -> Any:
        """Run the simulation until a future/latch/event fires (or a time).

        ``shard_mode`` only matters under ``--shards > 1``: ``"root"``
        stops the world when the root shard's event fires (results that
        live on one locality), ``"all"`` when every shard's local event
        has fired (results distributed across localities — e.g. the FFT
        latch).  The sequential engine ignores it.
        """
        if not self._booted:
            self.boot()
        if isinstance(what, (Future, Latch)):
            what = what.wait()
        ctx = self.shard_ctx
        if ctx is not None and ctx.n_shards > 1:
            return ctx.run_until(what, max_events=max_events,
                                 mode=shard_mode)
        return self.sim.run(until=what, max_events=max_events)

    # -- sharding ------------------------------------------------------------
    def shard_owns(self, lid: int) -> bool:
        """Does the current shard execute locality ``lid``?  (Always True
        on the sequential engine and under ``--shards 1``.)"""
        ctx = self.shard_ctx
        return (ctx is None or ctx.n_shards == 1
                or lid in ctx.owned)

    def shutdown(self) -> None:
        """Stop worker loops (the simulator can then drain quickly)."""
        self.running = False
        for loc in self.localities:
            loc.sched.notify_all()

    # -- reporting -----------------------------------------------------------
    def census(self):
        """Every counter and gauge of the stack, one
        :class:`~repro.obs.census.Census` (merged across shards on the
        root shard of a sharded run)."""
        return take_census(self)

    def metrics(self):
        """One :class:`~repro.obs.metrics.MetricsRegistry` view over this
        runtime: fault counters, flow gauges, parcelport/layer/worker
        stats, and span-derived histograms when tracing is on."""
        from ..obs.metrics import build_runtime_metrics
        return build_runtime_metrics(self)

    def fault_summary(self) -> Dict[str, int]:
        """Fault-injection, reliability and overload counters, merged
        across the stack; zero counters are left out.

        Empty dict when no injector is active and reliability is off.
        """
        c = self.census()
        out: Dict[str, int] = {}
        for p in c.of("faults"):
            out.update(p.counters)

        def add(counters: Dict[str, int], keys, prefix: str = "") -> None:
            for k in keys:
                v = counters.get(k, 0)
                if v:
                    out[prefix + k] = out.get(prefix + k, 0) + v

        for loc in c.of("locality"):
            for pp in c.of("pp", loc.lid):
                # in_flight marks a parcelport running the reliability layer
                if "in_flight" in c.of("flow", loc.lid)[0].gauges:
                    add(pp.counters, _REL_KEYS)
                add(pp.counters, _FLOW_KEYS)
            for pool in c.of("pool", loc.lid):
                add(pool.counters, ("exhaustions", "squeezed"), "pool_")
            for pl in c.of("layer", loc.lid):
                add(pl.counters, _LAYER_KEYS)
        return out

    def flow_summary(self) -> Dict[str, Any]:
        """Per-peer flow-control gauges (credits left, queue depths),
        keyed ``L<lid>`` in locality order.

        Empty dict when no :class:`~repro.flow.FlowControlPolicy` is set.
        """
        if self.flow_policy is None:
            return {}
        return {f"L{p.lid}": p.gauges for p in self.census().of("flow")}


#: fault_summary rows: reliability counters (reported only where the
#: layer runs), flow/overload and parcel-layer counters
_REL_KEYS = ("retransmits", "sends_failed", "dup_deliveries",
             "acks_received", "acks_stale", "send_chains_aborted",
             "recv_chains_expired", "tracked_sends")
_FLOW_KEYS = ("credit_stalls", "credits_consumed", "credits_replenished",
              "backlogged_sends", "backlog_refusals", "backlog_drains",
              "pool_retries", "pool_backoffs", "eager_fallbacks")
_LAYER_KEYS = ("messages_failed", "parcels_failed", "parcels_shed",
               "puts_deferred", "drains_deferred", "parcels_requeued")
