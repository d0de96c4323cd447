"""Per-process shard state: ownership, the export buffer, the window loop.

One :class:`ShardContext` exists per worker process (and one, with
``n_shards == 1``, for the in-process ``--shards 1`` path).  The runtime
attaches itself on construction (:meth:`ShardContext.attach`), which is
when ownership and lookahead are derived; the fabric consults
:attr:`ShardContext.owned` on every transmit and hands cross-shard
deliveries to :meth:`export_msg`; :meth:`run_until` replaces the
sequential ``sim.run`` with the conservative window loop documented in
docs/SHARDING.md.

Determinism contract (the whole point)
--------------------------------------
Deliveries — local and imported alike — are scheduled at the kernel's
:data:`~repro.sim.core.DELIVERY` priority with the intrinsic
``(src locality, per-source sequence)`` tie-break key, so co-temporal
deliveries execute in an order that is a property of the *traffic*, not
of which process scheduled them.  Together with the window invariant
(every event with ``t < H`` is executed before any event at ``t >= H``
anywhere), the executed event order on every locality is identical for
every shard count, which is what makes ``--shards 1/2/4`` byte-identical
on the workloads whose results are shard-placement-clean (see
docs/SHARDING.md for the exact conditions).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core import SimulationError

__all__ = ["ShardContext", "ShardStopped", "LookaheadViolation",
           "ShardingUnsupported", "current_context", "set_current",
           "owner_of"]


class ShardStopped(Exception):
    """Raised out of a peer shard's ``run_until`` at the collective stop.

    The sequential engine returns from ``run_until`` exactly once, on the
    process that owns the result; peer shards cannot meaningfully execute
    the code after their (replica's) ``run_until``, so they unwind with
    this exception instead — the shard engine catches it at the top of
    the child process.
    """


class LookaheadViolation(SimulationError):
    """A shard was handed an event in its past.

    The conservative protocol makes this impossible by construction
    (window width == minimum wire latency); seeing it means the lookahead
    derivation or the barrier protocol is broken, and the engine must
    fail loudly rather than silently reorder.
    """


class ShardingUnsupported(RuntimeError):
    """A feature incompatible with the sharded engine was requested."""


#: why adaptive policies cannot run sharded (raised before the fork and
#: again when a shard's runtime attaches)
ADAPT_UNSHARDABLE = ("adaptive policies (adapt=) are not supported under "
                     "--shards > 1: the controller's shared state spans "
                     "localities that live on different shards")


def owner_of(lid: int, n_shards: int, n_localities: int) -> int:
    """The shard owning locality ``lid``: contiguous blocks, remainder
    spread evenly (the same split ``numpy.array_split`` would make)."""
    return lid * n_shards // n_localities


#: process-wide current context (set by the shard engine before the
#: workload runs; None in the sequential engine)
_current: Optional["ShardContext"] = None


def current_context() -> Optional["ShardContext"]:
    return _current


def set_current(ctx: Optional["ShardContext"]) -> None:
    global _current
    _current = ctx


class ShardContext:
    """State of one shard of a sharded simulation."""

    def __init__(self, shard_id: int, n_shards: int, conn=None):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        if not 0 <= shard_id < n_shards:
            raise ValueError(f"shard_id {shard_id} out of range")
        self.shard_id = shard_id
        self.n_shards = n_shards
        #: duplex pipe to the coordinator (None for the in-process
        #: ``n_shards == 1`` path, which never barriers)
        self.conn = conn
        self.rt = None
        self.sim = None
        #: locality ids this shard executes (frozenset after attach)
        self.owned: frozenset = frozenset()
        self.n_localities = 0
        #: guaranteed lookahead: the minimum latency any cross-shard
        #: message pays between transmit and delivery (µs)
        self.lookahead = 0.0
        #: cross-shard messages produced this window:
        #: (arrive_t, src, per-src seq, encoded NetMsg)
        self._exports: List[Tuple[float, int, int, Any]] = []
        #: name -> (collect, absorb): peer-state contributions routed to
        #: the root shard at the collective stop
        self._contribs: Dict[str, Tuple[Callable, Callable]] = {}
        self._encoder = None
        self._ran = False
        self.windows = 0

    # ------------------------------------------------------------------
    # runtime attachment
    # ------------------------------------------------------------------
    def attach(self, runtime) -> None:
        """Bind this context to a freshly constructed runtime.

        Derives ownership and lookahead, verifies the fabric is the
        constant-latency crossbar the lookahead proof assumes, and (for
        ``n_shards > 1``) arms the fabric's export boundary and the
        fault injector's keyed draws.
        """
        from ...netsim.fabric import Fabric

        if self.rt is not None:
            raise ShardingUnsupported(
                "a sharded run may construct exactly one HpxRuntime "
                "(the shard context is already attached)")
        self.rt = runtime
        self.sim = runtime.sim
        n = len(runtime.localities)
        self.n_localities = n
        sid, k = self.shard_id, self.n_shards
        self.owned = frozenset(
            lid for lid in range(n) if lid * k // n == sid)
        if runtime.obs is not None and k > 1:
            raise ShardingUnsupported(
                "tracing (--trace) is not supported under --shards > 1")
        if getattr(runtime, "adapt_spec", None) is not None and k > 1:
            raise ShardingUnsupported(ADAPT_UNSHARDABLE)
        if type(runtime.fabric) is not Fabric and k > 1:
            raise ShardingUnsupported(
                f"--shards > 1 requires the constant-latency crossbar "
                f"fabric (got {type(runtime.fabric).__name__}); "
                f"per-link lookahead for other topologies is future work")
        self.lookahead = float(runtime.fabric.params.wire_latency_us)
        if self.lookahead <= 0.0 and k > 1:
            raise LookaheadViolation(
                f"wire_latency_us={self.lookahead} gives no lookahead: "
                f"the conservative window protocol cannot make progress")
        # Keyed fault draws: the schedule becomes a pure function of each
        # message's (src, per-src seq) identity so it is identical for
        # every shard count — see docs/SHARDING.md.
        if runtime.fault_injector is not None:
            runtime.fault_injector.keyed_base = (
                f"{runtime.rng.root_seed}:{runtime.fault_plan.describe()}")
        if k > 1:
            runtime.fabric.shard_ctx = self
            from .wire import WireCodec
            self._encoder = WireCodec(self)

    # ------------------------------------------------------------------
    # fabric boundary
    # ------------------------------------------------------------------
    def export_msg(self, arrive_t: float, key: Tuple[int, int], msg) -> None:
        """Buffer a cross-shard delivery until the next window barrier."""
        self._exports.append(
            (arrive_t, key[0], key[1], msg.dst,
             self._encoder.encode_msg(msg)))

    def _import_msgs(self, imports) -> None:
        sim = self.sim
        nics = self.rt.fabric.nics
        now = sim.now
        for arrive_t, src, n, _dst, emsg in imports:
            if arrive_t < now:
                raise LookaheadViolation(
                    f"shard {self.shard_id} got a delivery at t="
                    f"{arrive_t} with local clock already at {now} — "
                    f"conservative lookahead was violated")
            msg = self._encoder.decode_msg(emsg)
            sim.schedule_delivery(arrive_t - now, nics[msg.dst].deliver,
                                  msg, (src, n))

    # ------------------------------------------------------------------
    # contributions (peer state routed to the root shard at stop)
    # ------------------------------------------------------------------
    def register_contrib(self, name: str, collect: Callable[[], Any],
                         absorb: Callable[[Any], None]) -> None:
        """Register a peer-state contribution.

        ``collect()`` runs on every shard at the collective stop and must
        return a picklable snapshot of this shard's partial state;
        ``absorb(snapshot)`` runs on the root shard once per peer, in
        shard order, merging the snapshot into the root's live state
        before its ``run_until`` returns.
        """
        if name in self._contribs:
            raise ValueError(f"contribution {name!r} already registered")
        self._contribs[name] = (collect, absorb)

    # ------------------------------------------------------------------
    # the window loop
    # ------------------------------------------------------------------
    def run_until(self, until, max_events: Optional[int] = None,
                  mode: str = "root"):
        """The sharded replacement for ``Simulator.run(until=...)``.

        ``until`` is an Event, a float deadline, or None (exhaustion);
        ``mode`` is ``"root"`` (stop the world when shard 0's until
        fires — fig-1-style runs whose result lives on the root shard,
        and replicated-timer runs like serving where every shard's until
        fires at the same instant) or ``"all"`` (stop when every shard's
        local until has fired — FFT-style runs where each shard owns a
        slice of the result).  Returns the until-event's value on the
        root shard; raises :exc:`ShardStopped` on peers.
        """
        from ..core import Event

        if self._ran:
            raise ShardingUnsupported(
                "sharded runs support a single collective run_until; "
                "drivers needing more phases must merge them or stay "
                "on the sequential engine")
        self._ran = True
        sim = self.sim
        stop_event: Optional[Event] = None
        deadline: Optional[float] = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            deadline = float(until)

        budget = max_events if max_events is not None else None
        spent = 0
        conn = self.conn
        fired = (stop_event is not None
                 and stop_event.callbacks is None)
        # "root": a fired shard freezes its clock (sequential stops the
        # world at the root's stop event).  "all": a fired shard keeps
        # draining protocol traffic — its localities may still be relaying
        # collectives or acks that *other* shards' stop conditions need.
        halted = fired and mode == "root"
        meta = (mode, deadline, self.lookahead, self.n_localities)
        while True:
            nt = float("inf") if halted else sim.peek()
            exports = self._exports
            self._exports = []
            conn.send(("bar", nt, exports, fired, meta))
            tag, *rest = conn.recv()
            if tag == "win":
                horizon, imports = rest
                if imports:
                    self._import_msgs(imports)
                self.windows += 1
                if halted:
                    continue
                left = None if budget is None else budget - spent
                se = None if fired else stop_event
                spent += sim.run_window(horizon, stop_event=se,
                                        deadline=deadline, max_events=left)
                if not fired and stop_event is not None \
                        and stop_event.callbacks is None:
                    fired = True
                    if mode == "root":
                        halted = True
            elif tag == "stop":
                break
            elif tag == "abort":
                raise ShardStopped(rest[0])
            else:  # pragma: no cover - protocol guard
                raise RuntimeError(f"unexpected coordinator message {tag!r}")

        # Collective stop: exchange contributions, then finish exactly as
        # the sequential kernel would.
        contribs = {name: collect()
                    for name, (collect, _) in self._contribs.items()}
        conn.send(("contrib", contribs))
        tag, peer_contribs = conn.recv()
        if tag != "fin":  # pragma: no cover - protocol guard
            raise RuntimeError(f"unexpected coordinator message {tag!r}")
        if self.shard_id != 0:
            raise ShardStopped()
        for data in peer_contribs:
            for name, (_, absorb) in self._contribs.items():
                if name in data:
                    absorb(data[name])
        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "simulation ran out of events before `until` triggered")
            if not stop_event.ok:
                raise stop_event.value
            return stop_event.value
        if deadline is not None:
            sim.now = max(sim.now, deadline)
        return None
