"""One walk over the simulated stack: every counter and gauge, by name.

Every summary of a run (``runtime_breakdown``, ``lock_report``,
``HpxRuntime.fault_summary()`` / ``flow_summary()`` / ``metrics()``) and
the adaptive controller's per-tick signals are views of
:func:`take_census`, the only code that reaches into the components for
counters.  Parts come in walk order (runtime-wide parts, then each
locality in lid order) and views fold one key over the parts of one kind
in that order, so a float total is bit-identical to a loop over the
components.  :meth:`Census.as_dict` names everything in one dotted
namespace (``L0.w3.cpu_us``, ``L1.dev0.pool.in_use``); the name map is in
docs/OBSERVABILITY.md.

Under ``--shards N`` each shard walks only the localities it executes and
the root shard merges its peers' censuses (``HpxRuntime.peer_census``):
locality parts from the shard that ran the locality, runtime-wide
counters summed, so every view reports the sequential numbers.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple

__all__ = ["Part", "Census", "take_census", "flatten"]


class Part(NamedTuple):
    """One component's counters (monotonic) and gauges (point-in-time)."""

    lid: int                    #: owning locality; -1 = runtime-wide
    kind: str                   #: ``worker``, ``pp``, ``pool``, ``cq`` ...
    name: str                   #: unique dotted name, e.g. ``L0.dev1.pool``
    counters: Dict[str, Any]
    gauges: Dict[str, Any]


class Census:
    """Every counter and gauge of one runtime at one instant."""

    def __init__(self, now: float, parts: List[Part]):
        self.now = now              #: simulated time of the walk (µs)
        self.parts = parts
        self._at: Dict[Tuple[Optional[int], str], List[Part]] = {}
        for p in parts:
            self._at.setdefault((None, p.kind), []).append(p)
            self._at.setdefault((p.lid, p.kind), []).append(p)

    def of(self, kind: str, lid: Optional[int] = None) -> List[Part]:
        """The parts of one kind (of one locality), in walk order."""
        return self._at.get((lid, kind), [])

    def total(self, kind: str, key: str, start: Any = 0) -> Any:
        """Left fold of a counter or gauge over the parts of ``kind``,
        from ``start``; parts without the key are skipped."""
        acc = start
        for p in self.of(kind):
            v = p.counters.get(key, p.gauges.get(key))
            if v is not None:
                acc = acc + v
        return acc

    def as_dict(self) -> Dict[str, Any]:
        """The whole census under one dotted namespace."""
        out: Dict[str, Any] = {"sim.now": self.now}
        for p in self.parts:
            flatten(p.name, {**p.counters, **p.gauges}, out)
        return out

    def merged(self, peers: List["Census"]) -> "Census":
        """This shard's census plus its peers'."""
        glob: Dict[str, Part] = {}
        local: List[Part] = []
        for p in [p for c in [self] + peers for p in c.parts]:
            if p.lid >= 0:
                local.append(p)
            elif p.name not in glob:
                glob[p.name] = p._replace(counters=dict(p.counters))
            else:
                mine = glob[p.name].counters
                for k, v in p.counters.items():
                    mine[k] = mine.get(k, 0) + v
        local.sort(key=lambda p: p.lid)   # stable: walk order per lid
        return Census(self.now, list(glob.values()) + local)


def flatten(prefix: str, value: Any, out: Dict[str, Any]) -> None:
    """Nested dicts under ``prefix`` → dotted leaf names in ``out``."""
    if isinstance(value, dict):
        for k, v in value.items():
            flatten(f"{prefix}.{k}", v, out)
    else:
        out[prefix] = value


def _lock(lid: int, lk, kind: str = "lock") -> Part:
    return Part(lid, kind, lk.name, {"acquisitions": lk.acquisitions,
                                     "total_wait_us": lk.total_wait_us},
                {"max_queue": lk.max_queue})


def _walk(loc, parts: List[Part]) -> None:
    lid, pre = loc.lid, f"L{loc.lid}"
    add = parts.append
    add(Part(lid, "locality", pre, loc.stats.as_dict(), {}))
    add(Part(lid, "nic", f"{pre}.nic", loc.nic.stats.as_dict(),
             {"rx_pending": loc.nic.rx_pending()}))
    for w in loc.workers:
        add(Part(lid, "worker", f"{pre}.w{w.core_id}", w.stats.as_dict(), {}))
    pp, pl = loc.parcelport, loc.parcel_layer
    if pp is not None:
        gauges = {}
        if hasattr(pp, "sync_pending"):
            gauges["sync_pending"] = len(pp.sync_pending)
        add(Part(lid, "pp", f"{pre}.pp", pp.stats.as_dict(), gauges))
        for k, dev in enumerate(getattr(pp, "devices", ())):
            add(Part(lid, "device", f"{pre}.dev{k}", dev.stats.as_dict(), {}))
            add(Part(lid, "pool", f"{pre}.dev{k}.pool",
                     dev.pool.stats.as_dict(),
                     {"in_use": dev.pool.in_use,
                      "capacity": dev.pool.capacity}))
        cqs = [(f"hcq{k}", cq)
               for k, cq in enumerate(getattr(pp, "header_cqs", ()))]
        if getattr(pp, "comp_cq", None) is not None:
            cqs.append(("comp_cq", pp.comp_cq))
        for name, cq in cqs:
            add(Part(lid, "cq", f"{pre}.{name}", cq.stats.as_dict(),
                     {"max_depth": cq.max_depth}))
        mpi = getattr(pp, "mpi", None)
        if mpi is not None:
            add(Part(lid, "mpi", f"{pre}.mpi", mpi.stats.as_dict(), {}))
            add(_lock(lid, mpi.progress_lock, "mpi_lock"))
        for attr in ("pending_lock", "sync_lock"):
            if getattr(pp, attr, None) is not None:
                add(_lock(lid, getattr(pp, attr)))
        # flow gauges; empty ones are left out, and only a parcelport
        # running the reliability layer reports credits and in_flight
        flow: Dict[str, Any] = {}
        rel = pp.reliability
        if rel is not None:
            credits = rel.credit_gauges()
            if credits:
                flow["credits"] = credits
            flow["in_flight"] = rel.in_flight
        depths = pp.backlog_depths()
        if depths:
            flow["backlog"] = depths
        flow["backlog_peak"] = pp.backlog_peak
        queued = pl.queued_parcels() if pl is not None else 0
        if queued:
            flow["queued_parcels"] = queued
        add(Part(lid, "flow", f"{pre}.flow", {}, flow))
    if pl is not None:
        add(Part(lid, "layer", f"{pre}.layer", pl.stats.as_dict(), {}))
        for lk in [pl._cache_lock, *pl._queue_locks.values()]:
            add(_lock(lid, lk))


def take_census(rt) -> Census:
    """Walk ``rt``'s stack once (merging peer shards on the root shard)."""
    parts = [Part(-1, "sim", "sim", {"events": rt.sim.event_count}, {}),
             Part(-1, "fabric", "fabric", rt.fabric.stats.as_dict(), {})]
    if rt.fault_injector is not None:
        parts.append(Part(-1, "faults", "faults",
                          rt.fault_injector.stats.as_dict(), {}))
    for loc in rt.localities:
        if rt.shard_owns(loc.lid):
            _walk(loc, parts)
    census = Census(rt.now, parts)
    return census.merged(rt.peer_census) if rt.peer_census else census
