"""Per-layer host time: a profiler hook around calls into ``repro`` modules.

The traced pass runs under the standard library's :mod:`cProfile`, which
times every call and keeps, per caller → callee pair, the call count and
the callee's own time in memory.  At the end of the pass those pairs are
folded into layers, where a layer is a module of the program
(``src/repro/<layer>``; ``parcelport/reliability.py`` and ``flow.py`` are
layers of their own).

* A layer's **self time** is the time spent in its functions minus the
  time spent in the layers they call.
* Code outside the program (builtins such as ``heapq``, the standard
  library, numpy) is charged to the layer that called it, following the
  call edges upward until a program frame is reached.
* A layer's **calls** count the calls into it from any other layer, from
  the benchmark itself, or from outside code.
* Whatever no listed layer accounts for — the benchmark's own callbacks,
  unlisted modules and the profiler's own bookkeeping — is the
  **unattributed** remainder, so the listed self times plus it add up to
  the traced wall time.

Exact per-layer counts (kernel events, progress calls, wire bytes, ...)
come from the runtime's public summaries after each untraced point.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from collections import defaultdict
from typing import Dict, Optional, Tuple

__all__ = ["LAYERS", "COUNTS", "RATIOS", "LayerProfile", "profile_call",
           "runtime_counts"]

#: the layers this benchmark reports; the workloads never reach
#: ``tcp_sim``, ``adapt``, ``faults`` or ``sim/shard``
LAYERS = ("sim", "netsim", "lci_sim", "mpi_sim", "parcelport",
          "reliability", "flow", "hpx_rt", "apps", "obs", "bench")

#: charged to nobody: the benchmark's own frames
HARNESS = "<harness>"

_HERE = os.path.dirname(os.path.realpath(__file__))

FuncKey = Tuple[str, int, str]


def _layer_of_path(path: str, src_repro: str) -> Optional[str]:
    """Layer of a source file, ``HARNESS``, or None for outside code."""
    if path.startswith(_HERE + os.sep):
        return HARNESS
    if not path.startswith(src_repro + os.sep):
        return None
    parts = os.path.relpath(path, src_repro).split(os.sep)
    if parts[:2] == ["parcelport", "reliability.py"]:
        return "reliability"
    if parts[:2] == ["sim", "shard"]:
        return "sim.shard"
    if len(parts) == 1:
        return parts[0][:-3] if parts[0].endswith(".py") else parts[0]
    return parts[0]


class LayerProfile:
    """Self time and inbound calls per layer of one profiled call."""

    def __init__(self, stats: Dict[FuncKey, tuple], src_repro: str):
        self._stats = stats
        cache: Dict[str, Optional[str]] = {}

        def layer(func: FuncKey) -> Optional[str]:
            fname = func[0]
            if fname not in cache:
                cache[fname] = (None if fname == "~" else _layer_of_path(
                    os.path.realpath(fname), src_repro))
            return cache[fname]

        self._layer = layer
        self._shares: Dict[FuncKey, Dict[str, float]] = {}
        self.self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, float] = defaultdict(float)
        for func, (_cc, _nc, tt, _ct, callers) in stats.items():
            own = layer(func)
            charged = 0.0
            for caller, edge in callers.items():
                src = self._resolve(caller)
                if own is None:
                    for lay, w in src.items():
                        self.self_s[lay] += edge[2] * w
                    charged += edge[2]
                elif own != HARNESS:
                    calls[own] += edge[0] * (1.0 - src.get(own, 0.0))
            if own is not None:
                self.self_s[own] += tt
            elif tt > charged:
                # entry frames with no recorded caller
                self.self_s[HARNESS] += tt - charged
        self.calls = {k: int(round(v)) for k, v in calls.items()}

    def _resolve(self, func: FuncKey) -> Dict[str, float]:
        """Layer shares of a frame: its own layer or, for outside code,
        its callers' shares weighted by calls (pstats caller edges are
        ``(nc, cc, tt, ct)``)."""
        own = self._layer(func)
        if own is not None:
            return {own: 1.0}
        if func in self._shares:
            return self._shares[func]
        self._shares[func] = {HARNESS: 1.0}   # recursion guard
        callers = self._stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
        total = sum(edge[0] for edge in callers.values())
        out: Dict[str, float] = defaultdict(float)
        for caller, edge in callers.items():
            for lay, w in self._resolve(caller).items():
                out[lay] += w * edge[0] / total
        self._shares[func] = dict(out) if out else {HARNESS: 1.0}
        return self._shares[func]


def profile_call(fn, src_repro: str):
    """Run ``fn()`` under the profiler; returns ``(result, LayerProfile)``."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        result = fn()
    finally:
        prof.disable()
    return result, LayerProfile(pstats.Stats(prof).stats, src_repro)


# ---------------------------------------------------------------------------
# exact per-layer counts, read from the runtime's public summaries
# ---------------------------------------------------------------------------
#: metric -> (key of :func:`runtime_counts`, unit); "sim_us" is simulated
COUNTS = {
    "sim.events": ("events", "count"),
    "hpx_rt.background_calls": ("background_calls", "count"),
    "hpx_rt.tasks_run": ("tasks_run", "count"),
    "hpx_rt.worker_lock_wait_us": ("worker_lock_wait_us", "sim_us"),
    "lci_sim.progress_calls": ("lci_progress_calls", "count"),
    "lci_sim.progress_contended": ("lci_progress_contended", "count"),
    "lci_sim.msgs_progressed": ("lci_msgs_progressed", "count"),
    "mpi_sim.progress_calls": ("mpi_progress_calls", "count"),
    "mpi_sim.lock_acquisitions": ("mpi_lock_acquisitions", "count"),
    "mpi_sim.lock_wait_us": ("mpi_lock_wait_us", "sim_us"),
    "mpi_sim.unexpected_msgs": ("mpi_unexpected_msgs", "count"),
    "netsim.wire_msgs": ("wire_msgs", "count"),
    "netsim.wire_bytes": ("wire_bytes", "bytes"),
    "parcelport.parcels_sent": ("parcels_sent", "count"),
    "parcelport.messages_sent": ("messages_sent", "count"),
    "reliability.acks_received": ("acks_received", "count"),
    "flow.credit_stalls": ("credit_stalls", "count"),
    "flow.backlog_refusals": ("backlog_refusals", "count"),
    "flow.parcels_shed": ("parcels_shed", "count"),
    "obs.spans": ("spans", "count"),
}

#: metric -> (numerator, denominator, unit); a zero denominator gives 0
RATIOS = {
    "sim.events_per_msg": ("events", "msgs", "1/msg"),
    "sim.events_per_host_s": ("events", "loop_s", "1/s"),
    "hpx_rt.background_calls_per_msg": ("background_calls", "msgs", "1/msg"),
    "lci_sim.progress_yield": ("lci_msgs_progressed", "lci_progress_calls",
                               "ratio"),
    "lci_sim.cq_empty_pop_frac": ("lci_cq_empty_pops", "lci_cq_pops",
                                  "ratio"),
    "parcelport.parcels_per_message": ("parcels_sent", "messages_sent",
                                       "ratio"),
}

_BREAKDOWN_KEYS = (
    "background_calls", "tasks_run", "worker_lock_wait_us", "wire_msgs",
    "wire_bytes", "parcels_sent", "messages_sent", "lci_progress_calls",
    "lci_progress_contended", "lci_msgs_progressed", "lci_cq_pops",
    "lci_cq_empty_pops", "mpi_progress_calls", "mpi_lock_acquisitions",
    "mpi_lock_wait_us", "mpi_unexpected_msgs")
_FAULT_KEYS = ("acks_received", "credit_stalls", "backlog_refusals",
               "parcels_shed")


def runtime_counts(rt, config: str) -> Dict[str, Optional[float]]:
    """Exact counts of one finished point; None marks a count the program
    no longer exports (the run goes on and reports it as missing)."""
    out: Dict[str, Optional[float]] = {
        "events": getattr(rt.sim, "event_count", None)}
    try:
        from repro.bench import runtime_breakdown
        breakdown = runtime_breakdown(rt)
    except (ImportError, AttributeError, TypeError):
        breakdown = None
    family = "mpi_" if config.startswith("mpi") else "lci_"
    for key in _BREAKDOWN_KEYS:
        if breakdown is not None and key in breakdown:
            out[key] = breakdown[key]
        elif (breakdown is not None and key.startswith(("mpi_", "lci_"))
                and not key.startswith(family)):
            out[key] = 0      # the other backend's counter
        else:
            out[key] = None
    try:
        faults = rt.fault_summary()
    except AttributeError:
        faults = None
    for key in _FAULT_KEYS:   # the summary omits zero counters
        out[key] = None if faults is None else faults.get(key, 0)
    try:
        out["spans"] = (0 if rt.obs is None
                        else len(rt.obs.spans) + rt.obs.dropped)
    except AttributeError:
        out["spans"] = None
    return out
