"""Adaptive parcelport policies.

The LCI-parcelport paper freezes the aggregation threshold, the
eager/rendezvous cutoff and the progress-engine choice at construction
time (``PPConfig``); its analysis sections show each knob's best value is
workload-dependent.  This module makes the three knobs respond to runtime
feedback: an :class:`AdaptiveController` samples the stack's counters on a
fixed *simulated-time* cadence and retunes a shared :class:`AdaptiveState`
that the parcelports, the parcel layer and the network backends consult.

Design constraints (see ``docs/TUNING.md``):

* **Determinism** — the controller is an ordinary simulation process; its
  inputs are counters of the simulated machine and its outputs are state
  transitions at simulated timestamps.  Rerunning the same configuration
  reproduces the exact decision trace.  No wall-clock, no randomness.
* **Byte-identity when off** — every hook in the hot path is gated on
  ``adapt is not None``; a runtime built without ``adapt=`` executes the
  exact event schedule it executed before this module existed.
* **Hysteresis + bounded steps** — a knob moves only after a signal has
  been out of band for ``dwell_ticks`` consecutive ticks, moves by at most
  a factor of ``step``, and then rests for ``cooldown_ticks``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, List, Optional

__all__ = ["AdaptiveSpec", "AdaptiveState", "AdaptiveController"]


@dataclass(frozen=True)
class AdaptiveSpec:
    """Controller parameters.  Frozen and hashable so tuner search points

    can embed a spec in a content-addressed cache key.
    """

    #: Controller cadence in simulated microseconds.
    interval_us: float = 50.0

    #: Initial aggregation hold (bytes).  0 = start with holding disabled;
    #: the controller raises it under backlog pressure.  A tuned config can
    #: pin a static hold by setting this > 0.
    agg_hold_init: int = 0
    #: Smallest non-zero hold the controller will set.
    agg_hold_start: int = 256
    #: Upper bound on the hold (bytes).
    agg_hold_max: int = 8192

    #: Initial multiplier on the backend eager/rendezvous threshold.
    eager_scale_init: float = 1.0
    eager_scale_min: float = 0.25
    eager_scale_max: float = 4.0

    #: Hysteresis bands (per-tick deltas unless noted).
    backlog_high: int = 8       # queued parcels across the runtime (gauge)
    backlog_low: int = 1
    stall_high: int = 1         # credit stalls per tick
    exhaust_high: int = 1       # packet-pool exhaustions per tick
    contention_high: float = 0.5  # progress-lock wait share
    contention_low: float = 0.05
    #: wire messages per tick at or below which the system counts as
    #: quiet (unpinning is considered only then — backlog gauges read 0
    #: for immediate-mode configs, so queue depth alone can't mean idle)
    quiet_wire_msgs: int = 2

    #: Consecutive out-of-band ticks required before a knob moves.
    dwell_ticks: int = 2
    #: Ticks a knob rests after moving.
    cooldown_ticks: int = 4
    #: Multiplicative step applied when a knob moves.
    step: float = 2.0
    #: Allow the controller to flip LCI progress between pin and worker.
    switch_progress: bool = True
    #: Cap on the recorded decision log (counters keep exact totals).
    max_decisions: int = 256

    def __post_init__(self) -> None:
        if self.interval_us <= 0:
            raise ValueError("interval_us must be > 0")
        if self.agg_hold_init < 0 or self.agg_hold_start <= 0:
            raise ValueError("aggregation holds must be non-negative")
        if self.agg_hold_max < self.agg_hold_start:
            raise ValueError("agg_hold_max must be >= agg_hold_start")
        if not (0 < self.eager_scale_min <= self.eager_scale_max):
            raise ValueError("eager scale bounds must satisfy 0 < min <= max")
        if not (self.eager_scale_min <= self.eager_scale_init
                <= self.eager_scale_max):
            raise ValueError("eager_scale_init outside [min, max]")
        if self.backlog_low > self.backlog_high:
            raise ValueError("backlog_low must be <= backlog_high")
        if not (0.0 <= self.contention_low <= self.contention_high <= 1.0):
            raise ValueError("contention bands must satisfy 0 <= low <= high <= 1")
        if self.dwell_ticks < 1 or self.cooldown_ticks < 0:
            raise ValueError("dwell_ticks >= 1 and cooldown_ticks >= 0 required")
        if self.step <= 1.0:
            raise ValueError("step must be > 1")

    def as_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "AdaptiveSpec":
        known = {f.name for f in fields(cls)}
        bad = sorted(set(d) - known)
        if bad:
            raise ValueError(f"unknown AdaptiveSpec fields: {bad}")
        return cls(**d)

    def with_(self, **kw: Any) -> "AdaptiveSpec":
        return replace(self, **kw)


class AdaptiveState:
    """The mutable knob values, shared by every locality's stack.

    One instance per runtime; parcelports, parcel layers, LCI devices and
    the MPI comm each hold a reference and read it on their hot paths.
    """

    __slots__ = ("spec", "agg_hold_bytes", "eager_scale", "progress_pinned")

    def __init__(self, spec: AdaptiveSpec, progress_pinned: bool):
        self.spec = spec
        self.agg_hold_bytes = spec.agg_hold_init
        self.eager_scale = spec.eager_scale_init
        self.progress_pinned = progress_pinned

    def eager_cutoff(self, base: int) -> int:
        """The effective eager/rendezvous threshold for a backend whose

        configured threshold is ``base`` bytes.
        """
        return int(base * self.eager_scale)


class AdaptiveController:
    """Samples runtime signals on a simulated cadence and retunes the

    shared :class:`AdaptiveState`.  Built by ``HpxRuntime.boot`` after the
    parcelports and parcel layers exist but before they start.
    """

    def __init__(self, runtime: Any, spec: AdaptiveSpec):
        self.rt = runtime
        self.spec = spec
        pinned = any(
            getattr(loc.parcelport, "reserves_progress_core", False)
            for loc in runtime.localities)
        self.state = AdaptiveState(spec, pinned)
        self.ticks = 0
        self.retunes: Dict[str, int] = {}
        self.decisions: List[Dict[str, Any]] = []
        self._has_lci = False
        # Last-seen cumulative counters; per-tick signals are deltas.
        self._seen = {"stalls": 0, "exhaust": 0, "contended": 0, "calls": 0,
                      "wire": 0}
        self._dwell = {"agg_up": 0, "agg_down": 0, "eager_down": 0,
                       "eager_up": 0, "pin": 0, "unpin": 0}
        self._cool = {"agg": 0, "eager": 0, "progress": 0}
        for loc in runtime.localities:
            pp = loc.parcelport
            pp.adapt = self.state
            if loc.parcel_layer is not None:
                loc.parcel_layer.adapt = self.state
            mpi = getattr(pp, "mpi", None)
            if mpi is not None:
                mpi.adapt = self.state
            for dev in getattr(pp, "devices", ()):
                dev.adapt = self.state
                self._has_lci = True
        runtime.sim.process(self._run(), name="adapt_controller")

    # ------------------------------------------------------------------
    # sampling

    def _signals(self) -> Dict[str, float]:
        c = self.rt.census()
        backlog = c.total("flow", "queued_parcels")
        for p in c.of("flow"):
            backlog += sum(p.gauges.get("backlog", {}).values())
        seen = {"stalls": c.total("pp", "credit_stalls"),
                "exhaust": c.total("pool", "exhaustions"),
                "contended": c.total("device", "progress_contended"),
                "calls": c.total("device", "progress_calls"),
                "wire": c.total("fabric", "msgs")}
        d = {k: v - self._seen[k] for k, v in seen.items()}
        self._seen = seen
        attempts = d["contended"] + d["calls"]
        parcels = c.total("layer", "adapt_parcels")
        return {
            "backlog": float(backlog),
            "stalls": float(d["stalls"]),
            "exhaust": float(d["exhaust"]),
            "wait_share": (d["contended"] / attempts) if attempts else 0.0,
            "wire": float(d["wire"]),
            "rx": float(c.total("nic", "rx_pending")),
            "mean_size": (c.total("layer", "adapt_bytes") / parcels
                          if parcels else 0.0),
        }

    # ------------------------------------------------------------------
    # decisions

    def _retune(self, knob: str, old: Any, new: Any) -> None:
        self.retunes[knob] = self.retunes.get(knob, 0) + 1
        if len(self.decisions) < self.spec.max_decisions:
            self.decisions.append({
                "t_us": float(self.rt.sim.now),
                "knob": knob, "old": old, "new": new,
            })

    def _bump(self, key: str, active: bool) -> None:
        self._dwell[key] = self._dwell[key] + 1 if active else 0

    def _tick(self) -> None:
        sp, st = self.spec, self.state
        self.ticks += 1
        sig = self._signals()
        for k in self._cool:
            if self._cool[k]:
                self._cool[k] -= 1

        # Aggregation hold: grow under backlog pressure or credit stalls
        # (batch harder, amortize per-message costs); shrink back toward
        # zero when the runtime drains freely.
        pressure = (sig["backlog"] >= sp.backlog_high
                    or sig["stalls"] >= sp.stall_high)
        relaxed = sig["backlog"] <= sp.backlog_low and sig["stalls"] == 0
        self._bump("agg_up", pressure)
        self._bump("agg_down", relaxed)
        if not self._cool["agg"]:
            if self._dwell["agg_up"] >= sp.dwell_ticks:
                # The first step is sized from the observed mean parcel
                # size (hold a few parcels' worth), later steps double.
                floor = max(sp.agg_hold_start, int(4 * sig["mean_size"]))
                new = (floor if st.agg_hold_bytes == 0
                       else int(st.agg_hold_bytes * sp.step))
                new = min(sp.agg_hold_max, new)
                if new != st.agg_hold_bytes:
                    self._retune("agg_hold_bytes", st.agg_hold_bytes, new)
                    st.agg_hold_bytes = new
                    self._cool["agg"] = sp.cooldown_ticks
                self._dwell["agg_up"] = 0
            elif self._dwell["agg_down"] >= sp.dwell_ticks and st.agg_hold_bytes:
                new = int(st.agg_hold_bytes / sp.step)
                if new < sp.agg_hold_start:
                    new = 0
                self._retune("agg_hold_bytes", st.agg_hold_bytes, new)
                st.agg_hold_bytes = new
                self._cool["agg"] = sp.cooldown_ticks
                self._dwell["agg_down"] = 0

        # Eager/rendezvous cutoff: packet-pool exhaustion means eager
        # sends are starving the pool -- push traffic to rendezvous by
        # shrinking the cutoff; drift back up when the pool is quiet.
        self._bump("eager_down", sig["exhaust"] >= sp.exhaust_high)
        self._bump("eager_up", sig["exhaust"] == 0)
        if not self._cool["eager"]:
            if self._dwell["eager_down"] >= sp.dwell_ticks:
                new = max(sp.eager_scale_min, st.eager_scale / sp.step)
                if new != st.eager_scale:
                    self._retune("eager_scale", st.eager_scale, new)
                    st.eager_scale = new
                    self._cool["eager"] = sp.cooldown_ticks
                self._dwell["eager_down"] = 0
            elif (self._dwell["eager_up"] >= sp.dwell_ticks
                  and st.eager_scale < sp.eager_scale_init):
                new = min(sp.eager_scale_init, st.eager_scale * sp.step)
                self._retune("eager_scale", st.eager_scale, new)
                st.eager_scale = new
                self._cool["eager"] = sp.cooldown_ticks
                self._dwell["eager_up"] = 0

        # Progress mode (LCI only; the MPI parcelport has no pinned
        # progress thread): pin when workers fight over the progress lock,
        # hand progress back to workers only when the whole system is
        # quiet.  A pinned engine shows ~zero lock contention *because*
        # the pinned thread absorbs it, so low wait-share alone must not
        # unpin — that reads success as uselessness and flaps.
        if sp.switch_progress and self._has_lci:
            self._bump("pin", sig["wait_share"] >= sp.contention_high)
            # Quiet = no new wire traffic AND nothing undrained at any
            # NIC: the rx queue is the work the pinned engine exists to
            # drain, and it keeps filling long after senders go silent.
            self._bump("unpin", sig["wait_share"] <= sp.contention_low
                       and relaxed and sig["rx"] == 0
                       and sig["wire"] <= sp.quiet_wire_msgs)
            if not self._cool["progress"]:
                if self._dwell["pin"] >= sp.dwell_ticks and not st.progress_pinned:
                    self._retune("progress_pinned", False, True)
                    st.progress_pinned = True
                    self._cool["progress"] = sp.cooldown_ticks
                    self._dwell["pin"] = 0
                elif (self._dwell["unpin"] >= sp.dwell_ticks
                      and st.progress_pinned):
                    self._retune("progress_pinned", True, False)
                    st.progress_pinned = False
                    self._cool["progress"] = sp.cooldown_ticks
                    self._dwell["unpin"] = 0

        # Flush destinations whose parcels are being held below the
        # aggregation threshold: bounds the extra latency the hold can add
        # to one controller interval.
        for loc in self.rt.localities:
            pl = loc.parcel_layer
            if pl is None:
                continue
            for dest in pl.take_held():
                pl.spawn_flush(dest)

    def _run(self):
        rt = self.rt
        sim = rt.sim
        interval = self.spec.interval_us
        while rt.running:
            yield sim.timeout(interval)
            if not rt.running:
                break
            self._tick()

    # ------------------------------------------------------------------
    # reporting

    def summary(self) -> Dict[str, float]:
        """Flat numeric summary, merged into bench result dicts."""
        st = self.state
        out = {
            "ticks": float(self.ticks),
            "retunes": float(sum(self.retunes.values())),
            "agg_hold_final": float(st.agg_hold_bytes),
            "eager_scale_final": float(st.eager_scale),
            "progress_pinned_final": 1.0 if st.progress_pinned else 0.0,
        }
        for knob, n in sorted(self.retunes.items()):
            out[f"retune.{knob}"] = float(n)
        return out
