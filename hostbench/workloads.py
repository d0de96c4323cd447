"""The benchmark's four workloads, driven through the public entry points.

Every point is built with :func:`repro.make_runtime` and driven either
with runtime actions (the message-rate points) or with one of the two
application drivers (:class:`repro.apps.serve.ServeDriver`,
:class:`repro.apps.octotiger.OctoTigerDriver`).  Nothing here goes
through the ``repro.bench`` ``run_*`` wrappers, so refactoring those
leaves the benchmark unchanged.

A point is split into three host-timed phases:

* ``build`` — construct and boot the runtime and driver (set-up);
* ``drive`` — the simulation loop (``run_until`` / driver ``run``);
* ``check`` — assemble the simulated results and assert the workload's
  invariants; a broken invariant raises :class:`InvariantError`.

The points' sizes are fixed.  The workload seed picks each point's
runtime seed, which draws serve's arrival schedule and the octree's
refinement jitter, and, for the rate points, the injector's start offset.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

__all__ = ["WORKLOADS", "Point", "InvariantError", "point_seed", "digest",
           "entry_modules"]

#: event budget of one point; far above what any point needs, so hitting
#: it means a livelock (the point fails instead of spinning forever)
MAX_EVENTS = 20_000_000


class InvariantError(AssertionError):
    """A simulated result broke one of the workload's invariants."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise InvariantError(what)


def point_seed(seed: int, workload: str, point: str) -> int:
    """The runtime seed of one point, derived from the workload seed."""
    h = hashlib.sha256(f"{seed}:{workload}:{point}".encode()).hexdigest()
    return int(h[:12], 16)


def digest(results: Dict[str, Any]) -> str:
    """Canonical digest of a point's simulated results (floats by repr)."""
    blob = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Run:
    """One built point: ``drive()`` runs it, ``check()`` returns results."""

    rt: Any
    #: application-level messages delivered, set by ``check()``
    msgs: int = 0

    def drive(self) -> None:
        raise NotImplementedError

    def check(self) -> Dict[str, Any]:
        raise NotImplementedError


@dataclass(frozen=True)
class Point:
    """One operating point of a workload."""

    name: str
    config: str
    build: Callable[["Point", int], Run]
    params: Dict[str, Any]


# ---------------------------------------------------------------------------
# message rate: a sender injects batches of fixed-size messages at an
# offered rate; the receiver answers the last one with a single ack
# ---------------------------------------------------------------------------
class _RateRun(Run):
    def __init__(self, point: Point, seed: int):
        from repro import EXPANSE, make_runtime
        p = point.params
        self.total, self.batch = p["total"], p["batch"]
        self.size, self.rate_kps = p["size"], p["rate_kps"]
        self.rt = rt = make_runtime(point.config, platform=EXPANSE,
                                    n_localities=2, seed=seed)
        # the seed also shifts the injector's start against the pollers
        self.offset_us = random.Random(seed).uniform(0.0, 5.0)
        self.sent = self.received = self.acks = self.tasks_done = 0
        self.t_inject: Optional[float] = None
        self.t_comm: Optional[float] = None
        self.failures: List[str] = []
        self.done = rt.new_future()
        rt.register_action("sink", self._sink)
        rt.register_action("ack", self._ack)
        rt.on_parcel_failure = self._on_failure
        rt.boot()
        rt.sim.process(self._injector(), name="injector")

    def _sink(self, worker, payload):
        self.received += 1
        if self.received == self.total:
            yield from worker.locality.apply(worker, 0, "ack", ())

    def _ack(self, worker):
        self.acks += 1
        if self.t_comm is None:
            self.t_comm = self.rt.sim.now
            self.done.set_result(self.t_comm)

    def _on_failure(self, parcel, exc):
        self.failures.append(f"{parcel.action}: {exc!r}")

    def _make_task(self):
        sender, size = self.rt.locality(0), self.size

        def inject(worker):
            for _ in range(self.batch):
                yield from sender.apply(worker, 1, "sink", ("data",),
                                        arg_sizes=[size])
                self.sent += 1
            self.tasks_done += 1
            if self.tasks_done * self.batch == self.total:
                self.t_inject = self.rt.sim.now
        return inject

    def _injector(self):
        sim, sender = self.rt.sim, self.rt.locality(0)
        yield sim.timeout(self.offset_us)
        interval_us = (self.batch / (self.rate_kps * 1e-3)
                       if self.rate_kps else 0.0)
        for _ in range(self.total // self.batch):
            sender.spawn(self._make_task(), name="inject")
            if interval_us:
                yield sim.timeout(interval_us)

    def drive(self) -> None:
        self.rt.run_until(self.done, max_events=MAX_EVENTS)

    def check(self) -> Dict[str, Any]:
        _require(not self.failures, f"parcels failed: {self.failures[:3]}")
        _require(self.t_inject is not None and self.t_comm is not None,
                 "run ended before every message was injected and acked")
        _require(self.sent == self.received == self.total,
                 f"sent={self.sent} received={self.received} "
                 f"expected={self.total}")
        _require(self.acks == 1, f"acks={self.acks}, expected exactly 1")
        self.msgs = self.received + self.acks
        return {"inject_time_us": self.t_inject,
                "comm_time_us": self.t_comm,
                "injection_kps": self.total / self.t_inject * 1e3,
                "message_rate_kps": self.total / self.t_comm * 1e3,
                "sent": self.sent, "received": self.received,
                "acks": self.acks}


def _rate(config: str, size: int, rate_kps: Optional[float], total: int,
          batch: int) -> Point:
    rate = f"{rate_kps:g}k" if rate_kps else "unl"
    return Point(f"{config}@{size}B/{rate}", config, _RateRun,
                 {"size": size, "rate_kps": rate_kps, "total": total,
                  "batch": batch})


# ---------------------------------------------------------------------------
# serve: open-loop RPC under shed-mode flow control with reliability acks
# (the serve_smoke settings)
# ---------------------------------------------------------------------------
class _ServeRun(Run):
    def __init__(self, point: Point, seed: int):
        from repro import EXPANSE, FlowControlPolicy, make_runtime
        from repro.apps.serve import ServeConfig, ServeDriver
        p = point.params
        flow = FlowControlPolicy(credit_window=8, max_backlog=16,
                                 max_queued_parcels=64, overflow="shed")
        self.rt = make_runtime(point.config, platform=EXPANSE,
                               n_localities=4, seed=seed, flow_policy=flow,
                               reliable=True, trace=p["trace"])
        self.driver = ServeDriver(self.rt, ServeConfig(
            offered_kps=p["offered_kps"], horizon_us=p["horizon_us"]))
        self.rt.boot()
        self.res = None

    def drive(self) -> None:
        self.res = self.driver.run(max_events=MAX_EVENTS)

    def check(self) -> Dict[str, Any]:
        r = self.res
        _require(r.offered == len(self.driver.requests) and r.offered > 0,
                 f"offered={r.offered} but "
                 f"{len(self.driver.requests)} requests were scheduled")
        accounted = (r.delivered + r.shed_requests + r.shed_responses
                     + r.failed + r.in_flight)
        _require(accounted == r.offered,
                 f"offered={r.offered} != delivered + shed + failed + "
                 f"in_flight = {accounted}")
        served = self.driver.stats.get("requests_served")
        _require(r.delivered + r.shed_responses <= served,
                 f"served={served} < delivered + shed_responses")
        self.msgs = served + r.delivered
        pct = r.percentiles()
        return {"offered": r.offered, "delivered": r.delivered,
                "shed_requests": r.shed_requests,
                "shed_responses": r.shed_responses, "failed": r.failed,
                "in_flight": r.in_flight,
                "deadline_misses": r.deadline_misses, "served": served,
                "goodput_kps": r.goodput_kps,
                "slo_attainment": r.slo_attainment, **pct}


def _serve(config: str, offered_kps: float, trace: Optional[str]) -> Point:
    return Point(f"{config}@{offered_kps:g}k", config, _ServeRun,
                 {"offered_kps": offered_kps, "horizon_us": 2000.0,
                  "trace": trace})


# ---------------------------------------------------------------------------
# octotiger: the FMM step graph of the Octo-Tiger proxy
# ---------------------------------------------------------------------------
class _OctoRun(Run):
    def __init__(self, point: Point, seed: int):
        from repro import EXPANSE, make_runtime
        from repro.apps.octotiger import OctoTigerConfig, OctoTigerDriver
        p = point.params
        self.n_localities = p["n_localities"]
        self.rt = make_runtime(point.config, platform=EXPANSE,
                               n_localities=self.n_localities, seed=seed)
        self.cfg = OctoTigerConfig.for_paper_level(p["paper_level"],
                                                   n_steps=p["n_steps"])
        self.driver = OctoTigerDriver(self.rt, self.cfg)
        self.rt.boot()
        self.res = None

    def drive(self) -> None:
        self.res = self.driver.run(max_events=MAX_EVENTS)

    def _census_from_tree(self) -> Dict[str, int]:
        """The message census recounted from the octree itself."""
        d, cfg = self.driver, self.cfg
        nodes, stack = [], [d.tree.root]
        while stack:
            n = stack.pop()
            nodes.append(n)
            stack.extend(n.children)
        leaves = [n for n in nodes if not n.children]
        _require(all(0 <= n.owner < self.n_localities for n in nodes),
                 "octree node without a valid owner")
        remote_pairs = sum(
            1 for leaf in leaves for m in d.model.neighbors[leaf.nid]
            if d.tree.node(m).owner != leaf.owner)
        m2m = sum(1 for n in nodes
                  if n.parent is not None and n.owner != n.parent.owner)
        return {"leaves": len(leaves), "interiors": len(nodes) - len(leaves),
                "boundary_msgs_per_step":
                    remote_pairs * cfg.substeps * cfg.boundary_fields,
                "m2m_msgs_per_step": m2m, "l2l_msgs_per_step": m2m}

    def check(self) -> Dict[str, Any]:
        r = self.res
        _require(len(r.step_times_us) == self.cfg.n_steps
                 and all(t > 0.0 for t in r.step_times_us),
                 f"step times {r.step_times_us}")
        census = {k: r.census[k] for k in
                  ("leaves", "interiors", "boundary_msgs_per_step",
                   "m2m_msgs_per_step", "l2l_msgs_per_step")}
        want = self._census_from_tree()
        _require(census == want, f"census {census} != octree {want}")
        self.msgs = self.cfg.n_steps * (census["boundary_msgs_per_step"]
                                        + census["m2m_msgs_per_step"]
                                        + census["l2l_msgs_per_step"])
        return {"steps_per_second": r.steps_per_second,
                "step_times_us": list(r.step_times_us), "census": census}


def _octo(config: str) -> Point:
    return Point(f"{config}@L6x8", config, _OctoRun,
                 {"n_localities": 8, "paper_level": 6, "n_steps": 1})


#: workload name -> its points, run one after another in this order
WORKLOADS: Dict[str, List[Point]] = {
    "rate_lci": [_rate(cfg, 8, rate, 1000, 100)
                 for cfg in ("lci_psr_cq_pin_i", "lci_psr_cq_mt_i",
                             "lci_psr_cq_pin")
                 for rate in (100.0, 400.0, None)],
    "rate_mpi": [_rate("mpi_i", 8, 400.0, 1000, 100),
                 _rate("mpi_i", 16384, None, 200, 10),
                 _rate("mpi", 8, None, 2000, 100)],
    "octotiger": [_octo("lci_psr_cq_pin_i"), _octo("mpi")],
    "serve": [_serve(cfg, kps, "parcel" if kps > 1000.0 else None)
              for cfg in ("lci_psr_cq_pin_i", "mpi_i")
              for kps in (50.0, 1600.0)],
}

_ENTRY_MODULES = {"serve": ["repro.apps.serve"],
                  "octotiger": ["repro.apps.octotiger"]}


def entry_modules(workload: str) -> List[str]:
    """The modules a workload imports: ``repro`` plus its app driver."""
    return ["repro"] + _ENTRY_MODULES.get(workload, [])
