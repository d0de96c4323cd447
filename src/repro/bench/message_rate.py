"""Message-rate microbenchmark (§4.1, Figs 1–6).

A sender locality attempts to create tasks at a fixed rate; each task
injects a batch of fixed-size messages (action invocations) to the
receiver.  The receiver waits for all messages and then signals back with
one short message.  We measure

* **achieved injection rate** — messages / time-to-generate-all-tasks
  (a task counts as generated once it has handed its parcels to the
  network stack), and
* **achieved message rate** — messages / time-until-all-received
  (including the final ack, as in the paper).

Rates are reported in K messages/s of *virtual* time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from ..hpx_rt.platform import EXPANSE, PlatformSpec
from .runner import RunResult, Workload

__all__ = ["MessageRateParams", "MessageRateResult", "WORKLOAD"]


@dataclass(frozen=True)
class MessageRateParams:
    """Workload parameters (paper defaults scaled down; see DESIGN.md)."""

    msg_size: int = 8
    batch: int = 100          #: messages injected per task (paper: 100 / 10)
    total_msgs: int = 10000   #: paper: 500 K (8 B) / 100 K (16 KiB)
    #: attempted injection rate in K msgs/s; None = unlimited
    inject_rate_kps: Optional[float] = None
    platform: PlatformSpec = EXPANSE
    max_events: int = 30_000_000

    def with_(self, **kw) -> "MessageRateParams":
        return replace(self, **kw)


@dataclass
class MessageRateResult(RunResult):
    inject_time_us: float
    comm_time_us: float
    total_msgs: int
    #: messages reported failed after exhausting retries (faults only)
    failed_msgs: int = 0

    @property
    def achieved_injection_kps(self) -> float:
        """K messages per second of injection (paper's x axis)."""
        return self.total_msgs / self.inject_time_us * 1e3

    @property
    def message_rate_kps(self) -> float:
        """K messages per second received (paper's y axis)."""
        return self.total_msgs / self.comm_time_us * 1e3

    def workload_dict(self) -> Dict[str, float]:
        out = {
            "achieved_injection_kps": self.achieved_injection_kps,
            "message_rate_kps": self.message_rate_kps,
        }
        # Keep the fault-free dict exactly as before (byte-identical
        # reporting); the failure count appears only when a plan was active.
        if self.faults or self.failed_msgs:
            out["failed_msgs"] = float(self.failed_msgs)
        return out


def drive(rt, p: MessageRateParams) -> MessageRateResult:
    """One full message-rate run on a built runtime.

    Under faults, messages may be dropped/corrupted and the parcelport
    retransmits them; messages that exhaust their retries are counted as
    failed and the benchmark still terminates (no hang).  Under flow
    control, senders are throttled (or shed) instead of growing unbounded
    queues when the receiver falls behind.
    """
    n_tasks, rem = divmod(p.total_msgs, p.batch)
    if rem:
        raise ValueError("total_msgs must be a multiple of batch")
    sim = rt.sim
    state = {"received": 0, "failed": 0, "tasks_done": 0,
             "t_inject": None, "t_comm": None}
    done = rt.new_future()

    def finish():
        if state["t_comm"] is None:
            state["t_comm"] = sim.now
            done.set_result(sim.now)

    def sink(worker, payload):
        state["received"] += 1
        if state["received"] + state["failed"] == p.total_msgs:
            # Receiver signals back with one short message.
            yield from worker.locality.apply(worker, 0, "ack", ())

    def ack(worker):
        finish()
        return None

    rt.register_action("sink", sink)
    rt.register_action("ack", ack)

    if rt.fault_plan is not None or rt.flow_policy is not None:
        def on_fail(parcel, exc):
            if parcel.action == "sink":
                state["failed"] += 1
                if state["received"] + state["failed"] == p.total_msgs:
                    # Every message is accounted for, but the receiver can
                    # no longer see the full count — finish from here.
                    finish()
            else:
                # The final ack round itself failed.
                finish()
        rt.on_parcel_failure = on_fail

    sender = rt.locality(0)
    size = p.msg_size

    def make_task():
        def inject(worker):
            for _ in range(p.batch):
                yield from sender.apply(worker, 1, "sink", ("data",),
                                        arg_sizes=[size])
            state["tasks_done"] += 1
            if state["tasks_done"] == n_tasks:
                state["t_inject"] = sim.now
        return inject

    def injector():
        if p.inject_rate_kps:
            # messages/µs -> one task per (batch / rate) µs
            interval_us = p.batch / (p.inject_rate_kps * 1e-3)
        else:
            interval_us = 0.0
        for i in range(n_tasks):
            sender.spawn(make_task(), name="inject")
            if interval_us:
                yield sim.timeout(interval_us)
        if False:  # pragma: no cover - keeps this a generator when rate=None
            yield

    rt.boot()
    sim.process(injector(), name="injector")
    rt.run_until(done, max_events=p.max_events)
    assert state["t_inject"] is not None and state["t_comm"] is not None
    return MessageRateResult(inject_time_us=state["t_inject"],
                             comm_time_us=state["t_comm"],
                             total_msgs=p.total_msgs,
                             failed_msgs=state["failed"])


WORKLOAD = Workload(MessageRateParams, drive,
                    lambda p, flow: {"n_localities": 2})
