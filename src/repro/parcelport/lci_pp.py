"""The LCI parcelport (§3.2): baseline and all research variants.

Variant axes (all combinations supported, cf. Table 1):

* **protocol** — ``psr`` (putsendrecv): the header travels as a one-sided
  dynamic put landing in a pre-configured completion queue; ``sr``
  (sendrecv): the header uses two-sided send/receive with one persistent
  posted receive, like the MPI parcelport.
* **completion** — ``cq``: one completion queue for all chunk completions;
  ``sy``: one synchronizer per operation, kept in a spinlock-protected
  pending list scanned round-robin (the paper's request-pool analogue).
  Header puts *always* complete into a CQ (a documented limitation of the
  current LCI put, §3.2.2).
* **progress** — ``pin``: one dedicated progress thread created through the
  HPX resource partitioner and pinned to core 0; ``worker``: every worker
  thread calls the (thread-safe, try-lock) progress function when idle.

Tag management: a distinct tag per *follow-up message* (not per
connection), because LCI does not guarantee in-order delivery (§3.2.1);
a block of ``n`` tags is drawn from the shared atomic counter per message.
"""

from __future__ import annotations

from collections import deque
from functools import cmp_to_key, reduce
from operator import add
from typing import Any, Deque, Optional, Tuple, TYPE_CHECKING

from ..hpx_rt.parcel import HpxMessage
from ..lci_sim.completion import CompletionQueue, Synchronizer
from ..lci_sim.device import LciDevice
from ..lci_sim.params import DEFAULT_LCI_PARAMS, LciParams
from ..sim.core import Simulator
from ..sim.primitives import SpinLock
from .base import Connection, DetachedWorker, Parcelport
from .config import PPConfig
from .header import plan_header
from .reliability import ACK_TAG
from .tagging import TagAllocator

if TYPE_CHECKING:  # pragma: no cover
    from ..hpx_rt.runtime import Locality

__all__ = ["LciParcelport"]

#: LCI tag reserved for header messages in the ``sr`` protocol.
HEADER_TAG = 0
#: retry backoff when the packet pool is exhausted (LCI ops never block)
RETRY_US = 1.0
#: LCI tags are wide; wraparound is effectively never exercised
LCI_MAX_TAG = 1 << 20
#: CPU cost to decode one header message
HEADER_DECODE_US = 0.20
#: CQ entries drained per background slice
CQ_POPS_PER_SLICE = 8
#: synchronizers tested per background slice (sy mode)
SYNC_SCAN_LIMIT = 8


def lazy_idle_eligible(pp: "LciParcelport") -> bool:
    """Can ``pp``'s idle workers skip their empty CQ polls as lazy
    windows (:meth:`LciParcelport._background_lazy`)?

    Only when an idle round is nothing but CQ pops: a pinned progress
    thread (workers never call progress), ``cq`` completion (no
    synchronizer scan), no reliability, flow control or adaptive
    controller; and every charge positive so chain times strictly
    increase.  The sharded engine and the frozen reference kernel run
    the step path.
    """
    return (pp.reserves_progress_core and pp.completion == "cq"
            and pp.reliability is None and pp.flow is None
            and pp.adapt is None
            and type(pp.sim) is Simulator
            and pp.locality.runtime.shard_ctx is None
            and pp.cost.background_call_us > 0
            and pp.comp_cq.params.cq_pop_us > 0)


class LciParcelport(Parcelport):
    """HPX's LCI parcelport on the simulated LCI library."""

    supports_reliability = True

    def __init__(self, locality: "Locality", config: Optional[PPConfig] = None,
                 lci_params: LciParams = DEFAULT_LCI_PARAMS):
        super().__init__(locality)
        self.config = config or PPConfig(backend="lci")
        if self.config.backend != "lci":
            raise ValueError("LciParcelport needs an lci config")
        self.protocol = self.config.protocol
        self.completion = self.config.completion
        self.reserves_progress_core = self.config.progress == "pin"
        # One or more LCI devices (num_devices > 1 implements the paper's
        # §7.2 future work: replicated network resources, each with its
        # own packet pool, matching table, progress engine and RX channel).
        self.devices = []
        self.header_cqs = []
        for d in range(max(1, lci_params.num_devices)):
            dev = LciDevice(self.sim, self.nic, rank=locality.lid,
                            params=lci_params, vchan=d)
            dev.notify = locality.sched.notify
            # Pre-configured remote completion queue for dynamic puts.
            cq = CompletionQueue(self.sim, lci_params,
                                 name=f"L{locality.lid}.hdr_cq{d}")
            dev.put_target_cq = cq
            self.devices.append(dev)
            self.header_cqs.append(cq)
        self.device = self.devices[0]
        self.header_cq = self.header_cqs[0]
        # Single completion queue for all chunk completions (cq mode).
        self.comp_cq = CompletionQueue(self.sim, lci_params,
                                       name=f"L{locality.lid}.comp_cq")
        # Pending synchronizer list (sy mode).
        self.sync_pending: Deque[Synchronizer] = deque()
        self.sync_lock = SpinLock(self.sim, f"L{locality.lid}.sync_pending",
                                  acquire_cost=self.cost.spinlock_acquire_us)
        self.tags = TagAllocator(self.sim, LCI_MAX_TAG)
        self._sys = DetachedWorker(locality, name="lci_boot")
        self._progress_worker = DetachedWorker(locality, name="lci_progress")
        for dev in self.devices:
            dev.obs = self.obs

    # ------------------------------------------------------------------
    # boot
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.protocol == "sr":
            self.sim.process(self._boot_sr(),
                             name=f"L{self.locality.lid}.lci_boot")
        if self.reliability is not None:
            self.sim.process(self._boot_ack(),
                             name=f"L{self.locality.lid}.lci_ack_boot")
        # The progress loop also boots (parked) when the adaptive
        # controller may pin progress mid-run; with adapt off the
        # condition is exactly the seed's.
        if self.reserves_progress_core or (
                self.adapt is not None and self.adapt.spec.switch_progress):
            self.sim.process(self._progress_loop(),
                             name=f"L{self.locality.lid}.lci_progress")
        if lazy_idle_eligible(self):
            # Idle rounds are pure CQ pops: workers use the lazy body.
            self._lazy_polls = (self.header_cqs if self.protocol == "psr"
                                else []) + [self.comp_cq]
            one = [self.cost.background_call_us] + [
                cq.params.cq_pop_us * 0.5 for cq in self._lazy_polls]
            #: the ops of 1 and 2 idle rounds (a call ends after two)
            self._lazy_costs = {1: one, 2: one * 2}
            #: open windows still skipping pops (dict as an ordered set)
            self._lazy_windows = {}
            self._lazy_counters = [cq.stats.counters
                                   for cq in self._lazy_polls]
            for cq in self._lazy_polls:
                cq.on_signal = self._lazy_signal
            self.background_work = self._background_lazy

    def _boot_sr(self):
        for dev in self.devices:
            yield from self._post_header_recv(self._sys, dev)

    def _boot_ack(self):
        yield from self._post_ack_recv(self._sys, self.devices[0])

    def _post_header_recv(self, worker, dev):
        """``sr`` protocol: keep exactly one header receive posted
        per device."""
        comp = self._new_completion()
        if isinstance(comp, Synchronizer):
            yield from self._register_sync(worker, comp)
        yield from dev.recvm(worker, HEADER_TAG,
                             self.cost.max_header_size, comp,
                             ctx=("header", dev.vchan))

    def _post_ack_recv(self, worker, dev):
        """Reliability: keep one end-to-end ack receive posted (device 0)."""
        comp = self._new_completion()
        if isinstance(comp, Synchronizer):
            yield from self._register_sync(worker, comp)
        yield from dev.recvm(worker, ACK_TAG,
                             self.reliability.policy.ack_bytes, comp,
                             ctx=("ack", dev.vchan))

    # ------------------------------------------------------------------
    # dedicated progress thread (the ``pin`` / ``rp`` mode)
    # ------------------------------------------------------------------
    def _progress_loop(self):
        w = self._progress_worker
        rt = self.locality.runtime
        sched = self.locality.sched
        while rt.running:
            ad = self.adapt
            if ad is not None and not ad.progress_pinned:
                # Adaptive worker mode: the pinned thread parks and the
                # workers' background_work drives progress; poll the flag
                # on the controller cadence.
                yield self.sim.timeout(ad.spec.interval_us)
                continue
            handled = 0
            for dev in self.devices:
                # split progress(): no generator built on a contended poll
                ok, val = dev.try_begin_progress("pin")
                if ok:
                    n = yield from dev._progress_body(w, val)
                    if n > 0:
                        handled += n
                else:
                    yield w.cpu(val)
            if handled:
                # Completions were pushed; make sure a worker notices.
                sched.notify()
                continue
            if self.nic.rx_pending() == 0:
                yield self.nic.arrival_event()

    # ------------------------------------------------------------------
    # completion plumbing
    # ------------------------------------------------------------------
    def _new_completion(self):
        """A completion object per the configured mechanism."""
        if self.completion == "cq":
            return self.comp_cq
        return Synchronizer()

    def _register_sync(self, worker, sync: Synchronizer):
        """sy mode: track one pending synchronizer (spinlock-guarded list)."""
        yield from worker.lock(self.sync_lock)
        self.sync_pending.append(sync)
        self.sync_lock.release()

    def _device_for(self, tag_raw: int):
        """Device selection: both ends derive it from the tag block."""
        return self.devices[tag_raw % len(self.devices)]

    # ------------------------------------------------------------------
    # packet-pool exhaustion reaction
    # ------------------------------------------------------------------
    def _pool_wait(self, worker, attempt: int):
        """Generator: wait out a pool exhaustion before retrying.

        Without a flow policy this is the seed's fixed ``RETRY_US`` spin;
        with one, consecutive exhaustions back off exponentially up to
        the policy ceiling instead of hammering a dry pool.
        """
        self.stats.inc("pool_retries")
        if self.obs is not None:
            self.obs.instant("flow", "pool_retry", loc=self.locality.lid,
                             tid=worker.name, attempt=attempt)
        fl = self.flow
        if fl is None:
            yield self.sim.timeout(RETRY_US)
            return
        if attempt > 0:
            self.stats.inc("pool_backoffs")
        yield self.sim.timeout(fl.pool_wait_us(attempt))

    # ------------------------------------------------------------------
    # send path
    # ------------------------------------------------------------------
    def send_message(self, worker, conn: Connection, msg: HpxMessage,
                     on_complete):
        cost = self.cost
        conn.reset()
        conn.msg = msg
        conn.on_complete = on_complete
        plan = plan_header(msg, cost.max_header_size, piggyback_trans=True)
        conn.plan = plan.followups
        conn.piggy_bytes = plan.piggybacked_bytes
        n = len(plan.followups)
        # Always draw a tag block: it also selects the device, which both
        # ends must agree on (the header carries the raw value).
        conn.tag_raw = yield from self.tags.draw(worker, max(1, n))
        device = self._device_for(conn.tag_raw)
        if self.obs is not None:
            self.obs.instant("msg", "send", loc=self.locality.lid,
                             tid=worker.name, mid=msg.mid, dest=msg.dest,
                             proto=self.protocol, chunks=n,
                             bytes=msg.total_bytes)
        if self.reliability is not None:
            # Fresh sends get a seq + in-flight entry; retransmits (seq
            # already set) just re-attach their entry to this connection.
            self.reliability.track(msg, conn)
            conn.seq = msg.seq
        # The header is assembled directly in an LCI-provided buffer —
        # the memcpy the MPI parcelport pays here is saved (§3.2.1).
        yield worker.cpu(cost.alloc_us)
        payload = ("hdr", msg, plan.followups, conn.tag_raw,
                   plan.piggybacked_bytes, msg.seq)
        if self.protocol == "psr":
            attempt = 0
            while True:
                ok = yield from device.putva(
                    worker, msg.dest, plan.header_size, payload=payload,
                    assembled_in_place=True)
                if ok:
                    break
                yield from self._pool_wait(worker, attempt)
                attempt += 1
                if conn.aborted:
                    return
        else:  # sr: two-sided header
            attempt = 0
            while True:
                ok = yield from device.sendm(
                    worker, msg.dest, plan.header_size, HEADER_TAG,
                    comp=None, payload=payload)
                if ok:
                    break
                yield from self._pool_wait(worker, attempt)
                attempt += 1
                if conn.aborted:
                    return
        self.stats.inc("header_sends")
        # Header is locally complete at injection; continue with chunks.
        if n == 0:
            yield from self._finish(worker, conn)
        else:
            yield from self._post_next_send(worker, conn)

    def _post_next_send(self, worker, conn: Connection):
        if conn.aborted:
            return
        device = self._device_for(conn.tag_raw)
        kind, size = conn.plan[conn.stage]
        tag = self.tags.tag(conn.tag_raw, conn.stage)
        conn.stage += 1
        comp = self._new_completion()
        conn.cur = comp
        if isinstance(comp, Synchronizer):
            yield from self._register_sync(worker, comp)
        ad = self.adapt
        eager_max = (device.params.eager_threshold if ad is None
                     else ad.eager_cutoff(device.params.eager_threshold))
        use_rendezvous = size > eager_max
        if not use_rendezvous:
            fl = self.flow
            attempt = 0
            while True:
                ok = yield from device.sendm(
                    worker, conn.dest, size, tag, comp,
                    ctx=("send", conn),
                    payload=("chunk", kind, conn.msg.mid))
                if ok:
                    break
                if fl is not None \
                        and attempt + 1 >= fl.rendezvous_fallback_after:
                    # The pool stayed dry: switch this chunk to the
                    # rendezvous path, which needs no pool packet (the
                    # receiver's posted eager receive matches the RTS).
                    self.stats.inc("eager_fallbacks")
                    if self.obs is not None:
                        self.obs.instant("msg", "eager_fallback",
                                         loc=self.locality.lid,
                                         tid=worker.name,
                                         mid=conn.msg.mid, size=size)
                    use_rendezvous = True
                    break
                yield from self._pool_wait(worker, attempt)
                attempt += 1
                if conn.aborted:
                    return
        if use_rendezvous:
            yield from device.sendl(worker, conn.dest, size, tag, comp,
                                    ctx=("send", conn),
                                    payload=("chunk", kind, conn.msg.mid))
        self.stats.inc("chunk_sends")
        if self.obs is not None:
            self.obs.instant("chunk", "posted", loc=self.locality.lid,
                             tid=worker.name, mid=conn.msg.mid, kind=kind,
                             size=size, stage=conn.stage,
                             rndv=use_rendezvous)

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def _handle_header(self, worker, payload):
        _kind, msg, followups, tag_raw, piggy_bytes, seq = payload
        yield worker.cpu(HEADER_DECODE_US)
        if not followups:
            # Deserialization reads straight out of the LCI buffer — no
            # copy-out (unlike the MPI parcelport's header path).
            yield from self._complete_receive(worker, msg, seq)
            return
        conn = Connection(msg.src, role="recv")
        conn.msg = msg
        conn.plan = list(followups)
        conn.tag_raw = tag_raw
        conn.src = msg.src
        conn.seq = seq
        if self.reliability is not None and seq is not None:
            self.reliability.watch_recv(conn)
        yield worker.cpu(self.cost.alloc_us)
        self.stats.inc("recv_connections")
        yield from self._post_next_recv(worker, conn)

    def _post_next_recv(self, worker, conn: Connection):
        if conn.aborted:
            return
        device = self._device_for(conn.tag_raw)
        kind, size = conn.plan[conn.stage]
        tag = self.tags.tag(conn.tag_raw, conn.stage)
        conn.stage += 1
        comp = self._new_completion()
        conn.cur = comp
        if isinstance(comp, Synchronizer):
            yield from self._register_sync(worker, comp)
        ad = self.adapt
        eager_max = (device.params.eager_threshold if ad is None
                     else ad.eager_cutoff(device.params.eager_threshold))
        if size <= eager_max:
            yield from device.recvm(worker, tag, size, comp,
                                    ctx=("recv", conn))
        else:
            yield from device.recvl(worker, tag, size, comp,
                                    ctx=("recv", conn))
        self.stats.inc("chunk_recvs")
        if self.obs is not None:
            self.obs.instant("chunk", "recv_posted",
                             loc=self.locality.lid, tid=worker.name,
                             mid=conn.msg.mid, kind=kind, size=size,
                             stage=conn.stage)

    # ------------------------------------------------------------------
    # completion dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, worker, entry: Tuple):
        """Advance whatever a completion entry belongs to."""
        what = entry[0]
        if what == "put":
            # ("put", ctx, payload, size) — header arrival (psr)
            _w, _ctx, payload, _size = entry
            yield from self._handle_header(worker, payload)
            self.stats.inc("headers_received")
            return
        if what == "send":
            # ("send", ("send", conn)) — a chunk send completed
            _w, ctx = entry
            conn = ctx[1]
            if conn.aborted:
                # Chain withdrawn by the reliability layer; a late local
                # completion must not advance (or recycle) it.
                self.stats.inc("aborted_completions")
                return
            if conn.finished_chunks:
                yield from self._finish(worker, conn)
            else:
                yield from self._post_next_send(worker, conn)
            return
        if what == "recv":
            ctx = entry[1]
            if isinstance(ctx, tuple) and ctx[0] == "header":
                # sr-protocol header arrived: repost, then decode.
                payload = entry[2]
                yield from self._post_header_recv(worker,
                                                  self.devices[ctx[1]])
                yield from self._handle_header(worker, payload)
                self.stats.inc("headers_received")
                return
            if isinstance(ctx, tuple) and ctx[0] == "ack":
                # End-to-end ack arrived: stop tracking, repost.
                payload = entry[2]
                self.reliability.on_ack(payload[1])
                yield from self._post_ack_recv(worker, self.devices[ctx[1]])
                return
            conn = ctx[1]
            if conn.aborted:
                self.stats.inc("aborted_completions")
                return
            if conn.finished_chunks:
                if self.reliability is not None:
                    self.reliability.unwatch_recv(conn)
                yield from self._complete_receive(worker, conn.msg, conn.seq)
            else:
                if self.reliability is not None and conn.seq is not None:
                    self.reliability.touch_recv(conn)
                yield from self._post_next_recv(worker, conn)
            return
        if what == "error":
            # ("error", ctx, reason) — an op completed with error status
            # (corrupted message matched it).  Recovery is sender-driven:
            # repost persistent receives, abandon chunk chains and let the
            # retransmission timer resend the whole message.
            _w, ctx, _reason = entry
            self.stats.inc("comp_errors")
            if isinstance(ctx, tuple) and ctx[0] == "header":
                yield from self._post_header_recv(worker,
                                                  self.devices[ctx[1]])
                return
            if isinstance(ctx, tuple) and ctx[0] == "ack":
                yield from self._post_ack_recv(worker, self.devices[ctx[1]])
                return
            if isinstance(ctx, tuple) and ctx[0] == "recv":
                conn = ctx[1]
                if not conn.aborted:
                    conn.aborted = True
                    if self.reliability is not None:
                        self.reliability.unwatch_recv(conn)
                return
            if isinstance(ctx, tuple) and ctx[0] == "send":
                conn = ctx[1]
                if self.reliability is not None and conn.msg is not None:
                    self.reliability.expedite(conn.msg.seq)
                return
            return
        raise ValueError(f"unknown completion entry {entry!r}")

    # ------------------------------------------------------------------
    # reliability hooks (active only under fault injection)
    # ------------------------------------------------------------------
    def _send_ack(self, worker, dst: int, seq: int):
        """End-to-end ack: a small two-sided eager send on device 0."""
        device = self.devices[0]
        size = self.reliability.policy.ack_bytes
        attempt = 0
        while True:
            ok = yield from device.sendm(worker, dst, size, ACK_TAG,
                                         comp=None, payload=("ack", seq))
            if ok:
                break
            yield from self._pool_wait(worker, attempt)
            attempt += 1
        self.stats.inc("ack_sends")

    def _abort_send_conn(self, worker, conn: Connection):
        super()._abort_send_conn(worker, conn)
        # A pending synchronizer for the withdrawn op would otherwise sit
        # in sync_pending forever (sy mode); mark it for discard.
        if isinstance(conn.cur, Synchronizer):
            conn.cur.cancelled = True
        return None

    def _abort_recv_conn(self, worker, conn: Connection):
        conn.aborted = True
        if self.reliability is not None:
            self.reliability.unwatch_recv(conn)
        if conn.stage > 0 and conn.cur is not None:
            # Withdraw the posted receive for the current stage.
            device = self._device_for(conn.tag_raw)
            tag = self.tags.tag(conn.tag_raw, conn.stage - 1)
            device.cancel_recv(tag, conn.cur)
            if isinstance(conn.cur, Synchronizer):
                conn.cur.cancelled = True
        return None

    # ------------------------------------------------------------------
    # background work (§3.2.1 "Threads and background work")
    # ------------------------------------------------------------------
    def background_work(self, worker, rounds=None):
        """Generator → bool: up to ``poll_rounds`` background slices.

        The round body is :meth:`_background_once` inlined — one generator
        for the whole call instead of one per round — with the sub-polls
        that yield nothing and charge nothing when idle (sync scan, flow
        pump) elided at the call site, so idle polling stops churning
        generator objects while the event schedule stays bit-identical.
        """
        did_any = False
        idle_rounds = 0
        for _ in range(rounds if rounds is not None else self.poll_rounds):
            yield worker.cpu(self.cost.background_call_us)
            did = False
            ad = self.adapt
            pinned = (self.reserves_progress_core if ad is None
                      else ad.progress_pinned)
            if not pinned:
                # worker-progress mode: idle threads drive the LCI
                # engines (split progress(): a contended poll charges its
                # try-lock cost without building a generator)
                for dev in self.devices:
                    ok, val = dev.try_begin_progress(id(worker))
                    if ok:
                        n = yield from dev._progress_body(worker, val)
                        if n > 0:
                            did = True
                    else:
                        yield worker.cpu(val)
            # Drain header completions (always a CQ — LCI put limitation).
            if self.protocol == "psr":
                for cq in self.header_cqs:
                    for _ in range(CQ_POPS_PER_SLICE):
                        entry, pop_cost = cq.pop()
                        yield worker.cpu(pop_cost)
                        if entry is None:
                            break
                        yield from self._dispatch(worker, entry)
                        did = True
            # Drain chunk completions.
            if self.completion == "cq":
                for _ in range(CQ_POPS_PER_SLICE):
                    entry, pop_cost = self.comp_cq.pop()
                    yield worker.cpu(pop_cost)
                    if entry is None:
                        break
                    yield from self._dispatch(worker, entry)
                    did = True
            elif self.sync_pending:
                did = (yield from self._scan_syncs(worker)) or did
            if self.reliability is not None:
                did = (yield from self._reliability_poll(worker)) or did
            if self.flow is not None and (self._backlog_total
                                          or self._accept_waiters):
                did = (yield from self._flow_pump(worker)) or did
            if did:
                did_any = True
                idle_rounds = 0
            else:
                idle_rounds += 1
                if idle_rounds >= 2:
                    break
        return did_any

    def _background_lazy(self, worker, rounds=None):
        """Generator → bool: :meth:`background_work` for configurations
        passing :func:`lazy_idle_eligible`, with lazy idle rounds.

        A round is the round-top charge plus up to ``CQ_POPS_PER_SLICE``
        pops of each polled CQ, as in :meth:`background_work`.  When a
        round starts with every polled CQ empty, the call's remaining idle
        rounds are fully determined: they become one heap record (a
        :class:`repro.sim.core.LazyWindow`) at the time the step path
        would end them, with their charges and pop counters replayed when
        it fires.  A signal on a polled CQ in between may materialize the
        window (:meth:`_lazy_signal`): the worker then resumes at its
        first pop after the signal.
        """
        polls = self._lazy_polls
        sim = self.sim
        did_any = False
        idle_rounds = 0
        left = rounds if rounds is not None else self.poll_rounds
        while left > 0:
            pos = 0
            window = None
            for cq in polls:
                if cq._items:
                    break
            else:
                span = 2 - idle_rounds if left > 1 else 1
                costs = self._lazy_costs[span]
                window = sim.lazy_open(
                    (self, worker, costs, sim.active_process))
            if window is not None:
                self._lazy_windows[window] = None
                op = yield window
                sim.lazy_close(window)
                if op is None:
                    if window in self._lazy_windows:
                        # never materialized: apply every op at once
                        del self._lazy_windows[window]
                        accum = worker.stats.accum
                        accum["cpu_us"] = reduce(add, costs, accum["cpu_us"])
                        for counters in self._lazy_counters:
                            counters["pops"] += span
                            counters["empty_pops"] += span
                    self.stats.counters["idle_rounds_elided"] += span
                    return did_any
                # Resume at op ``op``: a round top, or the pop of
                # ``polls[pos - 1]`` in a round already charged.
                skipped, pos = divmod(op, len(polls) + 1)
                if skipped:
                    self.stats.counters["idle_rounds_elided"] += skipped
                    idle_rounds += skipped
                    left -= skipped
                if pos == 0:
                    continue
            if pos == 0:
                yield worker.cpu(self.cost.background_call_us)
            did = False
            for i in range(max(pos - 1, 0), len(polls)):
                cq = polls[i]
                for _ in range(CQ_POPS_PER_SLICE):
                    entry, pop_cost = cq.pop()
                    yield worker.cpu(pop_cost)
                    if entry is None:
                        break
                    yield from self._dispatch(worker, entry)
                    did = True
            if did:
                did_any = True
                idle_rounds = 0
            else:
                idle_rounds += 1
                if idle_rounds >= 2:
                    break
            left -= 1
        return did_any

    # -- lazy windows (owner protocol of repro.sim.core.LazyWindow) ------
    # A window's ops ``0 .. len(costs) - 1`` are the step path's charges
    # in order: per round, the round-top ``background_call_us`` then one
    # empty pop of each polled CQ.  Op ``o`` runs while chain record ``o``
    # is processed (record 0 is the event that opened the window); record
    # ``len(costs)`` ends the call.  ``window.ctx`` is the worker.
    def lazy_settle(self, window, point: tuple) -> None:
        """Materialize ``window`` because the run returns at ``point``."""
        if window in self._lazy_windows:
            self._materialize(window,
                              self.sim.lazy_count_before(window, point))

    def _materialize(self, window, k: int) -> None:
        """Put ``window`` back on the step path after its op ``k``: apply
        ops ``0 .. k`` — the worker's ``cpu_us`` adds one by one, in order
        (float sums are order-sensitive), and each pop's CQ counters — and
        resume the worker at op ``k + 1``."""
        del self._lazy_windows[window]
        costs = window.costs
        accum = window.ctx.stats.accum
        accum["cpu_us"] = reduce(add, costs[:k + 1], accum["cpu_us"])
        width = len(self._lazy_polls) + 1
        for o in range(1, k + 1):
            pos = o % width
            if pos:
                counters = self._lazy_counters[pos - 1]
                counters["pops"] += 1
                counters["empty_pops"] += 1
        self.stats.inc("lazy_materialized")
        if k + 1 < len(costs):
            self.sim.lazy_resume_at(window, k + 1, k + 1)

    def _lazy_signal(self, cq: CompletionQueue) -> None:
        """``cq`` is about to get an entry: materialize every skipping
        worker that could see it.

        The next ``len(cq) + 1`` pops of ``cq`` take every entry it holds.
        While the other polled CQs are empty, a materialized window pops
        ``cq`` exactly when its skipped pop was due (nothing to dispatch
        on the way), so only the windows whose pops of ``cq`` come first
        in step-path order need to leave; the rest would find it drained.
        Otherwise all of them do.
        """
        windows = self._lazy_windows
        if not windows:
            return
        sim = self.sim
        point = sim.lazy_point()
        polls = self._lazy_polls
        col = polls.index(cq) + 1
        width = len(polls) + 1
        selective = all(other is cq or not other._items for other in polls)
        first = []
        for window in windows:
            k = sim.lazy_count_before(window, point)
            o = k + 1 + (col - k - 1) % width
            if o < len(window.costs) or not selective:
                first.append((window, o, k))
        need = len(cq) + 1
        if selective and len(first) > need:
            first.sort(key=cmp_to_key(
                lambda a, b: -1 if sim.lazy_before(a[:2], b[:2]) else 1))
            del first[need:]
        for window, _o, k in first:
            self._materialize(window, k)

    def lazy_tie(self, window) -> None:
        self.stats.inc("lazy_ties_resolved")

    def _background_once(self, worker):
        """One unguarded background round (the seed shape: every sub-poll
        delegated unconditionally).  :meth:`background_work` inlines this
        body; the frozen reference loop (repro.bench.seedpaths) still
        drives it round-by-round."""
        yield worker.cpu(self.cost.background_call_us)
        did = False
        if not self.reserves_progress_core:
            # worker-progress mode: idle threads drive the LCI engines
            for dev in self.devices:
                n = yield from dev.progress(worker, caller=id(worker))
                if n > 0:
                    did = True
        # Drain header completions (always a CQ — LCI put limitation).
        if self.protocol == "psr":
            for cq in self.header_cqs:
                for _ in range(CQ_POPS_PER_SLICE):
                    entry, pop_cost = cq.pop()
                    yield worker.cpu(pop_cost)
                    if entry is None:
                        break
                    yield from self._dispatch(worker, entry)
                    did = True
        # Drain chunk completions.
        if self.completion == "cq":
            for _ in range(CQ_POPS_PER_SLICE):
                entry, pop_cost = self.comp_cq.pop()
                yield worker.cpu(pop_cost)
                if entry is None:
                    break
                yield from self._dispatch(worker, entry)
                did = True
        else:
            did = (yield from self._scan_syncs(worker)) or did
        if self.reliability is not None:
            did = (yield from self._reliability_poll(worker)) or did
        if self.flow is not None:
            did = (yield from self._flow_pump(worker)) or did
        return did

    def _scan_syncs(self, worker):
        """sy mode: round-robin test the pending synchronizer list.

        The scan happens *while holding* the pending-list spinlock (as the
        HPX pending-connection scan does) — this serialization across
        worker threads is precisely the request-pool overhead that makes
        ``sy`` trail ``cq`` by 25-30 % in Figs 5/6.
        """
        if not self.sync_pending:
            return False
        t0 = self.sim.now
        yield self.sync_lock.acquire()       # inlined worker.lock()
        worker.lock_acquired(self.sync_lock, t0)
        did = False
        ready = []
        keep = []
        for _ in range(min(SYNC_SCAN_LIMIT, len(self.sync_pending))):
            sync = self.sync_pending.popleft()
            if sync.cancelled:
                # Its op was withdrawn (aborted chain): drop silently —
                # this is the leak the reliability layer would otherwise
                # cause in the pending list.
                self.stats.inc("syncs_cancelled")
                continue
            yield worker.cpu(self.device.params.sync_test_us)
            if sync.test():
                ready.append(sync)
            else:
                keep.append(sync)
        self.sync_pending.extend(keep)
        self.sync_lock.release()
        for sync in ready:
            did = True
            yield from self._dispatch(worker, sync.value)
        return did
