"""The LCI device: endpoint, hashed matching table, try-lock progress engine.

One device per locality (the paper's future-work section notes exactly this
"one LCI device per process" design and its contention consequences).

Communication primitives (all non-blocking generators, worker context):

* :meth:`LciDevice.sendm` / :meth:`LciDevice.recvm` — two-sided medium
  (eager) messages through the packet pool;
* :meth:`LciDevice.sendl` / :meth:`LciDevice.recvl` — two-sided long
  messages via an RTS/CTS rendezvous, zero-copy;
* :meth:`LciDevice.putva` — one-sided dynamic put: the target buffer is
  allocated by the LCI runtime on arrival and an entry is pushed to the
  device's pre-configured completion queue (``put_target_cq``).

The progress engine (:meth:`progress`) uses a try lock — concurrent callers
fail fast — and its per-message handling cost inflates with the number of
*distinct recent callers* (cache-cold progress state) and concurrent-caller
pressure, per the paper's profiling of the ``mt`` configurations.
"""

from __future__ import annotations

import itertools
from collections import defaultdict, deque
from typing import Any, Deque, Dict, Optional

from ..netsim.message import NetMsg
from ..netsim.nic import Nic
from ..obs.spans import payload_mid
from ..sim.core import Simulator
from ..sim.primitives import ContentionMeter, TryLock
from ..sim.stats import StatSet
from .completion import CompletionQueue, Synchronizer
from .packet_pool import PacketPool
from .params import DEFAULT_LCI_PARAMS, LciParams

__all__ = ["LciDevice", "LciOp"]

_op_ids = itertools.count()


class LciOp:
    """State of one pending LCI operation (send or receive)."""

    __slots__ = ("kind", "peer", "size", "tag", "comp", "ctx", "oid",
                 "payload")

    def __init__(self, kind: str, peer: int, size: int, tag: int,
                 comp, ctx: Any = None, payload: Any = None):
        self.kind = kind        # "sendm"|"sendl"|"recvm"|"recvl"
        self.peer = peer
        self.size = size
        self.tag = tag
        self.comp = comp
        self.ctx = ctx
        self.payload = payload
        self.oid = next(_op_ids)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LciOp#{self.oid} {self.kind} tag={self.tag} {self.size}B>"


class _CallerMeter:
    """Counts distinct progress callers seen within a sliding window."""

    __slots__ = ("window_us", "_last_seen")

    def __init__(self, window_us: float):
        self.window_us = window_us
        self._last_seen: Dict[Any, float] = {}

    def touch(self, caller: Any, now: float) -> int:
        """Record a call; return the number of distinct recent callers
        (including this one)."""
        last_seen = self._last_seen
        last_seen[caller] = now
        if len(last_seen) == 1:
            # Single caller (the pinned-progress-thread case): it was
            # just touched, so it is trivially within the window.
            return 1
        horizon = now - self.window_us
        if len(last_seen) > 64:  # prune stale entries
            self._last_seen = last_seen = {
                c: t for c, t in last_seen.items() if t >= horizon}
        # C-level count of entries within the window (t >= horizon); this
        # runs on every progress call, so no Python-level loop here.
        return sum(map(horizon.__le__, last_seen.values()))


class LciDevice:
    """One locality's LCI endpoint."""

    def __init__(self, sim: Simulator, nic: Nic, rank: int,
                 params: LciParams = DEFAULT_LCI_PARAMS, vchan: int = 0):
        self.sim = sim
        self.nic = nic
        self.rank = rank
        self.params = params
        #: virtual channel: one per device, so multi-device endpoints
        #: (§7.2 future work) get independent RX queues and progress state
        self.vchan = vchan
        nic.ensure_vchans(vchan + 1)
        # The pool consults the fault injector (if any) for pool-squeeze
        # windows — registered-memory pressure is a per-node fault.
        injector = nic.fabric.injector if nic.fabric is not None else None
        self.pool = PacketPool(sim, params, name=f"lci{rank}.d{vchan}.pool",
                               injector=injector, node=rank)
        self.progress_lock = TryLock(sim, f"lci{rank}.d{vchan}.progress",
                                     fail_cost=params.trylock_fail_us)
        #: hashed matching table: tag -> posted receive ops (FIFO)
        self._posted: Dict[int, Deque[LciOp]] = defaultdict(deque)
        #: hashed unexpected store: tag -> arrived-but-unmatched messages
        self._unexpected: Dict[int, Deque[NetMsg]] = defaultdict(deque)
        #: completion queue for incoming dynamic puts (pre-configured —
        #: the paper notes puts can currently *only* complete into a CQ)
        self.put_target_cq: Optional[CompletionQueue] = None
        self._callers = _CallerMeter(params.caller_window_us)
        self._last_caller: Any = None
        #: matching-table pressure: worker threads posting receives contend
        #: with the progress engine on the match buckets (§4.1's "overhead
        #: of posting receives and matching sends to receives")
        self._match_meter = ContentionMeter(tau_us=params.match_window_us)
        self.stats = StatSet(f"lci{rank}")
        #: optional callable invoked after timer-driven completion signals
        #: (long-send local completions) so idle consumers wake promptly.
        self.notify = None
        #: span recorder (None => tracing off, zero overhead)
        self.obs = None
        #: adaptive state (repro.adapt); None keeps the configured
        #: thresholds — set by the AdaptiveController when adaptation is on
        self.adapt = None

    # ------------------------------------------------------------------
    # send-side primitives (generators, worker context)
    # ------------------------------------------------------------------
    def sendm(self, worker, dst: int, size: int, tag: int, comp,
              ctx: Any = None, payload: Any = None):
        """Generator → bool. Medium eager send; False = pool empty, retry.

        Completes *locally* at injection: the data was copied into a
        registered packet, so the user buffer is immediately reusable.
        """
        p = self.params
        yield worker.cpu(p.pool_op_us)
        if not self.pool.try_acquire():
            return False
        yield worker.cpu(size * p.memcpy_per_byte_us)  # copy into packet
        post_cost = self.nic.post_send(NetMsg(
            src=self.rank, dst=dst, size=size + p.wire_header_bytes,
            kind="lci_medium", tag=tag, payload=(payload, ctx),
            vchan=self.vchan))
        yield worker.cpu(post_cost)
        self.pool.release_at(self.nic.tx.busy_until - self.sim.now)
        if comp is not None:
            yield worker.cpu(comp.signal_cost_us)
            comp.signal(("send", ctx))
        self.stats.inc("sendm")
        return True

    def putva(self, worker, dst: int, size: int, ctx: Any = None,
              payload: Any = None, assembled_in_place: bool = False):
        """Generator → bool. One-sided dynamic put (the ``psr`` header path).

        With ``assembled_in_place`` the caller built the message directly
        in the LCI packet (the parcelport's trick in §3.2.1), skipping the
        copy that :meth:`sendm` pays.
        """
        p = self.params
        yield worker.cpu(p.pool_op_us)
        if not self.pool.try_acquire():
            return False
        if not assembled_in_place:
            yield worker.cpu(size * p.memcpy_per_byte_us)
        post_cost = self.nic.post_send(NetMsg(
            src=self.rank, dst=dst, size=size + p.wire_header_bytes,
            kind="lci_put", tag=None, payload=(payload, ctx, size),
            vchan=self.vchan))
        yield worker.cpu(post_cost)
        self.pool.release_at(self.nic.tx.busy_until - self.sim.now)
        self.stats.inc("putva")
        return True

    def sendl(self, worker, dst: int, size: int, tag: int, comp,
              ctx: Any = None, payload: Any = None):
        """Generator → True. Long (rendezvous) send, zero-copy.

        ``comp`` signals once the target has pulled the data and the
        source buffer is reusable.
        """
        p = self.params
        op = LciOp("sendl", dst, size, tag, comp, ctx, payload)
        post_cost = self.nic.post_send(NetMsg(
            src=self.rank, dst=dst, size=p.wire_header_bytes,
            kind="lci_rts", tag=tag, payload=op, vchan=self.vchan))
        yield worker.cpu(post_cost)
        self.stats.inc("sendl")
        return True

    # ------------------------------------------------------------------
    # receive-side primitives
    # ------------------------------------------------------------------
    def _pop_unexpected(self, tag: int) -> Optional[NetMsg]:
        bucket = self._unexpected.get(tag)
        if not bucket:
            return None
        msg = bucket.popleft()
        if not bucket:
            del self._unexpected[tag]
        return msg

    def recvm(self, worker, tag: int, size: int, comp, ctx: Any = None):
        """Generator. Post a medium receive (hash-bucket matching).

        The check-unexpected / insert-posted step mutates the matching
        table *atomically* (at one simulation instant, before any cost is
        charged) — the bucket lock in real LCI guarantees exactly this, and
        yielding in between would let a concurrent progress call miss the
        receive both ways.
        """
        p = self.params
        self._match_meter.touch(self.sim.now)
        msg = self._pop_unexpected(tag)
        if msg is None:
            op = LciOp("recvm", -1, size, tag, comp, ctx)
            self._posted[tag].append(op)
            self.stats.inc("recvm_posted")
            yield worker.cpu(p.match_lookup_us + p.match_insert_us)
            return
        if msg.kind == "lci_rts":
            # An eager→rendezvous fallback sender (pool exhaustion) beat
            # this receive post: answer the buffered RTS with a CTS, the
            # data then completes this op exactly like a matched medium.
            op = LciOp("recvm", -1, size, tag, comp, ctx)
            self.stats.inc("recvm_rndv_matched")
            yield worker.cpu(p.match_lookup_us)
            yield from self._send_cts(worker, msg.src, msg.payload, op)
            return
        self.stats.inc("recvm_unexpected")
        # copy from the retained packet into the user buffer, free packet
        yield worker.cpu(p.match_lookup_us + p.unexpected_handling_us * 0.5)
        yield worker.cpu(msg.size * p.memcpy_per_byte_us)
        yield worker.cpu(comp.signal_cost_us)
        payload, sctx = msg.payload
        comp.signal(("recv", ctx, payload))

    def recvl(self, worker, tag: int, size: int, comp, ctx: Any = None):
        """Generator. Post a long receive; answers a buffered RTS if any.

        Same atomic check+insert discipline as :meth:`recvm`.
        """
        p = self.params
        self._match_meter.touch(self.sim.now)
        op = LciOp("recvl", -1, size, tag, comp, ctx)
        msg = self._pop_unexpected(tag)
        if msg is None:
            self._posted[tag].append(op)
            self.stats.inc("recvl_posted")
            yield worker.cpu(p.match_lookup_us + p.match_insert_us)
            return
        self.stats.inc("recvl_unexpected")
        yield worker.cpu(p.match_lookup_us)
        yield from self._send_cts(worker, msg.src, msg.payload, op)

    # ------------------------------------------------------------------
    # progress engine
    # ------------------------------------------------------------------
    def progress(self, worker, caller: Any):
        """Generator → int: messages handled, or -1 if the try-lock failed.

        ``caller`` identifies the calling thread for the cache-locality
        model: a pinned progress thread keeps a constant caller id and
        stays cache-hot; alternating worker threads pay the switch
        penalty and contention inflation.
        """
        ok, val = self.try_begin_progress(caller)
        if not ok:
            yield worker.cpu(val)
            return -1
        return (yield from self._progress_body(worker, val))

    def try_begin_progress(self, caller: Any):
        """Non-generator head of :meth:`progress`: cache-model touch plus
        the engine try-lock.  Returns ``(False, trylock_fail_us)`` when
        contended — the caller charges that and moves on without ever
        building a progress generator (the mt-mode event storm) — or
        ``(True, mult)`` with the lock HELD, in which case the caller must
        drive :meth:`_progress_body` to completion."""
        p = self.params
        pressure = self._callers.touch(caller, self.sim.now)
        if not self.progress_lock.try_acquire():
            self.stats.inc("progress_contended")
            return False, p.trylock_fail_us
        mult = 1.0 + p.contention_factor * max(0, pressure - 1)
        if caller != self._last_caller:
            mult += p.caller_switch_penalty
            self._last_caller = caller
        return True, min(mult, p.max_contention_mult)

    def _progress_body(self, worker, mult: float):
        """Generator → int: the locked section of :meth:`progress`."""
        p = self.params
        self.stats.inc("progress_calls")
        t0 = self.sim.now
        yield worker.cpu(p.progress_base_us * mult)
        handled = 0
        try:
            for _ in range(p.progress_batch):
                msg = self.nic.poll_rx(self.vchan)
                if msg is None:
                    break
                yield worker.cpu(self.nic.params.rx_overhead_us * mult)
                if self.obs is not None:
                    mid, part = payload_mid(msg.kind, msg.payload)
                    self.obs.instant("progress", "poll", loc=self.rank,
                                     tid=worker.name, msg_id=msg.msg_id,
                                     mid=mid, part=part, kind=msg.kind,
                                     rx_wait=self.sim.now - msg.arrive_t)
                yield from self._dispatch(worker, msg, mult)
                handled += 1
        finally:
            self.progress_lock.release()
        if self.obs is not None:
            self.obs.complete("progress", "lci", t0, self.sim.now,
                              loc=self.rank, tid=worker.name,
                              handled=handled, vchan=self.vchan)
        if handled:
            self.stats.inc("msgs_progressed", handled)
        return handled

    def _dispatch(self, worker, msg: NetMsg, mult: float):
        p = self.params
        kind = msg.kind
        if msg.corrupted:
            yield from self._dispatch_corrupted(worker, msg, mult)
            return
        # Two-sided traffic contends with worker-side receive posts on the
        # matching table; one-sided puts bypass it entirely.
        match_mult = mult * (1.0 + p.match_contention_factor
                             * self._match_meter.pressure(self.sim.now))
        if kind == "lci_medium":
            # Match-or-stash is atomic (one sim instant); costs follow.
            op = self._pop_posted(msg.tag)
            if op is None:
                self._unexpected[msg.tag].append(msg)
                self.stats.inc("medium_unexpected")
            yield worker.cpu((p.medium_dispatch_us + p.match_lookup_us)
                             * match_mult)
            if op is not None:
                yield worker.cpu(msg.size * p.memcpy_per_byte_us)
                yield worker.cpu(op.comp.signal_cost_us * mult)
                payload, sctx = msg.payload
                op.comp.signal(("recv", op.ctx, payload))
                self.stats.inc("medium_matched")
            else:
                yield worker.cpu(p.unexpected_handling_us * match_mult)
        elif kind == "lci_put":
            yield worker.cpu(p.put_dispatch_us * mult)
            yield worker.cpu(p.alloc_us * mult)   # dynamic target buffer
            cq = self.put_target_cq
            if cq is None:
                raise RuntimeError(
                    f"lci{self.rank}: dynamic put arrived but no "
                    "pre-configured completion queue is set")
            payload, ctx, size = msg.payload
            yield worker.cpu(cq.signal_cost_us * mult)
            cq.signal(("put", ctx, payload, size))
            self.stats.inc("puts_delivered")
        elif kind == "lci_rts":
            # Match-or-stash is atomic (one sim instant); costs follow.
            # Any posted-receive kind matches: a recvm is a legitimate
            # partner when the sender fell back from eager to rendezvous
            # on pool exhaustion (its completion shape is identical).
            op = self._pop_posted(msg.tag)
            if op is None:
                self._unexpected[msg.tag].append(msg)
                self.stats.inc("rts_unexpected")
            yield worker.cpu((p.rndv_dispatch_us + p.match_lookup_us)
                             * match_mult)
            if op is not None:
                yield from self._send_cts(worker, msg.src, msg.payload, op)
            else:
                yield worker.cpu(p.unexpected_handling_us * 0.5 * match_mult)
        elif kind == "lci_cts":
            # At the sender: stream the long data, zero-copy.
            yield worker.cpu(p.rndv_dispatch_us * mult)
            sop, rop = msg.payload
            post_cost = self.nic.post_send(NetMsg(
                src=self.rank, dst=msg.src,
                size=sop.size + p.wire_header_bytes, kind="lci_data",
                tag=sop.tag, payload=(sop, rop), vchan=self.vchan))
            yield worker.cpu(post_cost)
            if sop.comp is not None:
                # Source buffer reusable once the NIC drained it.
                delay = max(0.0, self.nic.tx.busy_until - self.sim.now)
                self.sim.schedule_call1(delay, self._signal_send_done, sop)
            self.stats.inc("cts_handled")
        elif kind == "lci_data":
            yield worker.cpu(p.rndv_dispatch_us * mult)
            sop, rop = msg.payload
            yield worker.cpu(rop.comp.signal_cost_us * mult)
            rop.comp.signal(("recv", rop.ctx, sop.payload))
            self.stats.inc("long_recvs")
        else:  # pragma: no cover - guarded by construction
            raise ValueError(f"unknown LCI wire message {kind!r}")

    def _dispatch_corrupted(self, worker, msg: NetMsg, mult: float):
        """A message whose payload failed its (modelled) integrity check.

        Matched two-sided operations complete with an ``("error", ctx,
        reason)`` status so the layer above can react; control messages
        (puts, RTS, CTS) and unmatched arrivals are discarded — recovery
        is the sender's retransmission layer's job.  Corrupted messages
        are never stashed in the unexpected store.
        """
        p = self.params
        kind = msg.kind
        yield worker.cpu(p.medium_dispatch_us * mult)  # checksum verify
        if kind == "lci_medium":
            op = self._pop_posted(msg.tag)
            if op is not None:
                yield worker.cpu(op.comp.signal_cost_us * mult)
                op.comp.signal(("error", op.ctx, "corrupt"))
                self.stats.inc("corrupt_errored")
                return
        elif kind == "lci_data":
            _sop, rop = msg.payload
            yield worker.cpu(rop.comp.signal_cost_us * mult)
            rop.comp.signal(("error", rop.ctx, "corrupt"))
            self.stats.inc("corrupt_errored")
            return
        self.stats.inc("corrupt_discarded")

    def cancel_recv(self, tag: int, comp=None) -> int:
        """Remove posted receives on ``tag`` (all, or only those completing
        into ``comp``); returns how many were cancelled.

        Used by the parcelport's reliability layer to reap receiver
        chains whose sender gave up — otherwise every abandoned chain
        leaks one posted op into the matching table forever.
        """
        bucket = self._posted.get(tag)
        if not bucket:
            return 0
        if comp is None:
            removed = len(bucket)
            bucket.clear()
        else:
            keep = [op for op in bucket if op.comp is not comp]
            removed = len(bucket) - len(keep)
            bucket.clear()
            bucket.extend(keep)
        if not bucket:
            del self._posted[tag]
        if removed:
            self.stats.inc("recvs_cancelled", removed)
        return removed

    def _signal_send_done(self, sop: LciOp) -> None:
        """Timer-driven long-send local completion (was a per-CTS closure)."""
        sop.comp.signal(("send", sop.ctx))
        if self.notify is not None:
            self.notify()

    def _send_cts(self, worker, dst: int, sop: LciOp, rop: LciOp):
        p = self.params
        yield worker.cpu(self.nic.params.rndv_handshake_us)
        post_cost = self.nic.post_send(NetMsg(
            src=self.rank, dst=dst, size=p.wire_header_bytes,
            kind="lci_cts", tag=sop.tag, payload=(sop, rop),
            vchan=self.vchan))
        yield worker.cpu(post_cost)
        self.stats.inc("cts_sent")

    def _pop_posted(self, tag: int, kind: Optional[str] = None
                    ) -> Optional[LciOp]:
        bucket = self._posted.get(tag)
        if not bucket:
            return None
        if kind is not None and bucket[0].kind != kind:
            return None
        op = bucket.popleft()
        if not bucket:
            del self._posted[tag]
        return op

    # -- introspection ---------------------------------------------------
    @property
    def posted_count(self) -> int:
        return sum(len(b) for b in self._posted.values())

    @property
    def unexpected_count(self) -> int:
        return sum(len(b) for b in self._unexpected.values())
