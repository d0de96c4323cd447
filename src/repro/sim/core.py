"""Deterministic discrete-event simulation kernel.

This is the foundation of the whole reproduction: every CPU cycle, lock
acquisition, NIC transfer and wire hop in the simulated HPX/MPI/LCI stack is
an event scheduled on a :class:`Simulator`.

The kernel is intentionally simpy-like (generator-coroutine processes that
``yield`` events) but is written from scratch, lean, and fully deterministic:

* Virtual time is a ``float`` in **microseconds**.
* Ties are broken by ``(time, priority, seq)`` where ``seq`` is a global
  monotonically increasing counter, so two runs of the same program produce
  bit-identical schedules.
* There is no wall-clock coupling anywhere.

The hot paths (``run``, ``Timeout``, ``Process._resume``, ``schedule_call``)
are hand-optimised — heap pushes inlined, wake records pared down to bare
``_Wake`` objects, the sequence counter a plain int — under a hard
determinism contract: the ``(time, priority, seq)`` schedule, the
``event_count``, and every simulated result are bit-identical to the
pre-optimisation kernel (kept frozen in :mod:`repro.sim._seed_kernel` and
compared against in ``tests/test_determinism_kernel.py``).  See
docs/PERFORMANCE.md for the full catalogue of fast paths.

A model may also skip records it can predict (a :class:`LazyWindow`): the
kernel then orders same-time ties by the skipped records' virtual
schedule, so the model's results and observable actions stay those of
the step path while ``event_count`` drops.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def proc(sim):
...     yield sim.timeout(3.0)
...     log.append(sim.now)
>>> _ = sim.process(proc(sim))
>>> sim.run()
>>> log
[3.0]
"""

from __future__ import annotations

from bisect import bisect_right
from functools import reduce
from heapq import heappop as _heappop, heappush as _heappush
from itertools import accumulate
from operator import add
from typing import Any, Callable, Generator, Iterable, Optional, Tuple

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Simulator",
    "SimulationError",
    "LazyWindow",
]

#: Event priorities: URGENT events fire before NORMAL events scheduled at the
#: same timestamp.  Used for immediate wake-ups (e.g. lock hand-off).
URGENT = 0
NORMAL = 1

#: Wire deliveries are scheduled at their own priority level, between URGENT
#: wake-ups and NORMAL events, with an *intrinsic* tie-break key in the seq
#: slot: ``(src locality, per-source delivery sequence)`` instead of the
#: global scheduling counter.  Co-temporal deliveries therefore order by
#: (time, src, per-src order) — a property of the *traffic*, not of when the
#: scheduling call happened to run — which is what makes the sharded engine's
#: window-boundary imports land in exactly the sequential engine's order
#: (see repro/sim/shard/ and docs/SHARDING.md).  Keys are tuples and plain
#: seqs are ints, so the distinct priority level also keeps the heap's
#: lexicographic compare from ever mixing the two.
DELIVERY = 0.5

#: events run logged with no lazy window open before the fast loop resumes
_IDLE_LOG = 64
#: log length past which no new window opens until the open ones close
#: and the log is cleared (overlapping windows can keep each other's
#: history reachable, so this is what bounds the log's memory)
_LOG_LIMIT = 8192
#: pseudo priority of a settle point after a deadline: after every record
#: at that time
_AFTER_ALL = 2


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (double-trigger, run without events)."""


class Interrupt(Exception):
    """Thrown into a :class:`Process` by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class _Wake:
    """Bare heap record for internal wake-ups (bootstrap, resume, interrupt).

    Quacks just enough like a processed-event carrier for the run loop
    (``callbacks``/``processed``) and for :meth:`Process._resume`
    (``_ok``/``_value``); never escapes the kernel.  Compared to a full
    :class:`Event` it skips ``sim``/``triggered`` bookkeeping and the
    ``__init__`` call — call sites assign the three live slots directly.
    """

    __slots__ = ("callbacks", "_value", "_ok", "processed")


class Event:
    """A one-shot occurrence on the simulator timeline.

    An event starts *pending*, becomes *triggered* when :meth:`succeed` or
    :meth:`fail` is called (or when the simulator schedules it), and
    *processed* once its callbacks ran.  Processes wait on events by
    yielding them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "triggered", "processed")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list] = []
        self._value: Any = None
        self._ok: bool = True
        self.triggered = False
        self.processed = False

    # -- introspection ---------------------------------------------------
    @property
    def value(self) -> Any:
        """The payload passed to :meth:`succeed` (or the failure exception)."""
        return self._value

    @property
    def ok(self) -> bool:
        """False if the event failed."""
        return self._ok

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully; callbacks run at the current time."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self.triggered = True
        self._value = value
        sim = self.sim
        seq = sim._seq
        sim._seq = seq + 1
        _heappush(sim._heap, (sim.now, priority, seq, self))
        return self

    def fail(self, exc: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event as failed; waiting processes receive ``exc``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self.triggered = True
        self._ok = False
        self._value = exc
        sim = self.sim
        seq = sim._seq
        sim._seq = seq + 1
        _heappush(sim._heap, (sim.now, priority, seq, self))
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed (immediately if done)."""
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.sim.now}>"


class Timeout(Event):
    """An event that fires ``delay`` µs after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        # Slimmed constructor: Event.__init__ + succeed() fused into direct
        # slot assignments and one inlined heap push.
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self.triggered = True
        self.processed = False
        self.delay = delay
        seq = sim._seq
        sim._seq = seq + 1
        _heappush(sim._heap, (sim.now + delay, NORMAL, seq, self))


class _Call(Event):
    """A :meth:`Simulator.schedule_call` event: runs ``fn()`` when processed.

    Replaces the seed kernel's ``Timeout + lambda callback`` pair with a
    single object; the heap tuple it pushes is identical, so schedules are
    unchanged.
    """

    __slots__ = ("fn",)

    def __init__(self, sim: "Simulator", delay: float,
                 fn: Callable[[], None]):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.sim = sim
        self.fn = fn
        self.callbacks = [self._invoke]
        self._value = None
        self._ok = True
        self.triggered = True
        self.processed = False
        seq = sim._seq
        sim._seq = seq + 1
        _heappush(sim._heap, (sim.now + delay, NORMAL, seq, self))

    def _invoke(self, _event: Event) -> None:
        self.fn()


class _Call1(Event):
    """A :meth:`Simulator.schedule_call1` event: runs ``fn(arg)``.

    Like :class:`_Call` but carries one argument, replacing the
    per-message closures on the hot wire-delivery and rendezvous-
    completion paths (``lambda: dst.deliver(msg)`` and friends) with
    plain attribute slots.  Heap tuple identical to ``schedule_call``.
    """

    __slots__ = ("fn", "arg")

    def __init__(self, sim: "Simulator", delay: float,
                 fn: Callable[[Any], None], arg: Any):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.sim = sim
        self.fn = fn
        self.arg = arg
        self.callbacks = [self._invoke]
        self._value = None
        self._ok = True
        self.triggered = True
        self.processed = False
        seq = sim._seq
        sim._seq = seq + 1
        _heappush(sim._heap, (sim.now + delay, NORMAL, seq, self))

    def _invoke(self, _event: Event) -> None:
        self.fn(self.arg)


class LazyWindow(Event):
    """A run of skipped step records (a *lazy window*); also the heap
    record of its last one.

    A process that can predict its next ``N`` bare-delay resumes — ``N``
    records at times ``times[1] < ... < times[N]`` with delays ``costs``,
    each allocated while the previous one is processed (``times[0]`` is
    the opening time) — may replace them by this one record at
    ``times[N]`` (:meth:`Simulator.lazy_open`).  The kernel keeps the
    window's *virtual* schedule so that, wherever a skipped record would
    have tied with a real one at the same ``(time, NORMAL)``, the order
    is still the one the step path would have produced.

    Chain record ``j`` is the one at ``times[j]``; record 1's seq is the
    window's own ``seq``.  ``spec`` is ``(owner, ctx, costs, proc)``:
    ``proc`` is the process that yields the window, ``ctx`` is the
    owner's, and ``owner`` implements ``lazy_settle(window, point)``
    (bring the window up to a point, e.g. because :meth:`Simulator.run`
    returns) and ``lazy_tie(window)`` (a tie was resolved).  ``record`` is
    None while the window itself is the pending record.
    """

    __slots__ = ("spec", "t0", "seq", "record", "_times")

    @property
    def owner(self) -> Any:
        return self.spec[0]

    @property
    def ctx(self) -> Any:
        return self.spec[1]

    @property
    def costs(self) -> list:
        return self.spec[2]

    @property
    def times(self) -> list:
        """Chain times by the step path's own sequential float adds."""
        try:
            return self._times
        except AttributeError:
            times = self._times = list(accumulate(self.spec[2],
                                                  initial=self.t0))
            return times


class _LazyWake(Event):
    """Heap record standing for chain record ``index`` of ``window`` once
    the window has been put back on the step path; superseded (a no-op)
    once it is no longer ``window.record``."""

    __slots__ = ("window", "index")


def _as_point(item: tuple) -> tuple:
    """A heap item as a processing point: a window's current record by
    its virtual identity ``(window, j)``, everything else (superseded
    lazy records included) as itself."""
    ev = item[3]
    cls = ev.__class__
    if cls is LazyWindow:
        if ev.record is None:
            return ev, len(ev.spec[2])
    elif cls is _LazyWake:
        window = ev.window
        if window.record is ev:
            return window, ev.index
    return item


def _tp(x: tuple) -> tuple:
    """``(time, priority)`` of a processing point."""
    if len(x) == 2:
        return x[0].times[x[1]], NORMAL
    return x[0], x[1]


def _alloc(x: tuple):
    """Where a point's seq was allocated: a real seq (int), or the virtual
    chain record ``(window, j)`` whose processing allocated it."""
    if len(x) == 2:
        window, j = x
        return window.seq if j == 1 else (window, j - 1)
    return x[2]


def _succeed_stashed(wake: "_Wake") -> None:
    """Callback for :meth:`Simulator.succeed_later` wake records: the
    target event rides in the record's ``_value`` slot; deliver the value
    pre-staged on the event itself."""
    ev = wake._value
    ev.succeed(ev._value)


class Process(Event):
    """A generator-coroutine driven by the simulator.

    The generator yields :class:`Event` instances; the process resumes when
    the yielded event fires, receiving ``event.value`` as the result of the
    ``yield`` expression.  The process *itself* is an event that triggers
    with the generator's return value, so processes can wait on each other.
    """

    __slots__ = ("gen", "name", "_target", "_bound_resume")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self.triggered = False
        self.processed = False
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        # One bound method for the whole lifetime instead of a fresh
        # ``self._resume`` allocation on every suspension.
        self._bound_resume = self._resume
        # Bootstrap: resume once at the current time.  The boot record is
        # the process's initial resume target so stray callbacks can never
        # start it twice.
        boot = _Wake()
        boot._ok = True
        boot._value = None
        boot.callbacks = [self._bound_resume]
        self._target: Any = boot
        seq = sim._seq
        sim._seq = seq + 1
        _heappush(sim._heap, (sim.now, URGENT, seq, boot))

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The interrupt is delivered when its wake-up is processed (an URGENT
        event at the current time).  Detaching from whatever the process is
        waiting on happens at *delivery* time, which makes the operation
        race-free:

        * interrupting a process whose wait target has already triggered
          (but not yet processed) delivers the target's value first, then
          the interrupt at the next suspension point — the completion is
          not lost and the stale target can never resume the process a
          second time;
        * interrupting a process that has not started yet lets it start
          normally and receive the interrupt at its first ``yield`` (where
          it is catchable).
        """
        if self.triggered:
            return
        sim = self.sim
        wake = _Wake()
        wake._ok = False
        wake._value = Interrupt(cause)
        wake.callbacks = [self._interrupted]
        seq = sim._seq
        sim._seq = seq + 1
        _heappush(sim._heap, (sim.now, URGENT, seq, wake))

    # -- internal ----------------------------------------------------------
    def _interrupted(self, wake: _Wake) -> None:
        """Deliver a pending interrupt: detach from the current wait target
        (if it can still fire) and throw into the generator."""
        if self.triggered:
            return
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._bound_resume)
            except ValueError:
                pass
        self._target = wake
        self._resume(wake)

    def _resume(self, trigger: Any) -> None:
        # Only the currently registered target may resume the process; a
        # detached or superseded event's late callback is ignored.  This
        # closes the seed kernel's interrupt-vs-completion double-resume
        # race (see tests/test_sim_core.py).
        if self.triggered or trigger is not self._target:
            return
        self._target = None
        sim = self.sim
        sim._active_process = self
        try:
            if trigger._ok:
                nxt = self.gen.send(trigger._value)
            else:
                nxt = self.gen.throw(trigger._value)
        except StopIteration as stop:
            sim._active_process = None
            self.succeed(stop.value, priority=URGENT)
            return
        except BaseException as exc:
            sim._active_process = None
            if sim.strict:
                raise
            self.fail(exc, priority=URGENT)
            return
        sim._active_process = None
        cls = nxt.__class__
        if cls is float or cls is int:
            # Bare-delay yield (``yield worker.cpu(us)`` returns a float):
            # push the resume record directly — the same ``(now + d,
            # NORMAL, seq)`` heap tuple, at the same seq-allocation point,
            # as ``yield sim.timeout(d)``, minus the Timeout object, its
            # callbacks list, and the callback-append on resume.
            if nxt < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded negative delay {nxt!r}")
            wake = _Wake()
            wake._ok = True
            wake._value = None
            wake.callbacks = [self._bound_resume]
            self._target = wake
            seq = sim._seq
            sim._seq = seq + 1
            _heappush(sim._heap, (sim.now + nxt, NORMAL, seq, wake))
            return
        if not isinstance(nxt, Event):
            raise SimulationError(
                f"process {self.name!r} yielded non-event {nxt!r}")
        cbs = nxt.callbacks
        if cbs is None:
            # Already processed: resume immediately (at current time) via a
            # bare wake record — same heap tuple as the seed kernel's full
            # Event, minus the allocation and bookkeeping.
            wake = _Wake()
            wake._ok = nxt._ok
            wake._value = nxt._value
            wake.callbacks = [self._bound_resume]
            self._target = wake
            seq = sim._seq
            sim._seq = seq + 1
            _heappush(sim._heap, (sim.now, URGENT, seq, wake))
        else:
            cbs.append(self._bound_resume)
            self._target = nxt


class _Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        # Inlined Event.__init__ (direct slot assignment, like Timeout).
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self.triggered = False
        self.processed = False
        self.events = evs = list(events)
        self._pending = len(evs)
        if not evs:
            self.succeed({})
            return
        # Inlined add_callback with a single bound-method allocation.
        check = self._check
        for ev in evs:
            cbs = ev.callbacks
            if cbs is None:
                check(ev)
            else:
                cbs.append(check)

    def _check(self, ev: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when *all* the given events have triggered.

    Value is a dict mapping each event to its value.  Fails fast if any
    child fails.
    """

    __slots__ = ()

    def _check(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev._ok:
            self.fail(ev._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed({e: e._value for e in self.events})


class AnyOf(_Condition):
    """Triggers when *any one* of the given events triggers (value = (event, value))."""

    __slots__ = ()

    def _check(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev._ok:
            self.fail(ev._value)
            return
        self.succeed((ev, ev._value))


class Simulator:
    """Heap-driven deterministic event loop.

    Parameters
    ----------
    strict:
        If True (default), exceptions raised inside processes propagate out
        of :meth:`run` immediately instead of failing the process event.
    """

    def __init__(self, strict: bool = True):
        self.now: float = 0.0
        self.strict = strict
        self._heap: list = []
        #: next ``(time, priority, seq)`` tie-breaker; a plain int sequence
        #: (same values as the seed kernel's ``itertools.count``)
        self._seq: int = 0
        self._active_process: Optional[Process] = None
        self.event_count = 0
        #: open lazy windows (insertion-ordered); empty => fast run loop
        self._lazy: dict = {}
        #: while a window is open: per processed event, the seq counter
        #: at its start and its heap item (seq -> allocating event)
        self._log_seq: list = []
        self._log_item: list = []
        #: events go through _run_logged (set by the first window; cleared
        #: after a stretch with none open)
        self._logging = False

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        """A fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` µs from now."""
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Register a generator as a process; returns its completion event."""
        return Process(self, gen, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float, priority: int) -> None:
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, (self.now + delay, priority, seq, event))

    def schedule_call(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` after ``delay`` µs (no process needed)."""
        return _Call(self, delay, fn)

    def schedule_call1(self, delay: float, fn: Callable[[Any], None],
                       arg: Any) -> Event:
        """Run ``fn(arg)`` after ``delay`` µs — closure-free
        :meth:`schedule_call` for the per-message hot paths."""
        return _Call1(self, delay, fn, arg)

    def schedule_delivery(self, delay: float, fn: Callable[[Any], None],
                          arg: Any, key: Tuple[int, int]) -> Event:
        """Run ``fn(arg)`` after ``delay`` µs at :data:`DELIVERY` priority
        with the intrinsic tie-break ``key`` (``(src, per-src seq)``).

        Used exclusively for wire deliveries (:meth:`repro.netsim.fabric.
        Fabric.transmit` and the sharded engine's window imports): the key
        replaces the global seq counter so co-temporal deliveries order by
        traffic identity rather than by scheduling order, and no global seq
        is consumed (later events keep the same *relative* seq order either
        way).
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        ev = _Call1.__new__(_Call1)
        ev.sim = self
        ev.fn = fn
        ev.arg = arg
        ev.callbacks = [ev._invoke]
        ev._value = None
        ev._ok = True
        ev.triggered = True
        ev.processed = False
        _heappush(self._heap, (self.now + delay, DELIVERY, key, ev))
        return ev

    def succeed_later(self, event: Event, delay: float,
                      value: Any = None) -> None:
        """Trigger ``event.succeed(value)`` after ``delay`` µs via one bare
        wake record.

        Schedule-identical to ``schedule_call(delay, lambda:
        event.succeed(value))`` — same two-record dance, same seq
        allocation points — without the _Call event or the closure.  The
        value is pre-staged in the target's ``_value`` slot (observable
        only through ``Event.value`` introspection before the trigger,
        which nothing on these paths does).
        """
        event._value = value
        wake = _Wake()
        wake._ok = True
        wake._value = event
        wake.callbacks = [_succeed_stashed]
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, (self.now + delay, NORMAL, seq, wake))

    def schedule_calls(self,
                       calls: Iterable[Tuple[float, Callable[[], None]]]
                       ) -> list:
        """Batched :meth:`schedule_call`: one ``(delay, fn)`` pair per entry.

        Binds the heap and sequence counter once for the whole batch;
        returns the scheduled events in input order.
        """
        heap = self._heap
        now = self.now
        seq = self._seq
        out = []
        append = out.append
        for delay, fn in calls:
            if delay < 0:
                self._seq = seq
                raise ValueError(f"negative delay {delay}")
            ev = _Call.__new__(_Call)
            ev.sim = self
            ev.fn = fn
            ev.callbacks = [ev._invoke]
            ev._value = None
            ev._ok = True
            ev.triggered = True
            ev.processed = False
            _heappush(heap, (now + delay, NORMAL, seq, ev))
            seq += 1
            append(ev)
        self._seq = seq
        return out

    # -- execution -----------------------------------------------------------
    def step(self) -> None:
        """Process the single next event.

        Semantically identical to one iteration of :meth:`run` (which
        inlines this body into its tight loops); kept as the single-step
        API for tests and schedule tracing.
        """
        heap = self._heap
        item = _heappop(heap)
        if self._lazy:
            if heap and heap[0][0] == item[0] and heap[0][1] == NORMAL:
                item = self._lazy_pick(item)
            self._log_seq.append(self._seq)
            self._log_item.append(item)
        t, _prio, _seq, event = item
        if t < self.now:
            raise SimulationError("time went backwards")
        self.now = t
        self.event_count += 1
        callbacks = event.callbacks
        event.callbacks = None
        event.processed = True
        for cb in callbacks:
            cb(event)

    def run(self, until: "float | Event | None" = None,
            max_events: Optional[int] = None) -> Any:
        """Run until the heap drains, a deadline passes, or an event fires.

        Parameters
        ----------
        until:
            ``None`` — run to exhaustion; a float — run until virtual time
            reaches it; an :class:`Event` — run until it triggers and return
            its value.
        max_events:
            Safety valve; raise once exactly ``max_events`` events have been
            processed and more remain (the run may *complete* in exactly
            ``max_events``).

        The two inlined loops below are the fast path.  Once a lazy window
        opens (:meth:`lazy_open`) events go through :meth:`_run_logged`
        instead: opening moves the heap to a fresh list, which empties the
        list the running loop holds and so switches loops without any
        per-event check.  ``_run_logged`` hands back after a stretch of
        events with no window open.
        """
        stop_event: Optional[Event] = None
        deadline: Optional[float] = None
        if isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is None:
                return stop_event.value
        elif until is not None:
            deadline = float(until)

        pop = _heappop
        limit = max_events if max_events is not None else float("inf")
        processed = 0
        try:
            while True:
                heap = self._heap
                now = self.now
                if self._logging:
                    processed += self._run_logged(stop_event, deadline,
                                                  limit - processed)
                    if self._logging:
                        break
                    continue  # no window for a while: back to fast loops
                if deadline is None:
                    # Hot path: run to exhaustion or until ``stop_event``
                    # triggers, with the step() body inlined.
                    while heap:
                        if stop_event is not None \
                                and stop_event.callbacks is None:
                            break
                        if processed >= limit:
                            raise SimulationError(
                                f"exceeded max_events={max_events} "
                                f"(possible livelock)")
                        item = pop(heap)
                        t = item[0]
                        if t < now:
                            raise SimulationError("time went backwards")
                        self.now = now = t
                        processed += 1
                        event = item[3]
                        callbacks = event.callbacks
                        event.callbacks = None
                        event.processed = True
                        for cb in callbacks:
                            cb(event)
                else:
                    # Deadline path: peek before popping so events beyond
                    # the deadline stay scheduled.
                    while heap:
                        if stop_event is not None \
                                and stop_event.callbacks is None:
                            break
                        t = heap[0][0]
                        if t > deadline:
                            self.now = deadline
                            break
                        if processed >= limit:
                            raise SimulationError(
                                f"exceeded max_events={max_events} "
                                f"(possible livelock)")
                        item = pop(heap)
                        if t < now:
                            raise SimulationError("time went backwards")
                        self.now = now = t
                        processed += 1
                        event = item[3]
                        callbacks = event.callbacks
                        event.callbacks = None
                        event.processed = True
                        for cb in callbacks:
                            cb(event)
                if self._heap is heap:
                    break
                # the heap moved: a lazy window opened
        finally:
            self.event_count += processed
        if self._lazy:
            # Returning mid-window: the skipped records the step path would
            # have processed by now must show in every counter the caller
            # may read.
            if stop_event is not None and stop_event.callbacks is None:
                point = self.lazy_point()
            else:
                point = (self.now if deadline is None else deadline,
                         _AFTER_ALL, 0, None)
            for window in list(self._lazy):
                window.owner.lazy_settle(window, point)
        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "simulation ran out of events before `until` triggered")
            if not stop_event.ok:
                raise stop_event.value
            return stop_event.value
        if deadline is not None and not self._heap:
            self.now = max(self.now, deadline)
        return None

    def _run_logged(self, stop_event: Optional[Event],
                    deadline: Optional[float], limit: float) -> int:
        """:meth:`run`'s loop while lazy windows are open: every processed
        event is logged (for :meth:`_seq_before`) and a popped lazy record
        with a same-``(time, NORMAL)`` rival goes through
        :meth:`_lazy_pick`.  Returns the number of events processed; once
        ``_IDLE_LOG`` events pass with no window open it clears
        ``_logging`` and returns early."""
        heap = self._heap
        pop = _heappop
        lazy = self._lazy
        log_seq = self._log_seq
        log_seq_append = log_seq.append
        log_item_append = self._log_item.append
        now = self.now
        n = 0
        while heap:
            if stop_event is not None and stop_event.callbacks is None:
                break
            t = heap[0][0]
            if deadline is not None and t > deadline:
                self.now = deadline
                break
            if n >= limit:
                self.event_count += n
                raise SimulationError(
                    "exceeded max_events (possible livelock)")
            item = pop(heap)
            event = item[3]
            cls = event.__class__
            if (cls is LazyWindow or cls is _LazyWake) and heap \
                    and heap[0][0] == t and heap[0][1] == NORMAL:
                item = self._lazy_pick(item)
                event = item[3]
            if t < now:
                raise SimulationError("time went backwards")
            self.now = now = t
            n += 1
            log_seq_append(self._seq)
            log_item_append(item)
            callbacks = event.callbacks
            event.callbacks = None
            event.processed = True
            for cb in callbacks:
                cb(event)
            if not lazy and len(log_seq) > _IDLE_LOG:
                self._logging = False
                log_seq.clear()
                self._log_item.clear()
                break
        return n

    # -- lazy windows -------------------------------------------------------
    def lazy_open(self, spec: tuple) -> Optional[LazyWindow]:
        """Open a window (see :class:`LazyWindow`): one record standing for
        the step records ``yield costs[0]``, ``yield costs[1]``, ... would
        schedule, returned for the process to yield.  Its seq is allocated
        here, where the step path would allocate chain record 1's.
        Returns None, and the caller takes the step path, while the log is
        over ``_LOG_LIMIT`` entries."""
        if len(self._log_seq) > _LOG_LIMIT:
            return None
        now = self.now
        seq = self._seq
        self._seq = seq + 1
        if not self._lazy:
            if not self._logging:
                # Move the heap: the fast loop holding the old list ends
                # and run() continues in _run_logged.
                self._logging = True
                old = self._heap
                self._heap = old[:]
                old.clear()
            # Stand-in for the event being processed: seqs from ``seq`` on
            # were allocated by it, and every chain time lies after it.
            self._log_seq.clear()
            self._log_item.clear()
            self._log_seq.append(seq)
            self._log_item.append((now, URGENT, -1, None))
        window = LazyWindow.__new__(LazyWindow)
        window.callbacks = []
        window._value = None
        window._ok = True
        window.spec = spec
        window.t0 = now
        window.seq = seq
        window.record = None
        self._lazy[window] = None
        _heappush(self._heap,
                  (reduce(add, spec[2], now), NORMAL, seq, window))
        return window

    def lazy_resume_at(self, window: LazyWindow, j: int, value: Any) -> None:
        """Replace the window's pending record by chain record ``j``: its
        process resumes at ``times[j]`` receiving ``value``, ordered among
        ties as the step path's record ``j`` would be.  The replaced record
        stays in the heap as a no-op."""
        (window.record or window).callbacks = []
        proc = window.spec[3]
        rec = _LazyWake.__new__(_LazyWake)
        rec.callbacks = [proc._bound_resume]
        rec._value = value
        rec._ok = True
        rec.window = window
        rec.index = j
        proc._target = rec
        window.record = rec
        _heappush(self._heap, (window.times[j], NORMAL, window.seq, rec))

    def lazy_close(self, window: LazyWindow) -> None:
        """Forget a window whose pending record has fired."""
        lazy = self._lazy
        del lazy[window]
        if not lazy:
            self._log_seq.clear()
            self._log_item.clear()

    def lazy_point(self) -> tuple:
        """The event being processed, as a point for
        :meth:`lazy_count_before` (valid while a window is open)."""
        return _as_point(self._log_item[-1])

    def lazy_count_before(self, window: LazyWindow, point: tuple) -> int:
        """How many of the window's chain records the step path would have
        processed before ``point``."""
        t, prio = _tp(point)
        tj = window.t0
        j = 0
        for c in window.spec[2]:
            tj = tj + c  # = times[j + 1], by the same adds
            if tj > t:
                return j
            if tj == t:
                if prio < NORMAL:
                    return j
                if prio == NORMAL:
                    window.spec[0].lazy_tie(window)
                    if not self.lazy_before((window, j + 1), point):
                        return j
            j += 1
        return j

    def _lazy_pick(self, item: tuple) -> tuple:
        """``item`` was just popped.  If it is a live lazy record, return
        whichever of it and its same-``(time, NORMAL)`` rivals the step
        path would process first, pushing the others back."""
        point = _as_point(item)
        if len(point) != 2:
            return item
        window = point[0]
        window.owner.lazy_tie(window)
        heap = self._heap
        t = item[0]
        tied = [item]
        while heap and heap[0][0] == t and heap[0][1] == NORMAL:
            tied.append(_heappop(heap))
        best = item
        best_pt = point
        for other in tied[1:]:
            pt = _as_point(other)
            if self.lazy_before(pt, best_pt):
                best, best_pt = other, pt
        for other in tied:
            if other is not best:
                _heappush(heap, other)
        return best

    def lazy_before(self, x: tuple, y: tuple) -> bool:
        """Would the step path process point ``x`` before point ``y``?

        A point is a real heap item ``(t, prio, seq, ev)`` or a virtual
        chain record ``(window, j)``.  Same-``(time, NORMAL)`` records
        order by seq, i.e. by when their seq was allocated, which for a
        virtual record ``j > 1`` is while its record ``j - 1`` is being
        processed — so the comparison walks back to earlier points.
        """
        while True:
            if len(x) == 2:
                wx, jx = x
                tx, px = wx.times[jx], NORMAL
            else:
                wx = None
                tx, px = x[0], x[1]
            if len(y) == 2:
                wy, jy = y
                ty, py = wy.times[jy], NORMAL
            else:
                wy = None
                ty, py = y[0], y[1]
            if tx != ty:
                return tx < ty
            if px != py:
                return px < py
            if px != NORMAL:
                return x[2] < y[2]
            if wx is not None and wy is not None:
                if wx is wy:
                    return jx < jy
                if jx == jy and wx.times[:jx] == wy.times[:jx]:
                    # lock-step chains: ordered by their first records
                    return wx.seq < wy.seq
            a = _alloc(x)
            b = _alloc(y)
            if a.__class__ is int:
                if b.__class__ is int:
                    return a < b
                return self._seq_before(a, b)
            if b.__class__ is int:
                return not self._seq_before(b, a)
            x, y = a, b

    def _seq_before(self, seq: int, v: tuple) -> bool:
        """Was real ``seq`` allocated before virtual point ``v`` was
        processed?  Seqs up to the window's own came before its chain;
        later ones are looked up in the log for their allocating event."""
        if seq <= v[0].seq:
            return True
        i = bisect_right(self._log_seq, seq) - 1
        return self.lazy_before(_as_point(self._log_item[i]), v)

    def run_window(self, stop_before: float,
                   stop_event: Optional[Event] = None,
                   deadline: Optional[float] = None,
                   max_events: Optional[int] = None) -> int:
        """Process events strictly before ``stop_before``; return the count.

        The sharded engine's inner loop (see :mod:`repro.sim.shard`): one
        conservative time window executes every event with
        ``t < stop_before`` — the exclusive bound is what guarantees a
        cross-shard delivery scheduled *at* the horizon is never outrun.
        ``stop_event`` mirrors :meth:`run`'s until-event cut (stop as soon
        as it has been processed, leaving later events scheduled) and
        ``deadline`` mirrors the inclusive float-until cut (``t <=
        deadline``), so a windowed run makes exactly the sequential
        kernel's stopping decision, just in horizon-sized slices.  Unlike
        :meth:`run`, the clock is *not* advanced to the horizon — virtual
        time only moves with events, and the barrier protocol reads
        :meth:`peek` to agree on the next horizon.
        """
        self._logging = False
        heap = self._heap
        pop = _heappop
        limit = max_events if max_events is not None else float("inf")
        now = self.now
        processed = 0
        try:
            while heap:
                if stop_event is not None and stop_event.callbacks is None:
                    break
                t = heap[0][0]
                if t >= stop_before:
                    break
                if deadline is not None and t > deadline:
                    break
                if processed >= limit:
                    raise SimulationError(
                        f"exceeded max_events={max_events} "
                        f"(possible livelock)")
                item = pop(heap)
                if t < now:
                    raise SimulationError("time went backwards")
                self.now = now = t
                processed += 1
                event = item[3]
                callbacks = event.callbacks
                event.callbacks = None
                event.processed = True
                for cb in callbacks:
                    cb(event)
        finally:
            self.event_count += processed
        if self._lazy:
            raise SimulationError(
                "lazy windows are ordered by Simulator.run only; "
                "run_window cannot process them")
        return processed

    def peek(self) -> float:
        """Time of the next scheduled event (inf if none)."""
        return self._heap[0][0] if self._heap else float("inf")

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process
