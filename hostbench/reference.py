"""A fixed reference workload that measures how fast the host runs Python.

The host this benchmark runs on is shared: other tenants slow it down by
up to twofold, in spells that can outlast a whole run.  So every point's
time is divided by the time of this reference, run right before and right
after the point, and multiplied back by the reference's time at nominal
speed (:data:`NOMINAL_UNIT_S`).  A slow spell slows both alike and cancels
out; a change to the program moves only the point's time.

One reference unit does the two kinds of work the simulator's time goes
to, so that contention for the core slows it by about as much as it slows
the program:

* a small discrete-event simulation in the style of the simulator's
  kernel (generator processes, a binary heap of ``(time, priority, seq,
  callback, arg)`` tuples, event objects with callback lists, dict
  counters), which runs from the core's private caches;
* random reads and writes across a large live heap of small dicts, as a
  runtime with many localities, queues and parcels makes; these miss the
  caches.  A cache-resident loop alone slowed about twice as much as the
  program under the same contention.

The reference runs in a child process (:class:`Reference`) pinned to the
same CPU as the benchmark, so its large heap stays out of the benchmark's
``peak_rss_mb`` and its garbage out of the program's collector.  It lives
here, frozen, and imports nothing from the program: optimising the
program never changes it.

``python3 reference.py`` serves samples on stdin/stdout for
:class:`Reference`: each input line is a time budget in seconds, each
output line the JSON list of the CPU seconds of the units run for it.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time
from heapq import heappop, heappush
from random import Random
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["NOMINAL_UNIT_S", "make_heap", "unit", "unit_times",
           "Reference", "pin_to_one_cpu"]

#: CPU seconds one :func:`unit` takes at nominal speed: about its median
#: on the 2-core Intel Xeon VM (2.0 GHz, CPython 3.11.7) the benchmark
#: was written on, when no other tenant slowed it; reported times are
#: scaled to this speed
NOMINAL_UNIT_S = 0.03

#: messages each of the four senders injects in one unit
_MSGS = 120
#: kernel events one unit executes; a different count means the
#: reference itself changed and the scale above no longer holds
_EVENTS = 8328
#: dicts in the large live heap, and random accesses to it per unit
_HEAP_SIZE = 300_000
_HEAP_ACCESSES = 10_000

class _Event:
    __slots__ = ("callbacks", "value")

    def __init__(self) -> None:
        self.callbacks: List[Callable[[Any], None]] = []
        self.value: Any = None


class _Sim:
    def __init__(self) -> None:
        self.now = 0.0
        self.heap: List[Tuple[float, int, int, Callable, Any]] = []
        self.seq = 0
        self.events = 0

    def call(self, delay: float, fn: Callable[[Any], None],
             arg: Any = None) -> None:
        self.seq += 1
        heappush(self.heap, (self.now + delay, 1, self.seq, fn, arg))

    def trigger(self, ev: _Event) -> None:
        for cb in ev.callbacks:
            cb(ev)

    def timeout(self, delay: float) -> _Event:
        ev = _Event()
        self.call(delay, self.trigger, ev)
        return ev

    def process(self, gen) -> None:
        self.call(0.0, _Process(gen).resume, None)

    def run(self, until: float) -> None:
        heap = self.heap
        while heap and heap[0][0] <= until:
            t, _, _, fn, arg = heappop(heap)
            self.now = t
            self.events += 1
            fn(arg)


class _Process:
    __slots__ = ("gen",)

    def __init__(self, gen) -> None:
        self.gen = gen

    def resume(self, ev: Optional[_Event]) -> None:
        try:
            nxt = self.gen.send(None if ev is None else ev.value)
        except StopIteration:
            return
        nxt.callbacks.append(self.resume)


class _Queue:
    def __init__(self, sim: _Sim) -> None:
        self.sim = sim
        self.items: List[Any] = []
        self.waiters: List[_Event] = []

    def put(self, item: Any) -> None:
        if self.waiters:
            ev = self.waiters.pop(0)
            ev.value = item
            self.sim.call(0.0, self.sim.trigger, ev)
        else:
            self.items.append(item)

    def get(self) -> _Event:
        ev = _Event()
        if self.items:
            ev.value = self.items.pop(0)
            self.sim.call(0.0, self.sim.trigger, ev)
        else:
            self.waiters.append(ev)
        return ev


def _simulate() -> int:
    """The discrete-event part of a unit; returns its event count."""
    rng = Random(7)
    sim = _Sim()
    nodes: List[Dict[str, Any]] = [
        {"inbox": _Queue(sim), "rx": 0, "bytes": 0, "polls": 0}
        for _ in range(4)]

    def sender(i: int):
        for k in range(_MSGS):
            dst = (i + 1 + k % 3) % 4
            msg = {"src": i, "dst": dst, "size": 8 << (k % 5), "tag": k}
            yield sim.timeout(rng.expovariate(1.0))
            sim.call(0.5 + msg["size"] * 1e-4, nodes[dst]["inbox"].put, msg)

    def receiver(i: int):
        node = nodes[i]
        while True:
            msg = yield node["inbox"].get()
            node["rx"] += 1
            node["bytes"] += msg["size"]
            yield sim.timeout(0.05)

    def poller(i: int):
        node = nodes[i]
        while True:
            node["polls"] += 1
            yield sim.timeout(0.3)

    for i in range(4):
        sim.process(sender(i))
        sim.process(receiver(i))
        sim.process(poller(i))
    sim.run(until=_MSGS * 4.0)
    if sum(n["rx"] for n in nodes) != 4 * _MSGS or sim.events != _EVENTS:
        raise RuntimeError(f"reference workload changed: {sim.events} "
                           f"events, expected {_EVENTS}")
    return sim.events


def make_heap() -> List[Dict[str, Any]]:
    """The large live heap that the units touch."""
    rng = Random(3)
    heap = [{"key": i, "value": rng.random(), "peer": None}
            for i in range(_HEAP_SIZE)]
    for node in heap:
        node["peer"] = heap[rng.randrange(_HEAP_SIZE)]
    return heap


def _touch_heap(heap: List[Dict[str, Any]]) -> float:
    """The cache-missing part of a unit: follow random peers."""
    x, acc = 777, 0.0
    for _ in range(_HEAP_ACCESSES):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        node = heap[x % _HEAP_SIZE]["peer"]
        acc += node["value"]
        node["key"] += 1
    return acc


def unit(heap: List[Dict[str, Any]]) -> int:
    """Run one reference unit; returns its kernel event count."""
    events = _simulate()
    _touch_heap(heap)
    return events


def unit_times(heap: List[Dict[str, Any]], budget_s: float) -> List[float]:
    """Run whole units for about ``budget_s`` CPU seconds (at least two
    units), with the collector off; returns each unit's CPU time."""
    out: List[float] = []
    spent = 0.0
    gc.disable()
    try:
        while len(out) < 2 or spent < budget_s:
            t0 = time.process_time()
            unit(heap)
            out.append(time.process_time() - t0)
            spent += out[-1]
    finally:
        gc.enable()
        gc.collect(0)
    return out


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process, and the children it starts later, to one CPU so
    that the reference runs on the core the program runs on; returns the
    CPU, or None where the platform cannot pin."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


class Reference:
    """The reference in a child process; use as a context manager, which
    stops the child and waits for it on every way out."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._to_child, self._from_child = self._proc.stdin, self._proc.stdout

    def sample(self, budget_s: float) -> List[float]:
        """CPU seconds of each unit the child ran for ``budget_s``."""
        self._to_child.write(f"{budget_s!r}\n")
        self._to_child.flush()
        line = self._from_child.readline()
        if not line:
            raise RuntimeError("the reference process ended early")
        return json.loads(line)

    def close(self) -> None:
        """End the child (its input closes) and wait for it."""
        try:
            self._to_child.close()
        except OSError:   # the child already ended and the pipe broke
            pass
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._from_child.close()

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _serve() -> None:
    heap = make_heap()
    for line in sys.stdin:
        print(json.dumps(unit_times(heap, float(line))), flush=True)


if __name__ == "__main__":
    _serve()
