"""LCI completion mechanisms: completion queues, synchronizers, handlers.

The paper's §2.1 'versatile communication interface': any communication
primitive can complete into any of these.  The cost asymmetry between
:class:`CompletionQueue` (one pop drains any completion) and
:class:`Synchronizer` (each must be polled individually) is what produces
the 25–30 % peak-rate gap and the oscillations of the ``sy`` variants in
Figs 5 and 6.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from ..sim.core import Simulator
from ..sim.stats import StatSet
from .params import LciParams

__all__ = ["CompletionQueue", "Synchronizer", "HandlerCompletion"]

_cq_ids = itertools.count()


class CompletionQueue:
    """MPSC completion queue (``LCI_queue_*`` semantics).

    ``signal`` is called from progress-engine context (its CPU cost is
    charged there via :attr:`LciParams.cq_push_us`); ``pop`` returns
    ``(entry | None, cpu_cost_us)`` for the consumer to charge itself.
    """

    __slots__ = ("sim", "name", "params", "_items", "stats", "max_depth",
                 "on_signal")

    def __init__(self, sim: Simulator, params: LciParams, name: str = ""):
        self.sim = sim
        self.params = params
        self.name = name or f"lci_cq{next(_cq_ids)}"
        self._items: Deque[Any] = deque()
        self.stats = StatSet(self.name)
        self.max_depth = 0
        #: ``fn(cq)`` run before each signal: the consumer's idle workers
        #: that skip their empty pops must see the entry (see
        #: :meth:`repro.parcelport.lci_pp.LciParcelport._lazy_signal`)
        self.on_signal: Optional[Callable[["CompletionQueue"], None]] = None

    @property
    def signal_cost_us(self) -> float:
        return self.params.cq_push_us

    def signal(self, value: Any) -> None:
        hook = self.on_signal
        if hook is not None:
            hook(self)
        self._items.append(value)
        self.stats.inc("signals")
        if len(self._items) > self.max_depth:
            self.max_depth = len(self._items)

    def pop(self) -> Tuple[Optional[Any], float]:
        self.stats.inc("pops")
        if self._items:
            return self._items.popleft(), self.params.cq_pop_us
        self.stats.inc("empty_pops")
        return None, self.params.cq_pop_us * 0.5

    def __len__(self) -> int:
        return len(self._items)


class Synchronizer:
    """Single-operation completion object (MPI-request-like, §2.1).

    Each pending synchronizer must be polled individually (``test``),
    which is exactly the per-object overhead completion queues avoid.

    ``cancelled`` marks a synchronizer whose operation was aborted (a
    timed-out chain under fault injection): pending-list scans discard it
    instead of testing forever — without the flag, every aborted op leaks
    one permanently-pending synchronizer into the scan list.
    """

    __slots__ = ("signaled", "value", "cancelled")

    def __init__(self) -> None:
        self.signaled = False
        self.value: Any = None
        self.cancelled = False

    @property
    def signal_cost_us(self) -> float:
        # Synchronizers support multiple producers (§2.1), so a signal is
        # an atomic exchange + waker check — pricier than a CQ push.
        return 0.25

    def signal(self, value: Any) -> None:
        self.signaled = True
        self.value = value

    def test(self) -> bool:
        return self.signaled


class HandlerCompletion:
    """Function-handler completion: progress invokes ``fn(value)`` inline."""

    __slots__ = ("fn", "cost_us")

    def __init__(self, fn: Callable[[Any], None], cost_us: float = 0.10):
        self.fn = fn
        self.cost_us = cost_us

    @property
    def signal_cost_us(self) -> float:
        return self.cost_us

    def signal(self, value: Any) -> None:
        self.fn(value)
