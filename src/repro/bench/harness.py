"""Repetition harness: run an experiment N times, report mean/std.

The paper performs every experiment at least five times and plots mean and
standard deviation; drivers here do the same (with a configurable repeat
count, since DES runs are deterministic given a seed — repetitions vary the
seed, which perturbs workload jitter and tree refinement).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List

from ..sim.stats import summarize
from .seeds import REPEAT_BASE, repeat_seeds

__all__ = ["Measurement", "fold", "repeat", "Series"]


@dataclass
class Measurement:
    """Mean/std summary of one measured quantity over repetitions."""

    values: List[float]

    @property
    def mean(self) -> float:
        return summarize(self.values)["mean"]

    @property
    def std(self) -> float:
        return summarize(self.values)["std"]

    @property
    def n(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"{self.mean:.3g}±{self.std:.2g}"


def fold(results: Iterable[Dict[str, float]]) -> Dict[str, Measurement]:
    """Aggregate per-repetition result dicts into one Measurement per key."""
    acc: Dict[str, List[float]] = {}
    for out in results:
        for k, v in out.items():
            acc.setdefault(k, []).append(float(v))
    return {k: Measurement(v) for k, v in acc.items()}


def repeat(fn: Callable[..., Dict[str, float]], n: int = 3,
           base_seed: int = REPEAT_BASE,
           fn_kwargs: "Dict[str, Any] | None" = None
           ) -> Dict[str, Measurement]:
    """Run ``fn(seed, **fn_kwargs)`` ``n`` times; aggregate each key.

    Seeds come from the shared :func:`repro.bench.seeds.repeat_seeds`
    ladder (exactly the historical ``base + i*7919`` sequence), so the
    sequential harness and the parallel sweep engine evaluate identical
    points.  ``fn_kwargs`` threads extra experiment knobs (e.g. a fault
    plan) through to every repetition without wrapping ``fn`` in a lambda.
    """
    kw = fn_kwargs or {}
    return fold(fn(seed, **kw) for seed in repeat_seeds(n, base=base_seed))


@dataclass
class Series:
    """One plotted line: label + x values + y measurements."""

    label: str
    xs: List[float] = field(default_factory=list)
    ys: List[float] = field(default_factory=list)
    yerr: List[float] = field(default_factory=list)

    def add(self, x: float, m: "Measurement | float") -> None:
        self.xs.append(float(x))
        if isinstance(m, Measurement):
            self.ys.append(m.mean)
            self.yerr.append(m.std)
        else:
            self.ys.append(float(m))
            self.yerr.append(0.0)

    @property
    def peak(self) -> float:
        return max(self.ys) if self.ys else 0.0

    def y_at(self, x: float) -> float:
        """The y value at the x closest to ``x``."""
        if not self.xs:
            raise ValueError("empty series")
        idx = min(range(len(self.xs)), key=lambda i: abs(self.xs[i] - x))
        return self.ys[idx]
