"""Seed-stable random-stream derivation shared by every sweep driver.

Two kinds of determinism matter for the figure pipeline:

* **sweep-level** — a figure repeats each point over a fixed seed ladder
  (:func:`repeat_seeds`, the exact ``1000 + i*7919`` sequence the seed
  repo used inline in ``harness.repeat`` and the figure drivers; kept
  bit-for-bit so every committed ``results/*.txt`` stays byte-identical);
* **stream-level** — within one run, every stochastic component draws
  from a *named substream* derived from the run's root seed
  (:func:`derive_seed` / :func:`substream_seeds`, the same
  ``sha256(f"{root}:{name}")`` recipe as :class:`repro.sim.rng.RngPool`),
  so adding a new consumer never perturbs existing draws and results are
  invariant under ``--jobs`` fan-out and cache warm/cold by construction.

The serving workload (:mod:`repro.apps.serve`) leans on the second kind:
its arrival times, client ids, payload sizes and service times are all
precomputed from named substreams of the point seed before the simulation
starts, so the *offered* workload is a pure function of ``(params, seed)``
no matter what the network later does to it.
"""

from __future__ import annotations

import hashlib
from typing import List

__all__ = ["derive_seed", "substream_seeds", "repeat_seeds",
           "REPEAT_BASE", "REPEAT_STEP"]

#: the canonical sweep-seed ladder parameters (see :func:`repeat_seeds`)
REPEAT_BASE = 1000
REPEAT_STEP = 7919


def derive_seed(root: int, name: str) -> int:
    """A stable 64-bit seed for substream ``name`` of root seed ``root``.

    Identical recipe to :meth:`repro.sim.rng.RngPool.stream`, so a seed
    derived here and a stream created there from the same ``(root, name)``
    agree — the bench layer can pre-derive seeds for worker processes and
    the in-run components re-derive the very same streams.
    """
    digest = hashlib.sha256(f"{int(root)}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def substream_seeds(root: int, name: str, n: int) -> List[int]:
    """``n`` independent seeds for the indexed substreams ``name[i]``."""
    if n < 0:
        raise ValueError("need n >= 0 substream seeds")
    return [derive_seed(root, f"{name}[{i}]") for i in range(n)]


def repeat_seeds(n: int, base: int = REPEAT_BASE,
                 step: int = REPEAT_STEP) -> List[int]:
    """The sweep-repetition seed ladder: ``base + i*step`` for i < n.

    This is the exact sequence :func:`repro.bench.harness.repeat` and the
    figure drivers have always used; it lives here so every sweep (message
    rate, latency, Octo-Tiger, FFT, fault/overload smokes, serving) draws
    its per-repetition seeds from one place and the committed results stay
    byte-identical.
    """
    if n < 1:
        raise ValueError("need at least one repetition seed")
    return [base + i * step for i in range(n)]
