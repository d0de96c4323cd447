"""Parallel sweep engine with content-addressed result caching.

Every figure in EXPERIMENTS.md is a sweep over independent, deterministic
``(config, workload-params, seed)`` points — embarrassingly parallel work
the seed repo ran strictly sequentially.  This module provides the three
pieces that remove that serialization without changing a single simulated
number:

* :func:`evaluate_point` — runs one :class:`~repro.bench.runner.RunSpec`
  (picklable, canonically serializable) and returns its flat metric dict;
  top-level so it can cross a ``ProcessPoolExecutor`` boundary.
* :class:`ResultCache` — a content-addressed on-disk cache.  The key is
  ``sha256(code fingerprint ‖ canonical spec JSON)`` where the code
  fingerprint hashes every ``repro`` source file, so re-running a figure
  after an *unrelated* edit outside ``src/repro`` is a cache hit while any
  change to the simulator code invalidates everything.
* :func:`run_points` — evaluates a spec list under the active
  :class:`ExecutionPolicy` (``--jobs N`` fans misses across worker
  processes; results always return in input order, so parallel output is
  element-wise identical to sequential).

The figure drivers in :mod:`repro.bench.figures` route all paper sweeps
through :func:`run_points`; the CLI knobs are ``--jobs N``, ``--cache DIR``
and ``--no-cache`` (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from .runner import RunSpec, refuse_under_shards, run

__all__ = [
    "ResultCache", "ExecutionPolicy",
    "code_fingerprint", "evaluate_point", "run_points",
    "set_policy", "policy", "execution",
]

#: environment variable consulted for a default cache directory
CACHE_ENV = "REPRO_CACHE_DIR"

#: on-disk cache entry schema tag
CACHE_SCHEMA = "repro-cache/2"


# ---------------------------------------------------------------------------
# code fingerprint
# ---------------------------------------------------------------------------
_FINGERPRINT: Optional[str] = None


def code_fingerprint(refresh: bool = False) -> str:
    """SHA-256 over every ``repro`` source file (path + contents).

    Cached per process; any edit under ``src/repro`` changes the digest and
    therefore every cache key derived from it.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None or refresh:
        import repro
        root = Path(repro.__file__).resolve().parent
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(root)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        _FINGERPRINT = h.hexdigest()
    return _FINGERPRINT


# ---------------------------------------------------------------------------
# sweep points
# ---------------------------------------------------------------------------
def evaluate_point(spec: RunSpec) -> Dict[str, float]:
    """Run one sweep point and return its flat metric dict.

    Top-level (and argument-picklable) so :class:`ProcessPoolExecutor`
    workers can execute it.  Under an active ``--shards N`` policy the
    point is handed to the sharded engine
    (:func:`repro.sim.shard.run_sharded_point`), which forks ``N`` shard
    processes that each re-enter this function under a shard context —
    the ``current_context()`` check keeps the recursion single-level.
    """
    from ..sim.shard.context import current_context

    if _POLICY.shards > 1 and current_context() is None:
        refuse_under_shards(spec)
        from ..sim.shard.runner import run_sharded_point
        return run_sharded_point(spec, _POLICY.shards)
    return run(spec).as_dict()


# ---------------------------------------------------------------------------
# on-disk result cache
# ---------------------------------------------------------------------------
class ResultCache:
    """Content-addressed cache of sweep-point results.

    Entry key = ``sha256(code_fingerprint ‖ spec.canonical())``; the entry
    file records the schema tag, the key's ingredients (for debuggability)
    and the result dict.  A changed parameter, seed, or any edit to the
    ``repro`` sources produces a different key — stale hits are impossible
    by construction, so there is no expiry logic.
    """

    def __init__(self, root: "str | Path"):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def key(self, spec: RunSpec) -> str:
        h = hashlib.sha256()
        h.update(code_fingerprint().encode())
        h.update(b"\0")
        h.update(spec.canonical().encode())
        return h.hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, spec: RunSpec) -> Optional[Dict[str, float]]:
        path = self._path(self.key(spec))
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if entry.get("schema") != CACHE_SCHEMA:
            self.misses += 1
            return None
        self.hits += 1
        return entry["result"]

    def put(self, spec: RunSpec, result: Dict[str, float]) -> None:
        key = self.key(spec)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # A temp name of this writer's own, in the entry's directory: two
        # writers storing the same key each rename a complete file.
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{key}.",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump({"schema": CACHE_SCHEMA, "key": key,
                           "fingerprint": code_fingerprint(),
                           "spec": json.loads(spec.canonical()),
                           "result": result}, fh, indent=1)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.stores += 1

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores}


# ---------------------------------------------------------------------------
# execution policy (what the CLI's --jobs/--cache/--no-cache configure)
# ---------------------------------------------------------------------------
@dataclass
class ExecutionPolicy:
    """How sweep points are evaluated: fan-out width + result cache +
    shard count for the conservative-parallel engine.

    ``shards`` deliberately does **not** enter the cache key: shard-count
    invariance (same bytes at any ``--shards N``) is part of the engine's
    contract, so a result computed at one shard count is a valid cache
    hit for every other.
    """

    jobs: int = 1
    cache: Optional[ResultCache] = None
    shards: int = 1


_POLICY = ExecutionPolicy()


def policy() -> ExecutionPolicy:
    """The active execution policy."""
    return _POLICY


def set_policy(jobs: Optional[int] = None,
               cache_dir: "str | Path | None" = None,
               no_cache: bool = False,
               shards: Optional[int] = None) -> ExecutionPolicy:
    """Configure the process-wide execution policy.

    ``cache_dir=None`` falls back to the ``REPRO_CACHE_DIR`` environment
    variable; ``no_cache=True`` disables caching regardless of both.
    """
    global _POLICY
    if jobs is not None:
        if jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {jobs}")
        _POLICY.jobs = jobs
    if shards is not None:
        if shards < 1:
            raise ValueError(f"--shards must be >= 1, got {shards}")
        _POLICY.shards = shards
    if no_cache:
        _POLICY.cache = None
    elif cache_dir is not None:
        _POLICY.cache = ResultCache(cache_dir)
    elif _POLICY.cache is None and os.environ.get(CACHE_ENV):
        _POLICY.cache = ResultCache(os.environ[CACHE_ENV])
    return _POLICY


@contextmanager
def execution(jobs: int = 1, cache: "ResultCache | str | Path | None" = None,
              shards: int = 1) -> Iterator[ExecutionPolicy]:
    """Temporarily swap the execution policy (used by tests and drivers)."""
    global _POLICY
    prev = _POLICY
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    _POLICY = ExecutionPolicy(jobs=jobs, cache=cache, shards=shards)
    try:
        yield _POLICY
    finally:
        _POLICY = prev


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------
def _fan_out(fn: Callable[[Any], Any], items: Sequence[Any],
             jobs: int) -> Iterator[Any]:
    """Yield ``fn(item)`` for every item, **in input order** — in process
    for ``jobs == 1``, else over a :class:`ProcessPoolExecutor` (``fn``
    and the items must then be picklable)."""
    if jobs > 1 and len(items) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as ex:
            yield from ex.map(fn, items,
                              chunksize=max(1, len(items) // (jobs * 4)))
    else:
        for item in items:
            yield fn(item)


def run_points(specs: Sequence[RunSpec],
               jobs: Optional[int] = None,
               cache: "ResultCache | None" = None,
               no_cache: bool = False,
               progress: Optional[Callable[[int, int], None]] = None
               ) -> List[Dict[str, float]]:
    """Evaluate sweep points; results are returned **in input order**.

    Cache hits are resolved first; remaining misses run sequentially in
    process (``jobs == 1``) or fan out over a :class:`ProcessPoolExecutor`
    (``jobs > 1``).  Because every point is an independent deterministic
    simulation keyed by its own seed, the output is element-wise identical
    whatever the fan-out width — asserted in
    ``tests/test_parallel_sweep.py``.

    Traced specs are refused: a traced run exists for its span recorder,
    which a result dict (and so the cache) drops — call
    :func:`repro.bench.run` in process instead.
    """
    for spec in specs:
        if spec.trace:
            raise ValueError(
                f"run_points does not take traced specs (trace="
                f"{spec.trace!r}): the result dict drops the span "
                f"recorder; call repro.bench.run(spec) instead")
    pol = _POLICY
    if jobs is None:
        jobs = pol.jobs
    if pol.shards > 1:
        # Each point already fans out over shard processes; stacking a
        # ProcessPoolExecutor on top would fork from daemonic workers.
        jobs = 1
    if cache is None and not no_cache:
        cache = pol.cache
    if no_cache:
        cache = None

    results: List[Optional[Dict[str, float]]] = [None] * len(specs)
    miss_idx: List[int] = []
    if cache is not None:
        for i, spec in enumerate(specs):
            hit = cache.get(spec)
            if hit is not None:
                results[i] = hit
            else:
                miss_idx.append(i)
    else:
        miss_idx = list(range(len(specs)))

    done = len(specs) - len(miss_idx)
    if progress is not None and done:
        progress(done, len(specs))

    misses = [specs[i] for i in miss_idx]
    for i, result in zip(miss_idx, _fan_out(evaluate_point, misses, jobs)):
        results[i] = result
        if cache is not None:
            cache.put(specs[i], result)
        done += 1
        if progress is not None:
            progress(done, len(specs))
    return results  # type: ignore[return-value]
