"""Coordinator for sharded runs: fork workers, drive the window barrier.

The coordinator is deliberately dumb — it never looks inside a message
and holds no simulation state.  Each round it:

1. collects one ``("bar", next_event_time, exports, fired, meta)`` from
   every shard,
2. routes the exported deliveries to their destination shards (ownership
   is ``lid * n_shards // n_localities`` — pure arithmetic),
3. computes the global floor ``M`` = min(next event anywhere, earliest
   buffered delivery) and either grants the next window
   ``("win", M + lookahead, imports)`` or, when the run's stop condition
   holds, broadcasts ``("stop",)``,
4. after the stop, relays every shard's contribution snapshot to the
   root shard and returns the root's result.

Correctness of the window ``[_, M + lookahead)`` is the standard
conservative-parallel argument: any event that *sends* executes at
``t >= M``, so its delivery lands at ``t + lookahead >= M + lookahead``
— strictly outside the window being granted — and is exchanged at the
next barrier before any shard's clock reaches it.
"""

from __future__ import annotations

import multiprocessing as mp
from typing import Any, List, Optional

from .context import ShardContext, ShardStopped, owner_of, set_current

__all__ = ["run_sharded", "run_sharded_point", "ShardRunError"]


class ShardRunError(RuntimeError):
    """A shard process failed; carries the child's traceback text."""

    def __init__(self, shard_id: int, tb: str):
        super().__init__(
            f"shard {shard_id} failed:\n{tb.rstrip()}")
        self.shard_id = shard_id
        self.child_traceback = tb


def _evaluate(task) -> Any:
    """A task is either a RunSpec or a picklable zero-arg callable."""
    if callable(task):
        return task()
    from ...bench.parallel import evaluate_point
    return evaluate_point(task)


def _child_main(conn, task, shard_id: int, n_shards: int) -> None:
    """Entry point of one shard worker process."""
    try:
        set_current(ShardContext(shard_id, n_shards, conn))
        result = _evaluate(task)
        conn.send(("result", result))
    except ShardStopped:
        conn.send(("peer_done",))
    except BaseException:
        import traceback
        try:
            conn.send(("err", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # coordinator already gone
            pass
    finally:
        conn.close()


def _abort(conns, skip: int, tb: str) -> None:
    for sid, c in enumerate(conns):
        if sid == skip:
            continue
        try:
            c.send(("abort", tb))
        except (BrokenPipeError, OSError):
            pass


def _coordinate(conns) -> Any:
    n = len(conns)
    inf = float("inf")
    pending: List[List[tuple]] = [[] for _ in range(n)]
    windows = 0

    # -- barrier rounds ------------------------------------------------
    while True:
        nts: List[float] = []
        fireds: List[bool] = []
        meta = None
        for sid, c in enumerate(conns):
            msg = c.recv()
            tag = msg[0]
            if tag == "err":
                _abort(conns, sid, msg[1])
                raise ShardRunError(sid, msg[1])
            if tag != "bar":  # pragma: no cover - protocol guard
                raise RuntimeError(
                    f"shard {sid}: expected bar, got {tag!r}")
            _, nt, exports, fired, meta = msg
            nts.append(nt)
            fireds.append(fired)
            mode, deadline, lookahead, n_loc = meta
            for exp in exports:
                pending[owner_of(exp[3], n, n_loc)].append(exp)
        mode, deadline, lookahead, n_loc = meta
        floor = min(nts)
        for buf in pending:
            for exp in buf:
                if exp[0] < floor:
                    floor = exp[0]
        stop = ((mode == "root" and fireds[0])
                or (mode == "all" and all(fireds))
                or (deadline is not None and floor > deadline)
                or floor == inf)
        if stop:
            for c in conns:
                c.send(("stop",))
            break
        horizon = floor + lookahead
        windows += 1
        for sid, c in enumerate(conns):
            c.send(("win", horizon, pending[sid]))
            pending[sid] = []

    # -- contributions → root, result ← root ---------------------------
    contribs: List[Optional[dict]] = [None] * n
    for sid, c in enumerate(conns):
        msg = c.recv()
        if msg[0] == "err":
            _abort(conns, sid, msg[1])
            raise ShardRunError(sid, msg[1])
        if msg[0] != "contrib":  # pragma: no cover - protocol guard
            raise RuntimeError(
                f"shard {sid}: expected contrib, got {msg[0]!r}")
        contribs[sid] = msg[1]
    conns[0].send(("fin", contribs[1:]))
    for c in conns[1:]:
        c.send(("fin", None))

    result = None
    for sid, c in enumerate(conns):
        msg = c.recv()
        if msg[0] == "err":
            _abort(conns, sid, msg[1])
            raise ShardRunError(sid, msg[1])
        if sid == 0:
            if msg[0] != "result":  # pragma: no cover - protocol guard
                raise RuntimeError(
                    f"root shard: expected result, got {msg[0]!r}")
            result = msg[1]
        elif msg[0] != "peer_done":  # pragma: no cover - protocol guard
            raise RuntimeError(
                f"shard {sid}: expected peer_done, got {msg[0]!r}")
    return result


def run_sharded_point(task, shards: int) -> Any:
    """Evaluate one sweep point under ``shards`` worker processes.

    ``task`` is a :class:`repro.bench.RunSpec` or a picklable
    zero-argument callable (used by tests to shard arbitrary runs).
    With ``shards == 1`` the task runs in-process under a shard context
    (same code paths, no processes, no barriers) — this is the identity
    anchor the byte-equality contract is stated against.
    """
    from .context import current_context

    if shards < 1:
        raise ValueError("shards must be >= 1")
    if current_context() is not None:
        raise RuntimeError("already inside a shard worker")
    if shards == 1:
        set_current(ShardContext(0, 1))
        try:
            return _evaluate(task)
        finally:
            set_current(None)

    ctx = mp.get_context("fork")
    conns = []
    procs = []
    try:
        for sid in range(shards):
            parent, child = ctx.Pipe()
            p = ctx.Process(target=_child_main,
                            args=(child, task, sid, shards),
                            name=f"shard-{sid}", daemon=True)
            p.start()
            child.close()
            conns.append(parent)
            procs.append(p)
        try:
            return _coordinate(conns)
        except EOFError:
            dead = [p.name for p in procs if not p.is_alive()]
            raise ShardRunError(
                -1, f"a shard process died without reporting an error "
                    f"(dead: {dead or 'none — pipe closed early'})")
    finally:
        for c in conns:
            c.close()
        for p in procs:
            p.join(timeout=10)
            if p.is_alive():  # pragma: no cover - hung child
                p.terminate()
                p.join(timeout=5)


def run_sharded(task, shards: int) -> Any:
    """Public alias of :func:`run_sharded_point` (the ``--shards N``
    engine entry point)."""
    return run_sharded_point(task, shards)
