"""Profiling breakdowns: where does the (virtual) time go?

The paper repeatedly leans on profiling to explain results ("Profiling
results show that it spent the vast majority of time inside the MPI_Test
function, spinning on the blocking lock of the ucp_progress function").
This module produces the analogous breakdown from a finished simulation
run: lock waits, progress-engine activity, message census, worker time
split into compute vs communication-path cycles.
"""

from __future__ import annotations

from typing import Dict, List

from ..hpx_rt.runtime import HpxRuntime
from .reporting import format_table

__all__ = ["runtime_breakdown", "format_breakdown", "lock_report"]


def runtime_breakdown(rt: HpxRuntime) -> Dict[str, float]:
    """Aggregate accounting across all localities of a finished run."""
    c = rt.census()
    out: Dict[str, float] = {
        "virtual_time_us": c.now,
        "wire_msgs": c.total("fabric", "msgs"),
        "wire_bytes": c.total("fabric", "bytes", 0.0),
        "worker_cpu_us": c.total("worker", "cpu_us", 0.0),
        "worker_compute_us": c.total("worker", "compute_us", 0.0),
        "worker_lock_wait_us": c.total("worker", "lock_wait_us", 0.0),
        "tasks_run": c.total("worker", "tasks_run"),
        "background_calls": c.total("worker", "background_calls"),
        "parcels_sent": c.total("layer", "parcels_sent"),
        "messages_sent": c.total("layer", "messages_sent"),
    }
    # backend-specific: the MPI big lock is the star of the paper
    if c.of("mpi"):
        out["mpi_progress_calls"] = c.total("mpi", "progress_calls")
        out["mpi_lock_wait_us"] = c.total("mpi_lock", "total_wait_us", 0.0)
        out["mpi_lock_acquisitions"] = c.total("mpi_lock", "acquisitions")
        out["mpi_unexpected_msgs"] = c.total("mpi", "unexpected_msgs")
    # symmetric LCI-side accounting: the paper's §2.1 resources (packet
    # pool, completion queues, synchronizers) each get the counters the
    # MPI side gets for its big lock
    if c.of("device"):
        for kind, prefix, keys in (
                ("device", "lci_", ("progress_calls", "progress_contended",
                                    "msgs_progressed")),
                ("pool", "lci_pool_", ("acquires", "exhaustions",
                                       "squeezed", "in_use", "capacity")),
                ("cq", "lci_cq_", ("signals", "pops", "empty_pops")),
                ("pp", "lci_", ("idle_rounds_elided", "lazy_materialized",
                                "lazy_ties_resolved", "sync_pending"))):
            for key in keys:
                out[prefix + key] = c.total(kind, key)
        out["lci_cq_max_depth"] = max(
            [0] + [p.gauges["max_depth"] for p in c.of("cq")])
    return out


def format_breakdown(breakdown: Dict[str, float]) -> str:
    """Paper-style profiling table, most interesting rows first."""
    t = max(breakdown.get("virtual_time_us", 0.0), 1e-9)
    rows: List[List[str]] = []

    def row(key: str, label: str, share_of_time: bool = False) -> None:
        if key not in breakdown:
            return
        v = breakdown[key]
        cell = f"{v:,.1f}" if isinstance(v, float) else f"{v:,}"
        extra = f"{100.0 * v / t:.1f}% of runtime" if share_of_time else ""
        rows.append([label, cell, extra])

    row("virtual_time_us", "virtual time (us)")
    row("worker_compute_us", "application compute (us)", True)
    row("worker_cpu_us", "communication-path cycles (us)", True)
    row("worker_lock_wait_us", "worker lock-wait (us)", True)
    row("mpi_lock_wait_us", "MPI progress-lock wait (us)", True)
    row("mpi_lock_acquisitions", "MPI progress-lock acquisitions")
    row("mpi_progress_calls", "MPI progress calls")
    row("mpi_unexpected_msgs", "MPI unexpected messages")
    row("lci_progress_calls", "LCI progress calls")
    row("lci_progress_contended", "LCI progress try-lock failures")
    row("lci_msgs_progressed", "LCI messages progressed")
    row("lci_pool_acquires", "LCI packet-pool acquires")
    row("lci_pool_exhaustions", "LCI packet-pool exhaustions")
    row("lci_pool_squeezed", "LCI packet-pool fault squeezes")
    row("lci_pool_in_use", "LCI packets in use (end of run)")
    row("lci_pool_capacity", "LCI packet-pool capacity")
    row("lci_cq_signals", "LCI completion-queue signals")
    row("lci_cq_pops", "LCI completion-queue pops")
    row("lci_cq_empty_pops", "LCI completion-queue empty pops")
    row("lci_cq_max_depth", "LCI completion-queue max depth")
    row("lci_sync_pending", "LCI synchronizers pending (end of run)")
    row("tasks_run", "tasks executed")
    row("background_calls", "background-work invocations")
    row("parcels_sent", "parcels sent")
    row("messages_sent", "HPX messages sent")
    row("wire_msgs", "wire messages")
    row("wire_bytes", "wire bytes")
    return format_table(rows, header=["metric", "value", "note"])


def lock_report(rt: HpxRuntime) -> str:
    """Per-lock contention summary across all localities."""
    rows: List[List[str]] = []
    for p in rt.census().parts:
        if p.kind not in ("mpi_lock", "lock"):
            continue
        acq = p.counters["acquisitions"]
        if acq == 0:
            continue
        wait = p.counters["total_wait_us"]
        rows.append([p.name, f"{acq:,}", f"{wait:,.1f}",
                     f"{wait / acq:.3f}", f"{p.gauges['max_queue']}"])
    rows.sort(key=lambda r: -float(r[2].replace(",", "")))
    return format_table(rows, header=["lock", "acquisitions",
                                      "total wait (us)", "wait/acq (us)",
                                      "max queue"])
