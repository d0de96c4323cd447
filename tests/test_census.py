"""The end-of-run summaries against a committed golden.

``runtime_breakdown``, ``fault_summary``, ``flow_summary``,
``metrics().as_dict()`` and the adaptive controller's summary and
decision log are views of one stack census (:mod:`repro.obs.census`).
Their keys, values and zero-omission are pinned here, point by point,
against ``tests/golden/census_views.json``: six configuration families,
each run plain, with 2% drops, under the overload-smoke flow policy and
with adaptation on, snapshotted mid-run and at the end.

JSON keeps floats exact (``repr`` round-trips) and keeps int and float
apart, so the comparison is exact dict equality.  Per-peer gauges have
int keys, which JSON turns into strings; both sides go through one JSON
round trip before they are compared.

To re-record after an intended change to a summary, run
``PYTHONPATH=src python tests/test_census.py`` and say why in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from repro import FaultPlan, FlowControlPolicy, make_runtime
from repro.adapt import AdaptiveSpec
from repro.bench import MessageRateParams, runtime_breakdown
from repro.bench import message_rate
from repro.hpx_rt.platform import EXPANSE

GOLDEN = Path(__file__).parent / "golden" / "census_views.json"

CONFIGS = ["mpi", "mpi_i", "mpi_orig", "lci_psr_cq_pin_i",
           "lci_psr_cq_mt_i", "lci_sr_sy_mt"]
VARIANTS = ["plain", "drop", "flow", "adapt"]

#: the overload smoke's operating point, scenario and policy
PARAMS = MessageRateParams(msg_size=8, batch=50, total_msgs=600,
                           platform=EXPANSE)
OVERLOAD = "squeeze=0:3000@0*1,slow=0:4000@1*2"
#: simulated time of the mid-run snapshot (µs)
MID_US = 250.0


def _layers(variant):
    if variant == "drop":
        return {"fault_plan": FaultPlan.parse("drop=0.02")}
    if variant == "flow":
        return {"fault_plan": FaultPlan.parse(OVERLOAD),
                "flow_policy": FlowControlPolicy(
                    credit_window=4, max_backlog=64,
                    max_queued_parcels=256, rendezvous_fallback_after=2)}
    if variant == "adapt":
        return {"adapt": AdaptiveSpec()}
    return {}


def _views(rt):
    out = {"runtime_breakdown": runtime_breakdown(rt),
           "fault_summary": rt.fault_summary(),
           "flow_summary": rt.flow_summary(),
           "metrics": rt.metrics().as_dict()}
    if rt.adapt is not None:
        out["adapt_summary"] = rt.adapt.summary()
        out["adapt_decisions"] = list(rt.adapt.decisions)
    return out


def observe(config, variant):
    """Views of one message-rate point, mid-run and at the end, after
    one JSON round trip."""
    rt = make_runtime(config, platform=EXPANSE, n_localities=2, seed=11,
                      **_layers(variant))
    snaps = {}
    rt.sim.schedule_call(MID_US, lambda: snaps.update(mid=_views(rt)))
    message_rate.drive(rt, PARAMS)
    snaps["end"] = _views(rt)
    return json.loads(json.dumps(snaps))


def _record():
    golden = {f"{c}/{v}": observe(c, v) for c in CONFIGS for v in VARIANTS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("config", CONFIGS)
def test_views_match_golden(golden, config, variant):
    assert observe(config, variant) == golden[f"{config}/{variant}"]


def test_golden_covers_every_layer(golden):
    """The matrix exercises what the views report: drops, flow gauges,
    retunes, and both backends' counters."""
    ends = {k: v["end"] for k, v in golden.items()}
    assert ends["mpi_i/drop"]["fault_summary"].get("retransmits", 0) > 0
    assert ends["lci_psr_cq_pin_i/flow"]["flow_summary"]["L0"]["credits"]
    assert any(e.get("adapt_decisions") for e in ends.values())
    assert "mpi_lock_wait_us" in ends["mpi/plain"]["runtime_breakdown"]
    assert "lci_cq_pops" in ends["lci_sr_sy_mt/plain"]["runtime_breakdown"]


if __name__ == "__main__":
    _record()
