"""Observability-layer tests: span recording, lifecycle-chain correlation,
Chrome-trace export, critical-path analysis, metrics — and the contract
that tracing never changes simulation results (pytest -m obs)."""

import json

import pytest

from repro.bench import LatencyParams, MessageRateParams, RunSpec, run
from repro.faults import FaultPlan
from repro.obs import (CATEGORIES, TRACE_PRESETS, MetricsRegistry,
                       SpanRecorder, analyze, build_chains, parse_trace_spec,
                       render_timeline, to_chrome_trace,
                       to_merged_chrome_trace, validate_chrome_trace)
from repro.sim.core import Simulator
from repro.sim.stats import TimeSeries, percentile

pytestmark = pytest.mark.obs

MPI_CFG = "mpi_i"
LCI_CFG = "lci_psr_cq_pin_i"
PARAMS = LatencyParams(msg_size=8, window=16, steps=30)
EXPECTED_MSGS = 2 * PARAMS.window * PARAMS.steps  # every ping and pong


@pytest.fixture(scope="module")
def traced_mpi():
    return run(RunSpec("latency", MPI_CFG, PARAMS, trace="parcel"))


@pytest.fixture(scope="module")
def traced_lci():
    return run(RunSpec("latency", LCI_CFG, PARAMS, trace="parcel"))


# ---------------------------------------------------------------------------
# trace-spec parsing
# ---------------------------------------------------------------------------
def test_parse_trace_spec_presets():
    assert parse_trace_spec(None) is None
    assert parse_trace_spec(True) is None
    assert parse_trace_spec("all") is None
    parcel = parse_trace_spec("parcel")
    assert parcel == TRACE_PRESETS["parcel"]
    assert "lock" not in parcel          # raw lock traffic is opt-in
    assert parse_trace_spec("lifecycle") == parcel
    assert parse_trace_spec("parcel,lock") == parcel | {"lock"}
    assert parse_trace_spec("wire, msg") == frozenset({"wire", "msg"})
    assert parse_trace_spec(["wire", "msg"]) == frozenset({"wire", "msg"})
    assert parse_trace_spec("all,wire") is None


def test_parse_trace_spec_rejects_garbage():
    with pytest.raises(ValueError):
        parse_trace_spec("bogus")
    with pytest.raises(ValueError):
        parse_trace_spec("")
    with pytest.raises(ValueError):
        parse_trace_spec(["wire", "nope"])


# ---------------------------------------------------------------------------
# SpanRecorder invariants
# ---------------------------------------------------------------------------
def test_recorder_filtering_and_none_safe_end():
    sim = Simulator()
    rec = SpanRecorder(sim, spec="wire")
    assert rec.wants("wire") and not rec.wants("lock")
    sp = rec.begin("lock", "w")      # filtered -> None
    assert sp is None
    rec.end(sp)                      # must be a no-op, not a crash
    rec.instant("lock", "x")
    assert len(rec) == 0
    rec.instant("wire", "x", mid=1)
    assert len(rec) == 1


def test_recorder_capacity_drops_not_grows():
    sim = Simulator()
    rec = SpanRecorder(sim, spec="all", capacity=2)
    for i in range(5):
        rec.instant("msg", "e", mid=i)
    assert len(rec) == 2
    assert rec.dropped == 3


def test_span_nesting_well_formed(traced_mpi):
    rec = traced_mpi.obs
    assert len(rec) > 0 and rec.dropped == 0
    for sp in rec.spans:
        assert sp.cat in CATEGORIES
        if sp.kind == "instant":
            assert sp.t1 == sp.t0
        else:
            assert sp.t1 is None or sp.t1 >= sp.t0


# ---------------------------------------------------------------------------
# byte-identity: tracing must not change simulation results
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("cfg", [MPI_CFG, LCI_CFG])
def test_latency_byte_identical_with_tracing(cfg):
    base = run(RunSpec("latency", cfg, PARAMS, trace=None))
    traced = run(RunSpec("latency", cfg, PARAMS, trace="parcel"))
    assert base.obs is None and traced.obs is not None
    assert traced.total_time_us == base.total_time_us
    assert traced.as_dict() == base.as_dict()


def test_message_rate_byte_identical_with_tracing():
    params = MessageRateParams(msg_size=8, batch=50, total_msgs=500)
    base = run(RunSpec("message_rate", MPI_CFG, params, trace=None))
    traced = run(RunSpec("message_rate", MPI_CFG, params, trace="all"))
    assert traced.as_dict() == base.as_dict()
    assert traced.comm_time_us == base.comm_time_us


# ---------------------------------------------------------------------------
# lifecycle chains
# ---------------------------------------------------------------------------
def test_exactly_one_chain_per_delivered_message(traced_mpi):
    rec = traced_mpi.obs
    delivered = rec.query(cat="msg", name="delivered")
    assert len(delivered) == EXPECTED_MSGS
    # one delivery per message id — exactly-once, even at the trace level
    mids = [sp.fields["mid"] for sp in delivered]
    assert len(set(mids)) == len(mids)
    chains = build_chains(rec)
    complete = [c for c in chains.values() if c.complete]
    assert len(complete) == EXPECTED_MSGS
    for ch in complete:
        # causal ordering within each chain
        assert ch.t_ser0 <= ch.t_inject <= ch.t_arrive <= ch.t_delivered
        assert ch.src != ch.dst
        assert "hdr" in ch.parts


def test_chains_survive_retransmits():
    params = MessageRateParams(msg_size=8, batch=50, total_msgs=500)
    res = run(RunSpec("message_rate", LCI_CFG, params,
                      faults=FaultPlan(drop_prob=0.1), trace="parcel"))
    rec = res.obs
    rep = analyze(rec)
    assert rep.retransmits > 0
    assert len(rec.query(cat="msg", name="retransmit")) == rep.retransmits
    delivered = rec.query(cat="msg", name="delivered")
    mids = [sp.fields["mid"] for sp in delivered]
    assert len(set(mids)) == len(mids)   # retries never double-deliver
    # every delivered message still resolves to one complete chain
    chains = build_chains(rec)
    for mid in mids:
        assert chains[mid].complete


# ---------------------------------------------------------------------------
# critical-path analysis (the Fig. 7 narrative)
# ---------------------------------------------------------------------------
def test_components_sum_to_latency(traced_mpi):
    rep = analyze(traced_mpi.obs)
    assert rep.n_complete == EXPECTED_MSGS
    wall = traced_mpi.obs.sim.now
    for ch in rep.chains.values():
        if not ch.complete:
            continue
        assert sum(ch.components.values()) == pytest.approx(ch.latency)
        assert all(v >= 0.0 for v in ch.components.values())
        assert ch.latency <= wall
    assert sum(rep.totals.values()) == pytest.approx(rep.total_latency)
    shares = rep.shares()
    assert sum(shares.values()) == pytest.approx(1.0)


def test_mpi_dominated_by_progress_lock_wait(traced_mpi):
    """The paper's profiling claim: the improved MPI parcelport spends the
    vast majority of its time spinning on the progress lock."""
    rep = analyze(traced_mpi.obs)
    assert rep.dominant == "progress_lock_wait"
    assert rep.shares()["progress_lock_wait"] > 0.5


def test_lci_dominated_by_lock_free_polling(traced_mpi, traced_lci):
    rep = analyze(traced_lci.obs)
    assert rep.dominant == "progress_poll"
    assert rep.shares()["progress_lock_wait"] == 0.0
    # and the headline result: LCI finishes the same workload faster
    assert traced_lci.total_time_us < traced_mpi.total_time_us


# ---------------------------------------------------------------------------
# Chrome/Perfetto export
# ---------------------------------------------------------------------------
def test_chrome_trace_schema_valid(traced_mpi):
    doc = to_chrome_trace(traced_mpi.obs)
    assert validate_chrome_trace(doc) == []
    # survives a JSON round trip untouched
    doc2 = json.loads(json.dumps(doc))
    assert validate_chrome_trace(doc2) == []
    events = doc["traceEvents"]
    for ev in events:
        assert {"ph", "ts", "pid", "tid"} <= set(ev)
    assert sum(ev["ph"] == "B" for ev in events) \
        == sum(ev["ph"] == "E" for ev in events)
    assert any(ev["ph"] == "M" for ev in events)
    assert any(ev["ph"] == "s" for ev in events)  # wire flow arrows


def test_merged_chrome_trace(traced_mpi, traced_lci):
    doc = to_merged_chrome_trace([(traced_mpi.obs, "mpi"),
                                  (traced_lci.obs, "lci")])
    assert validate_chrome_trace(doc) == []
    pids = {ev["pid"] for ev in doc["traceEvents"]}
    assert any(p < 100 for p in pids) and any(p >= 100 for p in pids)
    labels = [r["label"] for r in doc["otherData"]["runs"]]
    assert labels == ["mpi", "lci"]


def test_validator_rejects_malformed_documents():
    assert validate_chrome_trace(42)
    assert validate_chrome_trace({"events": []})
    # E with no matching B
    bad = {"traceEvents": [
        {"ph": "E", "name": "x", "ts": 1.0, "pid": 0, "tid": 0}]}
    assert any("no open B" in e for e in validate_chrome_trace(bad))
    # unclosed B
    bad = {"traceEvents": [
        {"ph": "B", "name": "x", "ts": 1.0, "pid": 0, "tid": 0}]}
    assert any("unclosed" in e for e in validate_chrome_trace(bad))
    # missing required keys
    bad = {"traceEvents": [{"ph": "i", "ts": 0.0}]}
    assert validate_chrome_trace(bad)


def test_render_timeline_filters(traced_mpi):
    txt = render_timeline(traced_mpi.obs, categories=["wire"], limit=10)
    assert "wire:" in txt
    assert "parcel:" not in txt
    mid = traced_mpi.obs.query(cat="msg", name="delivered")[0].fields["mid"]
    chain_txt = render_timeline(traced_mpi.obs, mid=mid)
    assert "msg:delivered" in chain_txt


# ---------------------------------------------------------------------------
# stats percentiles + metrics registry
# ---------------------------------------------------------------------------
def test_percentile_and_timeseries():
    assert percentile([], 50.0) == 0.0
    assert percentile([7.0], 99.0) == 7.0
    vals = [float(i) for i in range(1, 101)]
    assert percentile(vals, 0.0) == 1.0
    assert percentile(vals, 100.0) == 100.0
    assert percentile(vals, 50.0) == pytest.approx(50.5)
    with pytest.raises(ValueError):
        percentile(vals, 101.0)
    ts = TimeSeries()
    for i, v in enumerate(vals):
        ts.record(float(i), v)
    assert ts.p50() == pytest.approx(50.5)
    assert ts.p90() == pytest.approx(90.1)
    assert ts.p99() == pytest.approx(99.01)
    assert ts.percentile(25.0) == pytest.approx(25.75)


def test_metrics_registry():
    reg = MetricsRegistry()
    reg.counter("pp.sends").inc()
    reg.counter("pp.sends").inc(2)
    reg.gauge("pool.in_use").set(5)
    h = reg.histogram("lat.us")
    h.observe_many([1.0, 2.0, 3.0, 4.0])
    assert reg.get("pp.sends").value == 3.0
    assert len(reg) == 3
    with pytest.raises(TypeError):
        reg.gauge("pp.sends")        # name already taken by a Counter
    assert set(reg.query("pp.")) == {"pp.sends"}
    d = reg.as_dict()
    assert d["pp.sends"] == 3.0
    assert d["pool.in_use"] == 5.0
    assert d["lat.us.count"] == 4.0
    assert d["lat.us.p50"] == pytest.approx(2.5)
    assert "pp.sends" in reg.render()


def test_runtime_metrics_snapshot(traced_mpi):
    m = traced_mpi.metrics
    assert m is not None
    d = m.as_dict()
    assert d["obs.spans"] == len(traced_mpi.obs)
    assert d["wire.msgs"] == EXPECTED_MSGS
    assert d["sim.virtual_time_us"] == pytest.approx(
        traced_mpi.total_time_us)
    assert d["obs.rx_wait_us.count"] > 0


# ---------------------------------------------------------------------------
# the trace_smoke figure end to end
# ---------------------------------------------------------------------------
def test_trace_smoke_figure(tmp_path):
    from repro.bench.figures import trace_smoke
    out = tmp_path / "trace.json"
    fig = trace_smoke(quick=True, trace_out=str(out), show_metrics=True)
    assert fig.meta["dominant"]["mpi_i"] == "progress_lock_wait"
    assert fig.meta["dominant"]["lci_psr_cq_pin_i"] == "progress_poll"
    assert fig.meta["trace_errors"] == []
    doc = json.loads(out.read_text())
    assert validate_chrome_trace(doc) == []
    assert "progress_lock_wait" in fig.render(plot=False)
