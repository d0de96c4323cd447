"""Lazy idle rounds vs the step path.

Pinned-progress ``cq`` LCI parcelports let an idle worker replace the
empty-pop tail of its background work by one heap record
(:meth:`repro.parcelport.lci_pp.LciParcelport._background_lazy`).  The
contract is model-level: every result, counter and observable action is
identical to the step path, only the kernel's ``event_count`` drops.

Each case runs twice: as shipped, and with the step path forced by
patching :func:`repro.parcelport.lci_pp.lazy_idle_eligible` to refuse.
"""

import math
import random
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from repro import EXPANSE, LAPTOP, HpxRuntime, PPConfig
from repro.apps.octotiger import OctoTigerConfig, OctoTigerDriver
from repro.bench import runtime_breakdown
from repro.hpx_rt.scheduler import Scheduler
from repro.hpx_rt.task import Task
from repro.lci_sim.params import LciParams
from repro.parcelport import lci_pp, make_parcelport_factory

LAZY_KEYS = ("lci_idle_rounds_elided", "lci_lazy_materialized",
             "lci_lazy_ties_resolved")

ELIGIBLE = [f"lci_{proto}_cq_{prog}" for proto in ("psr", "sr")
            for prog in ("pin", "pin_i")]


def _runtime(cfg, ndev, seed, platform=EXPANSE, n_localities=2):
    config = PPConfig.parse(cfg)
    factory = make_parcelport_factory(
        config, lci_params=LciParams(num_devices=ndev))
    return HpxRuntime(platform, n_localities, factory,
                      immediate=config.immediate, seed=seed)


def observe(monkeypatch, step, build):
    """Run ``build() -> (rt, drive, result)`` with the lazy path on or
    forced off; return everything the two paths must agree on."""
    with monkeypatch.context() as m:
        if step:
            m.setattr(lci_pp, "lazy_idle_eligible", lambda pp: False)
        sleepers = []
        register = Scheduler.register_sleeper

        def record(sched, ev):
            proc = sched.sim.active_process
            sleepers.append((sched.name, sched.sim.now,
                             proc.name if proc is not None else None))
            register(sched, ev)

        m.setattr(Scheduler, "register_sleeper", record)
        rt, drive, result = build()
        drive()
        breakdown = runtime_breakdown(rt)
        lazy = {k: breakdown.pop(k) for k in LAZY_KEYS}
        workers = [(w.name, w.stats.counters.get("background_calls", 0),
                    w.stats.accum.get("cpu_us", 0.0))
                   for loc in rt.localities for w in loc.workers]
        return {"result": result(), "breakdown": breakdown,
                "workers": workers, "sleepers": sleepers,
                "events": rt.sim.event_count, "lazy": lazy}


def assert_same_as_step(monkeypatch, build):
    lazy = observe(monkeypatch, False, build)
    step = observe(monkeypatch, True, build)
    assert lazy["result"] == step["result"]
    assert lazy["breakdown"] == step["breakdown"]
    assert lazy["workers"] == step["workers"]
    assert lazy["sleepers"] == step["sleepers"]
    assert step["lazy"] == dict.fromkeys(LAZY_KEYS, 0)
    assert lazy["events"] < step["events"]
    assert lazy["lazy"]["lci_idle_rounds_elided"] > 0
    return lazy


def rate_build(cfg, ndev, rate_kps, seed, offset_us=None, total=300,
               batch=20):
    """A two-locality 8 B message-rate run (the benchmark's shape)."""
    def build():
        rt = _runtime(cfg, ndev, seed)
        state = {"received": 0, "t_inject": None, "t_done": None}
        done = rt.new_future()
        offset = (random.Random(seed).uniform(0.0, 5.0)
                  if offset_us is None else offset_us)

        def sink(worker, payload):
            state["received"] += 1
            if state["received"] == total:
                state["t_done"] = rt.sim.now
                done.set_result(rt.sim.now)
            return None

        rt.register_action("sink", sink)
        rt.boot()
        sender = rt.locality(0)

        def inject(worker):
            for _ in range(batch):
                yield from sender.apply(worker, 1, "sink", ("data",),
                                        arg_sizes=[8])
            state["t_inject"] = rt.sim.now

        def injector():
            yield rt.sim.timeout(offset)
            gap = batch / (rate_kps * 1e-3) if rate_kps else 0.0
            for _ in range(total // batch):
                sender.spawn(inject)
                if gap:
                    yield rt.sim.timeout(gap)

        rt.sim.process(injector(), name="injector")
        return (rt, lambda: rt.run_until(done),
                lambda: (state["received"], state["t_inject"],
                         state["t_done"], rt.now))
    return build


@pytest.mark.parametrize("ndev", [1, 2])
@pytest.mark.parametrize("cfg", ELIGIBLE)
@pytest.mark.parametrize("rate_kps", [100.0, 400.0, None])
def test_rate_matches_step_path(monkeypatch, cfg, ndev, rate_kps):
    for seed in range(1, 6):
        assert_same_as_step(monkeypatch,
                            rate_build(cfg, ndev, rate_kps, seed))


def octotiger_build(cfg, seed, n_localities=2, level=3):
    def build():
        rt = _runtime(cfg, 1, seed, n_localities=n_localities)
        driver = OctoTigerDriver(rt, OctoTigerConfig.for_paper_level(
            level, n_steps=1))
        rt.boot()
        out = {}

        def drive():
            out["res"] = driver.run()
        return (rt, drive, lambda: (list(out["res"].step_times_us),
                                    out["res"].census))
    return build


def test_octotiger_matches_step_path(monkeypatch):
    assert_same_as_step(monkeypatch, octotiger_build("lci_psr_cq_pin_i", 7))


@settings(max_examples=6, deadline=None)
@given(offset_us=st.floats(0.0, 5.0, allow_nan=False),
       rate_kps=st.one_of(st.none(), st.floats(20.0, 800.0)),
       cfg=st.sampled_from(ELIGIBLE))
def test_rate_matches_step_path_drawn(offset_us, rate_kps, cfg):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_same_as_step(monkeypatch, rate_build(
            cfg, 1, rate_kps, 11, offset_us=offset_us, total=200))


def test_materialized_pops_replay_exactly(monkeypatch):
    """Windows cut short by a signal replay only the pops the step path
    made before it: pop counts, the empty-pop fraction the benchmark
    reports and every worker's cpu_us agree with the step path."""
    lazy = assert_same_as_step(monkeypatch, rate_build(
        "lci_psr_cq_pin_i", 2, None, 5, total=400))
    assert lazy["lazy"]["lci_lazy_materialized"] > 0
    step = observe(monkeypatch, True, rate_build(
        "lci_psr_cq_pin_i", 2, None, 5, total=400))
    frac = [b["lci_cq_empty_pops"] / b["lci_cq_pops"]
            for b in (lazy["breakdown"], step["breakdown"])]
    assert frac[0] == frac[1]


def test_ineligible_configs_keep_the_step_path():
    for cfg in ("lci_psr_cq_mt_i", "lci_sr_sy_pin", "lci_psr_sy_mt",
                "mpi_i"):
        rt = _runtime(cfg, 1, 1, platform=LAPTOP)
        rt.boot()
        pp = rt.locality(0).parcelport
        assert "background_work" not in vars(pp), cfg


# ---------------------------------------------------------------------------
# constructed ties: a fresh LAPTOP runtime's workers all open their first
# window at t=0 with the same chain times, so records can be placed exactly
# on them (one round per call: the round top, the header-CQ pop, the
# completion-CQ pop, then the end of the call)
# ---------------------------------------------------------------------------
def _chain_times():
    rt = _runtime("lci_psr_cq_pin", 1, 1, platform=LAPTOP)
    bg = rt.locality(1).cost.background_call_us
    half = LciParams().cq_pop_us * 0.5
    return list(accumulate([bg, half, half], initial=0.0))


def _call_at(sim, t, fn):
    """Schedule ``fn`` at exactly virtual time ``t``."""
    d = t - sim.now
    while sim.now + d < t:
        d = math.nextafter(d, math.inf)
    while sim.now + d > t:
        d = math.nextafter(d, -math.inf)
    assert sim.now + d == t
    sim.schedule_call(d, fn)


def tie_build(kind, via):
    """``kind`` "signal": an entry lands on locality 1's completion CQ
    exactly at its workers' pop of it; "push": a task is pushed exactly
    when their calls end.  The record is scheduled by a helper running at
    ``via`` (so its seq is allocated then)."""
    times = _chain_times()

    def build():
        rt = _runtime("lci_psr_cq_pin", 1, 1, platform=LAPTOP)
        loc = rt.locality(1)
        ran = []

        def task(worker):
            ran.append((worker.name, rt.now))
            return None

        def fire():
            if kind == "signal":
                loc.parcelport.comp_cq.signal(("error", None, "tie"))
            else:
                loc.sched.push(Task(task))

        t = times[2] if kind == "signal" else times[3]
        _call_at(rt.sim, via, lambda: _call_at(rt.sim, t, fire))
        rt.boot()
        dispatched = []
        lci_dispatch = lci_pp.LciParcelport._dispatch

        def spy(pp, worker, entry):
            dispatched.append((worker.name, rt.now, entry[0]))
            return lci_dispatch(pp, worker, entry)

        loc.parcelport._dispatch = spy.__get__(loc.parcelport)
        return (rt, lambda: rt.run_until(5.0),
                lambda: (dispatched, ran, rt.now))
    return build


@pytest.mark.parametrize("kind", ["signal", "push"])
def test_constructed_ties_match_step_path(monkeypatch, kind):
    times = _chain_times()
    # before: allocated while the step path's previous record is still
    # ahead (it must come first); after: allocated once it has run
    if kind == "signal":
        vias = {"before": times[1] / 2, "after": (times[1] + times[2]) / 2}
    else:
        vias = {"before": (times[1] + times[2]) / 2,
                "after": (times[2] + times[3]) / 2}
    outcomes = {}
    for order, via in vias.items():
        lazy = assert_same_as_step(monkeypatch, tie_build(kind, via))
        assert lazy["lazy"]["lci_lazy_ties_resolved"] > 0
        outcomes[order] = lazy["result"]
    # the two orders are observably different, so neither passes by luck
    assert outcomes["before"] != outcomes["after"]
