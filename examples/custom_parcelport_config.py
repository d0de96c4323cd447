#!/usr/bin/env python
"""Exploring the design space: build a runtime with custom library tunings.

The paper's §7.2 future work asks how LCI-layer design choices affect task
systems.  This example shows the knobs the library exposes for that kind of
study: custom LCI/MPI parameter sets, platform overrides, and direct
parcelport construction — then measures how the LCI eager threshold (the
medium/long protocol switch) moves ping-pong latency.

Run:  python examples/custom_parcelport_config.py
"""

from repro import PPConfig, make_parcelport_factory
from repro.bench import LatencyParams, RunSpec, run
from repro.bench.reporting import format_table
from repro.hpx_rt import HpxRuntime
from repro.hpx_rt.platform import EXPANSE
from repro.lci_sim import DEFAULT_LCI_PARAMS


def latency_with_threshold(eager_threshold: int, msg_size: int) -> float:
    """One ping-pong latency run with a custom LCI eager threshold."""
    cfg = PPConfig.parse("lci_psr_cq_pin_i")
    lci_params = DEFAULT_LCI_PARAMS.with_(eager_threshold=eager_threshold)
    factory = make_parcelport_factory(cfg, lci_params=lci_params)

    # Build the runtime by hand (what make_runtime does under the hood),
    # to show the factory hook.
    rt = HpxRuntime(EXPANSE, n_localities=2, parcelport_factory=factory,
                    immediate=cfg.immediate)
    done = rt.new_latch(1)
    steps = 30

    def ping(worker, token):
        yield from worker.locality.apply(worker, 0, "pong", (token,),
                                         arg_sizes=[msg_size])

    def pong(worker, token):
        if token + 1 < steps:
            yield from worker.locality.apply(worker, 1, "ping", (token + 1,),
                                             arg_sizes=[msg_size])
        else:
            done.count_down()

    rt.register_action("ping", ping)
    rt.register_action("pong", pong)

    def starter(worker):
        yield from rt.locality(0).apply(worker, 1, "ping", (0,),
                                        arg_sizes=[msg_size])

    rt.boot()
    rt.locality(0).spawn(starter)
    rt.run_until(done)
    return rt.now / (2 * steps)


def main() -> None:
    msg_size = 16384
    rows = []
    for threshold in (1024, 4096, 8192, 16384, 65536):
        lat = latency_with_threshold(threshold, msg_size)
        protocol = "medium (eager)" if msg_size <= threshold \
            else "long (rendezvous)"
        rows.append([threshold, protocol, f"{lat:.2f}"])
    print(f"16 KiB one-way latency vs LCI eager threshold "
          f"(lci_psr_cq_pin_i):\n")
    print(format_table(rows, header=["eager threshold (B)",
                                     "16KiB chunk protocol",
                                     "latency (us)"]))
    print("\nCrossing the threshold switches the zero-copy chunk from the "
          "rendezvous path\n(RTS/CTS round trip, zero-copy) to the eager "
          "path (extra copy, no handshake).")

    # And the stock configuration for reference:
    ref = run(RunSpec("latency", "lci_psr_cq_pin_i",
                      LatencyParams(msg_size=msg_size, window=1, steps=30)))
    print(f"\nstock configuration reference: "
          f"{ref.one_way_latency_us:.2f} us")


if __name__ == "__main__":
    main()
