#!/usr/bin/env python3
"""Future transports (§5.2): the same storage stacks over Homa.

The paper closes by arguing that repurposing networking features is
not TCP-specific: Homa's Linux implementation reuses regular packet
metadata, so the whole proposal carries over — and because Homa
shrinks networking latency, the storage stack's share of each request
grows, making the reclaimed data management *more* valuable.

This example runs the null / NoveLSM / packet-native servers over both
transports and prints the §5.2 arithmetic.

Run:  python examples/homa_transport.py
"""

from repro.bench.testbed import make_testbed
from repro.bench.wrk import HomaWrkClient, WrkClient
from repro.storage.server import ServerConfig

ENGINES = ("null", "novelsm", "pktstore")


def measure(transport, engine):
    testbed = make_testbed(ServerConfig(engine=engine, transport=transport))
    client_cls = HomaWrkClient if transport == "homa" else WrkClient
    wrk = client_cls(testbed.client, "10.0.0.1", connections=1,
                     value_size=1024, duration_ns=2_000_000, warmup_ns=400_000)
    stats = wrk.run()
    return stats.avg_rtt_us


def main():
    print("1 KB writes, one connection/loop, per transport and server:\n")
    rtts = {}
    print(f"{'server':12s} {'TCP (µs)':>10} {'Homa (µs)':>10}")
    for engine in ENGINES:
        tcp_rtt = measure("tcp", engine)
        homa_rtt = measure("homa", engine)
        rtts[engine] = (tcp_rtt, homa_rtt)
        print(f"{engine:12s} {tcp_rtt:>10.2f} {homa_rtt:>10.2f}")

    print()
    for transport, idx in (("TCP", 0), ("Homa", 1)):
        net = rtts["null"][idx]
        full = rtts["novelsm"][idx]
        saved = rtts["novelsm"][idx] - rtts["pktstore"][idx]
        share = (full - net) / full * 100
        print(f"{transport:5s}: networking {net:5.2f}µs, storage stack "
              f"{full - net:5.2f}µs ({share:.0f}% of the RTT); "
              f"packet-native reclaims {saved:.2f}µs")

    tcp_gain = (rtts["novelsm"][0] - rtts["pktstore"][0]) / rtts["novelsm"][0]
    homa_gain = (rtts["novelsm"][1] - rtts["pktstore"][1]) / rtts["novelsm"][1]
    print(f"\nRelative gain of the proposal: {tcp_gain * 100:.1f}% over TCP, "
          f"{homa_gain * 100:.1f}% over Homa — faster networks raise the")
    print("value of every microsecond the storage stack gives back (§5.2).")


if __name__ == "__main__":
    main()
