#!/usr/bin/env python3
"""Quickstart: boot the paper's testbed and issue your first requests.

Builds the two-host simulated testbed (one-core PASTE server with
Optane-like PM, a 12-core wrk client, 25 GbE fabric), runs a NoveLSM
KV server on it, performs a few PUT/GET round trips, and prints the
per-request latency breakdown that motivates the whole paper.

Run:  python examples/quickstart.py
"""

from repro.bench.table1 import PAPER, render, run_table1
from repro.bench.testbed import make_testbed
from repro.bench.wrk import WrkClient
from repro.net.http import HttpParser, build_request
from repro.storage.server import ServerConfig


def manual_requests():
    """Drive a handful of explicit requests through the full stack."""
    testbed = make_testbed(ServerConfig(engine="novelsm"))
    requests = [
        build_request("PUT", "/greeting", b"hello persistent memory"),
        build_request("GET", "/greeting"),
        build_request("PUT", "/greeting", b"hello again"),
        build_request("GET", "/greeting"),
        build_request("GET", "/missing"),
    ]
    parser = HttpParser(is_response=True)
    log = []
    state = {"sent": 0}

    def start(ctx):
        sock = testbed.client.stack.connect("10.0.0.1", 80, ctx)

        def on_data(_sock, segment, c):
            for message in parser.feed(segment):
                log.append((message.status, message.body))
                message.release()
                if state["sent"] < len(requests):
                    sock.send(requests[state["sent"]], c)
                    state["sent"] += 1

        sock.on_data = on_data

        def on_established(s, c):
            s.send(requests[0], c)
            state["sent"] = 1

        sock.on_established = on_established

    testbed.client.process_on_core(testbed.client.cpus[0], start)
    testbed.sim.run_until_idle()

    print("Manual request log (status, body):")
    for status, body in log:
        print(f"  {status}  {body!r}")
    print()


def closed_loop():
    """A short wrk run: the paper's continual-1KB-write workload."""
    testbed = make_testbed(ServerConfig(engine="novelsm"))
    wrk = WrkClient(testbed.client, "10.0.0.1", connections=1,
                    value_size=1024, duration_ns=2_000_000, warmup_ns=400_000)
    stats = wrk.run()
    print("Closed-loop 1 KB writes over one persistent connection:")
    print(f"  requests completed : {stats.completed}")
    print(f"  average RTT        : {stats.avg_rtt_us:.2f} µs"
          f"   (paper Table 1: {PAPER['total']} µs)")
    print(f"  p99 RTT            : {stats.percentile_us(99):.2f} µs")
    print(f"  throughput         : {stats.throughput_krps:.1f} krps")
    print()


def breakdown():
    """Regenerate Table 1: where does the time go?"""
    print(render(run_table1(duration_ns=1_500_000, warmup_ns=300_000)))
    print()
    print("The 6.39 µs of data management on top of 1.94 µs of persistence")
    print("is what the paper proposes to reclaim from the network stack.")


def main():
    manual_requests()
    closed_loop()
    breakdown()


if __name__ == "__main__":
    main()
