#!/usr/bin/env python3
"""Crash a PM storage server mid-run and recover it from packet metadata.

The storage contract: every acknowledged write survives; in-flight
writes vanish whole, never torn.  This example runs the packet-native
store under load, cuts power at an arbitrary instant (losing every
cache line that was not flushed), then recovers the store by walking
the persistent packet metadata — and audits the result against what
the client actually saw acknowledged.

Run:  python examples/crash_recovery.py
"""

from repro.bench.testbed import make_testbed
from repro.core.pktstore import PacketStore
from repro.net.http import HttpParser, build_request
from repro.net.pool import BufferPool
from repro.pm.namespace import PMNamespace
from repro.storage.server import ServerConfig

CRASH_AT_US = 2_345.0


class AuditedClient:
    """Sequential PUTs, remembering exactly what was acknowledged."""

    def __init__(self, testbed, total=500):
        self.testbed = testbed
        self.total = total
        self.attempted = {}
        self.acked = set()
        self.parser = HttpParser(is_response=True)
        self._inflight = None
        self.sock = None

    def start(self):
        def begin(ctx):
            self.sock = self.testbed.client.stack.connect("10.0.0.1", 80, ctx)
            self.sock.on_data = self._on_data
            self.sock.on_established = lambda s, c: self._next(c)

        self.testbed.client.process_on_core(self.testbed.client.cpus[0], begin)

    def _next(self, ctx):
        index = len(self.attempted)
        if index >= self.total:
            return
        key = f"object-{index:05d}".encode()
        value = bytes((index * 31 + j) % 256 for j in range(256))
        self.attempted[key] = value
        self._inflight = key
        self.sock.send(build_request("PUT", f"/{key.decode()}", value), ctx)

    def _on_data(self, sock, segment, ctx):
        for message in self.parser.feed(segment):
            if message.status == 200:
                self.acked.add(self._inflight)
            message.release()
            self._next(ctx)


def main():
    testbed = make_testbed(ServerConfig(engine="pktstore"))
    client = AuditedClient(testbed)
    client.start()

    print(f"Running packet-native KV store; pulling the plug at "
          f"t={CRASH_AT_US:.0f} µs ...")
    testbed.sim.run(until=CRASH_AT_US * 1000.0)

    attempted = len(client.attempted)
    acked = len(client.acked)
    unflushed = testbed.pm_device.tracker.dirty_byte_estimate()
    print(f"  client attempted {attempted} puts, saw {acked} acknowledged")
    print(f"  ~{unflushed} bytes sat unflushed in CPU caches — now lost")

    testbed.pm_device.crash()
    print("\nPower restored.  Recovering from persistent packet metadata ...")
    ns = PMNamespace.reopen(testbed.pm_device)
    pool = BufferPool(ns.open("paste-pktbufs"), 2048)
    # verify_on_read: every get re-checks the stored frames' own TCP
    # checksums (no separate CRC was ever computed).
    store, report = PacketStore.recover(ns.open("pktstore-meta"), pool,
                                        verify_on_read=True)
    print(f"  {report.recovered} records recovered, "
          f"{report.discarded_records} in-flight records discarded, "
          f"{report.adopted_buffers} packet buffers re-adopted")

    recovered = dict(store.scan())
    lost_acked = [k for k in client.acked if recovered.get(k) != client.attempted[k]]
    invented = [k for k in recovered if k not in client.attempted]
    torn = [k for k, v in recovered.items() if client.attempted.get(k) != v]
    print("\nAudit:")
    print(f"  acknowledged writes recovered intact : {acked - len(lost_acked)}/{acked}")
    print(f"  lost acknowledged writes             : {len(lost_acked)}  (must be 0)")
    print(f"  invented or torn entries             : {len(invented) + len(torn)}  (must be 0)")
    assert not lost_acked and not invented and not torn
    print("\nacked ⊆ recovered ⊆ attempted — the store honoured its contract.")

    # And it keeps serving: a failed wire checksum would raise IOError.
    sample = sorted(client.acked)[0]
    print(f"\nSpot check: {sample.decode()} -> {len(store.get(sample))} bytes, "
          f"wire checksum re-verified on read")


if __name__ == "__main__":
    main()
