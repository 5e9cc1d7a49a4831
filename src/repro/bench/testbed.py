"""One-call construction of the paper's two-host testbed.

The §3 setup: a server (one core, PASTE stack, Optane PM in App-Direct
mode, busy polling) and a client (regular Linux stack + wrk, all
cores), both on 25 GbE through a switch, checksum offload on.

``make_testbed(ServerConfig(engine=...))`` builds the whole thing with
the chosen storage configuration:

================  ============================================================
``engine=``       server behaviour
================  ============================================================
``"null"``        discard requests (networking-only RTT: 26.71 µs row)
``"rawpm"``       copy + persist into PM (Figure 2's "net.+persist.")
``"novelsm"``     full NoveLSM with checksum (Figure 2's
                  "net.+data mgmt.+persist.", Table 1's 34.79 µs)
``"novelsm-nopersist"``  NoveLSM with persistence ops disabled (the
                  modified build used to split out persistence cost)
``"pktstore"``    the paper's *proposal*: packet-native persistent store
                  (zero-copy, checksum/timestamp/allocator reuse)
================  ============================================================
"""

from repro.bench.costmodel import CostModel
from repro.net.fabric import Fabric
from repro.net.nic import NicFeatures
from repro.net.stack import Host
from repro.pm.device import PMDevice
from repro.pm.namespace import PMNamespace
from repro.sim.engine import Simulator
from repro.storage.server import ServerConfig, serve

SERVER_IP = "10.0.0.1"
CLIENT_IP = "10.0.0.2"

#: Paper: client has two Xeon E5-2620v3 (6 cores each), HT disabled.
CLIENT_CORES = 12

PM_BYTES = 192 << 20
PASTE_POOL_BYTES = 16 << 20


class Testbed:
    """Handles to everything the experiments touch."""

    def __init__(self, sim, fabric, server, client, engine, kv, pm_device,
                 pm_ns, config=None, overload=None, recorder=None,
                 capture=None):
        self.sim = sim
        self.fabric = fabric
        self.server = server
        self.client = client
        self.engine = engine
        self.kv = kv
        self.pm_device = pm_device
        self.pm_ns = pm_ns
        #: The ServerConfig the server side was built from.
        self.config = config
        #: OverloadController (None unless the config asked for one).
        self.overload = overload
        #: repro.obs Recorder (None unless the config asked for metrics).
        self.recorder = recorder
        #: repro.capture CaptureTap (None unless config.capture).
        self.capture = capture

    @property
    def metrics(self):
        """The live MetricsRegistry, or None when metrics are off."""
        return self.recorder.registry if self.recorder is not None else None


def make_server_host(sim, name, ip, fabric, pm_device, cores=1,
                     paste_pool_bytes=PASTE_POOL_BYTES, **host_kwargs):
    """The paper's server host on ``fabric``: busy polled, PASTE costs,
    its rx packet pool the ``paste-pktbufs`` region of a PM namespace
    on ``pm_device`` (a DRAM pool when ``paste_pool_bytes`` is None).

    ``host_kwargs`` go to :class:`~repro.net.stack.Host` (e.g.
    ``pool_slots``, ``nic_features``).  Returns ``(host, pm_ns)``.
    """
    pm_ns = PMNamespace(pm_device)
    rx_pool_region = None
    if paste_pool_bytes is not None:
        rx_pool_region = pm_ns.create("paste-pktbufs", paste_pool_bytes)
    host = Host(sim, name, ip, fabric, CostModel.paste(), cores=cores,
                rx_pool_region=rx_pool_region, busy_poll=True, **host_kwargs)
    return host, pm_ns


def make_testbed(config=None, *, server_features=None, client_features=None,
                 fabric_kwargs=None, pm_bytes=PM_BYTES, paste=True,
                 pm_device=None, paste_pool_bytes=PASTE_POOL_BYTES):
    """Build the two-host testbed from a :class:`ServerConfig`.

    ``config`` is the one knob for everything server-shaped —
    transport, engine, cores, overload policy, zero-copy GET, idle
    reaper, metrics, capture.  The remaining keywords cover the *world*
    around the server: NIC features, fabric parameters, PM
    device/sizing, whether the rx pool lives in PM (``paste``).
    """
    config = config or ServerConfig()
    config.validate()

    sim = Simulator()
    fabric = Fabric(sim, **(fabric_kwargs or {}))

    if pm_device is None:
        pm_device = PMDevice(pm_bytes, name="optane")
    elif not pm_device.persistent:
        raise ValueError("injected pm_device must be persistent")
    if not paste:
        paste_pool_bytes = None
    server, pm_ns = make_server_host(
        sim, "server", SERVER_IP, fabric, pm_device, cores=config.cores,
        paste_pool_bytes=paste_pool_bytes, nic_features=server_features,
    )
    client = Host(
        sim, "client", CLIENT_IP, fabric, CostModel.kernel(), cores=CLIENT_CORES,
        busy_poll=False, irq_latency_ns=0.0,
        nic_features=client_features or NicFeatures(),
    )

    handle = serve(server, config, pm_ns=pm_ns)
    if handle.capture is not None:
        # The ServerConfig covers the server; the capture also needs the
        # *world* sizing (PM, rx pool) so a standby rebuilds into the
        # same pressure envelope (pool eviction is part of history).
        handle.capture.meta.update({
            "pm_bytes": pm_bytes,
            "paste_pool_bytes": paste_pool_bytes,
        })
    if handle.recorder is not None:
        # The testbed owns both ends of the wire, so the registry can
        # account the full RTT: client slices + fabric frames included.
        handle.recorder.attach_host(client, "client")
        handle.recorder.attach_fabric(fabric)
    return Testbed(sim, fabric, server, client, handle.engine, handle.kv,
                   pm_device, pm_ns, config=config, overload=handle.overload,
                   recorder=handle.recorder, capture=handle.capture)


def preload(testbed, entries, value_size=1024, key_prefix="warm"):
    """Pre-populate the store so index traversal costs are steady-state.

    Inserts directly through the engine (no network), as the paper's
    continual-write experiment reaches steady state before measuring.
    """
    from repro.storage.engines import direct_put

    value = bytes(value_size)
    for index in range(entries):
        key = f"{key_prefix}-{index}".encode()
        direct_put(testbed.engine, key, value)
    return entries
