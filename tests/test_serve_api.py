"""The unified server API: ServerConfig + serve() and the testbed shim."""

import pytest

from repro.bench.testbed import SERVER_IP, make_testbed
from repro.bench.wrk import HomaWrkClient, WrkClient
from repro.core.overload import OverloadController
from repro.storage import ENGINES, TRANSPORTS, ServerConfig, serve
from repro.storage.server import CAPTURED_FIELDS
from repro.storage.kvserver import HomaKVServer, KVServer


class TestServerConfig:
    def test_defaults_validate(self):
        config = ServerConfig()
        assert config.validate() is config
        assert config.transport == "tcp"
        assert config.engine == "novelsm"
        assert config.cores == 1

    def test_bad_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            ServerConfig(transport="quic").validate()

    def test_bad_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            ServerConfig(engine="rocksdb").validate()

    def test_bad_cores_rejected(self):
        with pytest.raises(ValueError, match="cores"):
            ServerConfig(cores=0).validate()

    def test_zero_copy_over_homa_rejected(self):
        with pytest.raises(ValueError, match="zero_copy"):
            ServerConfig(transport="homa", zero_copy_get=True).validate()

    def test_bad_reaper_threshold_rejected(self):
        with pytest.raises(ValueError, match="reaper"):
            ServerConfig(reaper_idle_ns=0).validate()

    def test_with_overrides_copies(self):
        base = ServerConfig(engine="pktstore")
        derived = base.with_overrides(cores=4, metrics=True)
        assert derived.engine == "pktstore"
        assert derived.cores == 4 and derived.metrics
        assert base.cores == 1 and not base.metrics

    def test_capture_meta_round_trips(self):
        # Every captured field away from its default comes back equal.
        config = ServerConfig(
            transport="homa", engine="pktstore", port=8080, cores=4,
            zero_copy_get=True, contain_errors=False, overload=True,
            reaper_idle_ns=5_000_000.0, memtable_arena=16 << 20,
            engine_kwargs={"meta_bytes": 1 << 20},
        )
        defaults = ServerConfig()
        assert all(getattr(config, name) != getattr(defaults, name)
                   for name in CAPTURED_FIELDS)
        assert ServerConfig.from_capture_meta(config.capture_meta()) == config

    def test_capture_meta_ignores_unknown_keys(self):
        meta = ServerConfig(engine="pktstore").capture_meta()
        meta["server_config"]["ack_policy"] = "sync"
        assert ServerConfig.from_capture_meta(meta) == \
            ServerConfig(engine="pktstore")

    def test_engine_and_transport_tables(self):
        assert "novelsm" in ENGINES and "pktstore" in ENGINES
        assert TRANSPORTS == ("tcp", "homa")


class TestServe:
    def test_tcp_serve_builds_kvserver(self):
        testbed = make_testbed(config=ServerConfig())
        assert isinstance(testbed.kv, KVServer)
        assert testbed.config.transport == "tcp"

    def test_homa_serve_builds_homa_front_end(self):
        testbed = make_testbed(config=ServerConfig(transport="homa"))
        assert isinstance(testbed.kv, HomaKVServer)

    def test_core_count_mismatch_rejected(self):
        testbed = make_testbed(config=ServerConfig())
        with pytest.raises(ValueError, match="core"):
            serve(testbed.server, ServerConfig(cores=4),
                  pm_ns=testbed.pm_ns)

    def test_overload_true_builds_controller(self):
        testbed = make_testbed(config=ServerConfig(overload=True))
        assert isinstance(testbed.overload, OverloadController)

    def test_overload_instance_used_as_is(self):
        controller = OverloadController()
        testbed = make_testbed(config=ServerConfig(overload=controller))
        assert testbed.overload is controller

    def test_reaper_config_arms_tcp_reaper(self):
        testbed = make_testbed(
            config=ServerConfig(reaper_idle_ns=5_000_000.0))
        assert testbed.server.stack.reaper_idle_ns == 5_000_000.0

    def test_metrics_attach_everything(self):
        testbed = make_testbed(config=ServerConfig(metrics=True))
        assert testbed.recorder is not None
        assert testbed.metrics is testbed.recorder.registry
        assert testbed.server.recorder is testbed.recorder
        assert testbed.client.recorder is testbed.recorder
        assert testbed.fabric.recorder is testbed.recorder
        assert testbed.kv.recorder is testbed.recorder


class TestRetiredKwargs:
    """The pre-config keywords are gone: the ServerConfig is the one
    server-shaped argument, and any other keyword is Python's own
    TypeError."""

    def test_config_positionally(self):
        testbed = make_testbed(ServerConfig(engine="null", cores=2))
        assert testbed.config.engine == "null"
        assert testbed.config.cores == 2
        assert len(testbed.server.cpus) == 2

    def test_no_config_builds_default(self):
        testbed = make_testbed()
        assert testbed.config.engine == "novelsm"
        assert testbed.config.cores == 1

    def test_unknown_kwarg_still_plain_typeerror(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            make_testbed(bogus_flag=1)


class TestTransportsServeRequests:
    """End-to-end smoke: the same config surface drives both transports."""

    @pytest.mark.parametrize("transport,cores", [
        ("tcp", 1), ("tcp", 2), ("homa", 1), ("homa", 4),
    ])
    def test_put_roundtrip(self, transport, cores):
        config = ServerConfig(transport=transport, cores=cores, metrics=True)
        testbed = make_testbed(config=config)
        client_class = HomaWrkClient if transport == "homa" else WrkClient
        wrk = client_class(
            testbed.client, SERVER_IP, connections=2, value_size=512,
            duration_ns=600_000.0, warmup_ns=100_000.0,
        )
        stats = wrk.run()
        assert stats.completed > 0
        assert testbed.metrics.value("server.requests") > 0
        if cores > 1:
            # RSS must actually spread work across the cores.
            busy = [testbed.metrics.value(f"server.core{i}.busy_ns")
                    for i in range(cores)]
            assert sum(1 for b in busy if b > 0) > 1
