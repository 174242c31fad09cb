"""Serving tests: protocol parsing, the wire codec, fair-share
scheduling, and a live server exercised by real socket clients.

Server tests bind unix sockets (or TCP port 0) under tmp_path and run
tiny real campaigns through them — submission, dedup, caching,
streaming, and the `--via-store` dispatcher path are all end-to-end.
"""

import threading
import time

import pytest

from repro.emi import AttackSchedule, EMISource
from repro.eval import (
    AttackSpec,
    CampaignRunner,
    ExperimentSpec,
    VictimConfig,
)
from repro.eval.campaign import PathSpec, RunSpec
from repro.eval.resilient import RetryPolicy
from repro.serve import (
    CampaignServer,
    FairScheduler,
    PROTOCOL_VERSION,
    ServeClient,
    ServeError,
    decode_run,
    encode_run,
    parse_address,
)
from repro.store import ResultStore, run_digest


# ----------------------------------------------------------------------
# Addresses.
# ----------------------------------------------------------------------
class TestAddresses:
    def test_host_port_is_tcp(self):
        assert parse_address("127.0.0.1:9000") \
            == ("tcp", ("127.0.0.1", 9000))
        assert parse_address(":0") == ("tcp", ("127.0.0.1", 0))

    def test_paths_are_unix_sockets(self):
        assert parse_address("/tmp/serve.sock") \
            == ("unix", "/tmp/serve.sock")
        assert parse_address("serve.sock") == ("unix", "serve.sock")
        # A path containing ':' is still a path if it has '/'.
        assert parse_address("/tmp/a:b/serve.sock")[0] == "unix"

    def test_bad_port_rejected(self):
        with pytest.raises(ServeError):
            parse_address("host:notaport")
        with pytest.raises(ServeError):
            parse_address("")


# ----------------------------------------------------------------------
# The wire codec.
# ----------------------------------------------------------------------
def _run_spec(**overrides) -> RunSpec:
    defaults = dict(
        victim=VictimConfig(duration_s=0.01),
        attack=AttackSpec.tone(freq_mhz=27.0, tx_dbm=35.0),
        path=PathSpec.remote(distance_m=5.0),
    )
    defaults.update(overrides)
    return RunSpec(**defaults)


class TestCodec:
    def test_roundtrip_preserves_the_digest(self):
        run = _run_spec(
            attack=AttackSpec(freq_mhz=27.0, tx_dbm=35.0,
                              windows=((0.0, 0.01), (0.02, 0.03))),
            sim_overrides=(("quantum", 32),),
            duration_s=0.02, telemetry=True)
        decoded = decode_run(encode_run(run))
        assert decoded == run
        assert run_digest(decoded) == run_digest(run)

    def test_fault_travels(self):
        from repro.faultsim.models import FaultSpec
        run = _run_spec(fault=FaultSpec(model="reg_flip", target="r4",
                                        bit=3, trigger_step=100))
        decoded = decode_run(encode_run(run))
        assert decoded.fault == run.fault
        assert run_digest(decoded) == run_digest(run)

    def test_raw_attack_schedules_refused(self):
        run = _run_spec(attack=AttackSchedule.always(
            EMISource(27e6, 35.0)))
        with pytest.raises(ServeError, match="AttackSpec"):
            encode_run(run)

    def test_chaos_refused(self):
        from repro.eval import ChaosSpec
        with pytest.raises(ServeError, match="chaos"):
            encode_run(_run_spec(chaos=ChaosSpec("raise")))

    def test_malformed_submission_refused(self):
        with pytest.raises(ServeError, match="malformed"):
            decode_run({"attack": {"tx_dbm": 1.0}})


# ----------------------------------------------------------------------
# Fair-share scheduling.
# ----------------------------------------------------------------------
class TestFairScheduler:
    def test_round_robin_across_tenants(self):
        sched = FairScheduler()
        for i in range(3):
            sched.submit("big", f"big-{i}")
        sched.submit("small", "small-0")
        order = [sched.take()[0] for _ in range(4)]
        tenants = [tenant for tenant, _ in order]
        # The single-item tenant is served second, not fourth.
        assert tenants == ["big", "small", "big", "big"]
        assert [item for _, item in order] \
            == ["big-0", "small-0", "big-1", "big-2"]

    def test_fifo_within_a_tenant(self):
        sched = FairScheduler()
        for i in range(4):
            sched.submit("t", i)
        (taken,) = [sched.take(max_items=4)]
        assert [item for _, item in taken] == [0, 1, 2, 3]

    def test_take_times_out_empty(self):
        sched = FairScheduler()
        assert sched.take(timeout=0.01) == []

    def test_close_wakes_blocked_consumers_and_rejects_submits(self):
        sched = FairScheduler()
        results = []

        def consume():
            results.append(sched.take(timeout=5.0))

        thread = threading.Thread(target=consume)
        thread.start()
        sched.close()
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert results == [[]]
        with pytest.raises(RuntimeError):
            sched.submit("t", 1)

    def test_pending_accounting(self):
        sched = FairScheduler()
        sched.submit("a", 1)
        sched.submit("a", 2)
        sched.submit("b", 3)
        assert sched.pending() == 3
        assert sched.pending_by_tenant() == {"a": 2, "b": 1}
        sched.take(max_items=2)
        assert sched.pending() == 1


# ----------------------------------------------------------------------
# A live server.
# ----------------------------------------------------------------------
@pytest.fixture
def server(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    srv = CampaignServer(store=store,
                         address=str(tmp_path / "serve.sock"),
                         shards=1,
                         policy=RetryPolicy(retries=0))
    address = srv.start()
    yield srv, ServeClient(address, timeout=120.0)
    srv.stop()


def _fast_run(freq=27.0) -> RunSpec:
    return _run_spec(attack=AttackSpec.tone(freq_mhz=freq, tx_dbm=35.0),
                     telemetry=True)


class TestServer:
    def test_ping_reports_the_protocol_version(self, server):
        _, client = server
        pong = client.ping()
        assert pong["pong"] and pong["version"] == PROTOCOL_VERSION

    def test_stats_expose_store_queue_and_server(self, server):
        _, client = server
        stats = client.stats()
        assert {"store", "queue", "server"} <= set(stats)
        assert stats["queue"]["pending"] == 0

    def test_unknown_op_is_an_error_not_a_hangup(self, server):
        _, client = server
        with pytest.raises(ServeError, match="unknown op"):
            client._request({"op": "frobnicate"})
        assert client.ping()["pong"]        # connection layer survived

    def test_store_ops_over_the_wire(self, server):
        srv, client = server
        digest = "ab" * 32
        assert not client.contains(digest)
        assert client.put(digest, {"v": 1}, meta={"who": "test"})
        assert client.contains(digest)
        assert client.get(digest)["value"] == {"v": 1}
        assert not client.put(digest, {"v": 2})      # content-addressed
        assert srv.store.get(digest)["value"] == {"v": 1}

    def test_miss_executes_and_stores(self, server):
        srv, client = server
        run = _fast_run()
        served = client.submit([run])
        line = served[run_digest(run)]
        assert not line["cached"]
        assert line["result"]["final_state"]
        assert srv.store.contains(run_digest(run))
        assert srv.stats.executed == 1

    def test_resubmission_is_served_from_the_store(self, server):
        srv, client = server
        run = _fast_run()
        first = client.submit([run])[run_digest(run)]
        second = client.submit([run])[run_digest(run)]
        assert not first["cached"] and second["cached"]
        assert second["result"] == first["result"]
        assert srv.stats.executed == 1      # simulated exactly once

    def test_duplicate_runs_in_one_submission_collapse(self, server):
        srv, client = server
        run = _fast_run()
        served = client.submit([run, run, run])
        assert len(served) == 1
        assert srv.stats.executed == 1

    def test_concurrent_clients_share_one_execution(self, server):
        srv, client = server
        run = _fast_run(freq=31.0)
        results = {}

        def submit(name):
            results[name] = ServeClient(client.address, timeout=120.0) \
                .submit([run], tenant=name)

        threads = [threading.Thread(target=submit, args=(f"t{i}",))
                   for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        digest = run_digest(run)
        values = [r[digest]["result"] for r in results.values()]
        assert len(values) == 3
        assert values[0] == values[1] == values[2]
        assert srv.stats.executed == 1      # dedup across clients

    def test_subscribe_streams_serving_events(self, server):
        _, client = server
        events = []
        # subscribe() returns once the server has registered the
        # subscription, so no event of the submission below can be missed.
        stream = client.subscribe(kinds=["serve.queued", "serve.done"],
                                  limit=2, timeout=60.0)
        listener = threading.Thread(target=lambda: events.extend(stream))
        listener.start()
        client.submit([_fast_run(freq=35.0)])
        listener.join(timeout=60.0)
        assert not listener.is_alive()
        assert {event["kind"] for event in events} \
            == {"serve.queued", "serve.done"}

    def test_shard_survives_a_batch_failure(self, server, monkeypatch):
        # Regression: an unexpected _execute_batch exception killed the
        # shard thread, hanging the batch's waiters and deduping every
        # future submission of those digests against a dead execution.
        srv, client = server
        real = CampaignServer._execute_batch
        failures = []

        def flaky(self, shard, items):
            if not failures:
                failures.append(items)
                raise RuntimeError("disk full")
            return real(self, shard, items)

        monkeypatch.setattr(CampaignServer, "_execute_batch", flaky)
        run = _fast_run(freq=29.0)
        first = client.submit([run])[run_digest(run)]
        assert "shard failure" in first["error"]
        assert not srv._inflight             # nothing left stuck
        # The shard is still alive: a resubmission executes for real.
        second = client.submit([run])[run_digest(run)]
        assert not second.get("error")
        assert second["result"]["final_state"]

    def test_stop_unblocks_waiting_submissions(self, tmp_path,
                                               monkeypatch):
        # Shards that never serve anything: stop() must answer waiting
        # clients with error lines, not leave them to socket timeouts.
        monkeypatch.setattr(CampaignServer, "_shard_loop",
                            lambda self, shard: None)
        store = ResultStore(str(tmp_path / "store"))
        srv = CampaignServer(store=store,
                             address=str(tmp_path / "s.sock"), shards=1)
        client = ServeClient(srv.start(), timeout=30.0)
        outcome = {}

        def submit():
            outcome["served"] = client.submit([_fast_run(freq=33.0)])

        waiter = threading.Thread(target=submit)
        waiter.start()
        deadline = time.monotonic() + 5.0
        while srv.scheduler.pending() == 0 \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        assert srv.scheduler.pending() == 1
        srv.stop()
        waiter.join(timeout=10.0)
        assert not waiter.is_alive()
        (line,) = outcome["served"].values()
        assert not line["ok"]
        assert "stopping" in line["error"]

    def test_tcp_port_zero_resolves(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        with CampaignServer(store=store, address="127.0.0.1:0",
                            shards=1) as srv:
            assert not srv.address.endswith(":0")
            assert ServeClient(srv.address).ping()["pong"]

    def test_shutdown_op_stops_the_server(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        srv = CampaignServer(store=store,
                             address=str(tmp_path / "s.sock"), shards=1)
        client = ServeClient(srv.start())
        assert client.shutdown()["stopping"]
        srv.serve_forever()          # returns promptly: already stopping
        with pytest.raises((OSError, ServeError)):
            client.ping()

    def test_restart_over_the_same_store_stays_warm(self, tmp_path):
        run = _fast_run()
        store = ResultStore(str(tmp_path / "store"))
        with CampaignServer(store=store,
                            address=str(tmp_path / "a.sock"),
                            shards=1) as srv:
            ServeClient(srv.address, timeout=120.0).submit([run])
        store.close()
        reopened = ResultStore(str(tmp_path / "store"))
        with CampaignServer(store=reopened,
                            address=str(tmp_path / "b.sock"),
                            shards=1) as srv:
            line = ServeClient(srv.address, timeout=120.0) \
                .submit([run])[run_digest(run)]
        assert line["cached"]


# ----------------------------------------------------------------------
# The campaign --via-store path.
# ----------------------------------------------------------------------
class TestViaStore:
    def _spec(self):
        return ExperimentSpec(
            name="via-store",
            victim=VictimConfig(duration_s=0.01),
            attack=AttackSpec.tone(tx_dbm=35.0),
            sweep={"attack.freq_mhz": [27, 35]},
            telemetry=True,
        )

    def test_served_campaign_is_bit_identical_to_direct(self, server,
                                                        monkeypatch):
        srv, client = server
        spec = self._spec()
        direct = CampaignRunner().run(spec)

        # Through the server: no local simulation may happen at all.
        import repro.eval.campaign as campaign_mod
        monkeypatch.setattr(
            campaign_mod, "_run_point",
            lambda compiled, run: (_ for _ in ()).throw(
                AssertionError("simulated locally on the served path")))
        served = CampaignRunner(store=client,
                                dispatcher=client.dispatcher()).run(spec)
        assert served.metrics_fingerprint() \
            == direct.metrics_fingerprint()
        assert served.stats.compiles == 0
        assert served.stats.store_misses == 3    # 2 grid + baseline

        # Resubmission: every run is a warm hit, nothing executes.
        executed_before = srv.stats.executed
        warm = CampaignRunner(store=client,
                              dispatcher=client.dispatcher()).run(spec)
        assert warm.stats.store_hits == 3
        assert warm.metrics_fingerprint() == direct.metrics_fingerprint()
        assert srv.stats.executed == executed_before

    def test_dispatcher_surfaces_server_errors(self, server):
        _, client = server
        # An unknown workload fails server-side; the dispatcher must
        # return the taxonomy, not raise.
        bad = _run_spec(victim=VictimConfig(workload="no-such-workload"))
        (result,) = client.dispatcher().execute([(0, bad)])
        assert not result.ok
        assert result.error
