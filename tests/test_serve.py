"""Serving tests: protocol parsing, the wire codec, fair-share
scheduling, and a live server exercised by real socket clients.

Server tests bind unix sockets (or TCP port 0) under tmp_path and run
tiny real campaigns through them — submission, dedup, caching,
streaming, and the `--via-store` dispatcher path are all end-to-end.
"""

import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
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
from repro.eval.campaign import CampaignError, PathSpec, RunSpec
from repro.eval.resilient import SIM_ERROR, TIMEOUT, RetryPolicy
from repro.faultsim.models import FaultSpec
from repro.serve import (
    CampaignServer,
    FairScheduler,
    PROTOCOL_VERSION,
    ServeClient,
    ServeError,
    connect,
    decode_run,
    encode_run,
    parse_address,
    recv_message,
    send_message,
)
from repro.runtime import SimResult
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

    def test_failed_connect_closes_its_socket(self, tmp_path, monkeypatch):
        """A dial to a path nobody serves (a server not up yet, or gone)
        closes its socket before raising, instead of leaving it to the
        garbage collector once per failed poll."""
        import socket

        made = []
        real = socket.socket

        def recording_socket(*args, **kwargs):
            sock = real(*args, **kwargs)
            made.append(sock)
            return sock

        monkeypatch.setattr(socket, "socket", recording_socket)
        with pytest.raises(OSError):
            connect(str(tmp_path / "absent.sock"), timeout=1.0)
        assert len(made) == 1
        assert made[0].fileno() == -1   # closed


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


def _every_field_run() -> RunSpec:
    """A run whose every field, and every field of its parts, is off its
    default (``chaos`` aside: it never travels)."""
    return RunSpec(
        victim=VictimConfig(
            device_name="TI-MSP430FR2433", monitor_kind="comp",
            workload="crc16", scheme="gecko", capacitance=22e-6,
            supply_w=None, outage_period_s=0.05, outage_duty=0.3,
            outage_power_w=8e-3, duration_s=0.25, sleep_min_s=1e-3,
            quantum=32, region_budget=400, v_on=3.0, v_backup=2.2,
            v_off=1.9, cap_v_max=3.6, cap_leakage_a_per_f=1e-3,
            cap_v_init=2.5, workload_source="void main() { }",
            backend="threaded"),
        attack=AttackSpec(freq_mhz=27.0, tx_dbm=30.0,
                          windows=((0.1, 0.4), (0.5, 0.9))),
        path=PathSpec(kind="dpi", distance_m=2.0, walls=1, point="P1"),
        duration_s=0.3,
        sim_overrides=(("max_slices", 10_000), ("quantum", 16)),
        mode="batch", target_completions=5, batch_window_s=0.02,
        max_sim_s=2.0,
        fault=FaultSpec(model="reg_flip", target=4, bit=7, trigger_step=100,
                        trigger_time_s=0.01, region="region:3"),
        telemetry=True)


def _default(f: dataclasses.Field):
    """A dataclass field's default value."""
    if f.default_factory is not dataclasses.MISSING:
        return f.default_factory()
    return f.default


#: A run part that fails to build, one of each kind: the submission gets
#: the malformed-run error line, never a dropped connection.
_MALFORMED = {
    "unknown fault model": {"fault": {"model": "zap",
                                      "trigger_time_s": 0.01}},
    "fault without its trigger": {"fault": {"model": "reg_flip"}},
    "override not a pair": {"sim_overrides": [["quantum", 32, 1]]},
    "attack not an object": {"attack": "tone"},
    "window not a pair": {"attack": {"tx_dbm": 35.0, "windows": [[0.1]]}},
}


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

    @pytest.mark.parametrize("kind", sorted(_MALFORMED))
    def test_malformed_parts_refused(self, kind):
        data = {**encode_run(_run_spec()), **_MALFORMED[kind]}
        with pytest.raises(ServeError, match="malformed run submission"):
            decode_run(data)

    def test_every_field_survives_the_round_trip(self):
        run = _every_field_run()
        for value, kind in ((run, RunSpec), (run.victim, VictimConfig),
                            (run.attack, AttackSpec), (run.path, PathSpec),
                            (run.fault, FaultSpec)):
            for f in dataclasses.fields(kind):
                if f.name != "chaos":
                    assert getattr(value, f.name) != _default(f), f.name
        decoded = decode_run(json.loads(json.dumps(encode_run(run))))
        assert decoded == run
        assert run_digest(decoded) == run_digest(run)

    def test_left_out_keys_take_the_field_defaults(self):
        assert decode_run({"victim": {}}) == RunSpec(victim=VictimConfig())
        full = encode_run(_every_field_run())
        for f in dataclasses.fields(RunSpec):
            if f.name in ("victim", "chaos"):
                continue
            partial = {k: v for k, v in full.items() if k != f.name}
            assert getattr(decode_run(partial), f.name) == _default(f), \
                f.name
        for part, kind in (("victim", VictimConfig), ("attack", AttackSpec),
                           ("path", PathSpec), ("fault", FaultSpec)):
            for f in dataclasses.fields(kind):
                if part == "fault" and f.name in ("model", "trigger_step"):
                    continue        # a reg_flip FaultSpec requires both
                nested = {k: v for k, v in full[part].items() if k != f.name}
                decoded = getattr(decode_run({**full, part: nested}), part)
                assert getattr(decoded, f.name) == _default(f), \
                    f"{part}.{f.name}"


# ----------------------------------------------------------------------
# Fair-share scheduling.
# ----------------------------------------------------------------------
class TestFairScheduler:
    def test_round_robin_across_tenants(self):
        sched = FairScheduler()
        for i in range(3):
            sched.submit("big", f"big-{i}")
        sched.submit("small", "small-0")
        order = [sched.take() for _ in range(4)]
        tenants = [tenant for tenant, _ in order]
        # The single-item tenant is served second, not fourth.
        assert tenants == ["big", "small", "big", "big"]
        assert [item for _, item in order] \
            == ["big-0", "small-0", "big-1", "big-2"]

    def test_fifo_within_a_tenant(self):
        sched = FairScheduler()
        for i in range(4):
            sched.submit("t", i)
        taken = [sched.take() for _ in range(4)]
        assert [item for _, item in taken] == [0, 1, 2, 3]

    def test_take_times_out_empty(self):
        sched = FairScheduler()
        assert sched.take(timeout=0.01) is None

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
        assert results == [None]
        with pytest.raises(RuntimeError):
            sched.submit("t", 1)

    def test_pending_accounting(self):
        sched = FairScheduler()
        sched.submit("a", 1)
        sched.submit("a", 2)
        sched.submit("b", 3)
        assert sched.pending() == 3
        assert sched.pending_by_tenant() == {"a": 2, "b": 1}
        sched.take()
        sched.take()
        assert sched.pending() == 1


# ----------------------------------------------------------------------
# A live server.
# ----------------------------------------------------------------------
@pytest.fixture
def server(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    srv = CampaignServer(store=store,
                         address=str(tmp_path / "serve.sock"),
                         policy=RetryPolicy(retries=0))
    address = srv.start()
    yield srv, ServeClient(address, timeout=120.0)
    srv.stop()


def _fast_run(freq=27.0) -> RunSpec:
    return _run_spec(attack=AttackSpec.tone(freq_mhz=freq, tx_dbm=35.0),
                     telemetry=True)


def _long_run() -> RunSpec:
    """A silent crc16 run over a 20 s window: seconds of wall time on
    either backend."""
    return _run_spec(victim=VictimConfig(workload="crc16", duration_s=20.0),
                     attack=AttackSpec.silent())


def _submit_in_background(client, runs):
    """Submit from a thread; returns (thread, outcome dict)."""
    outcome = {}
    thread = threading.Thread(
        target=lambda: outcome.update(served=client.submit(runs)))
    thread.start()
    return thread, outcome


def _wait_for(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert predicate()


def _live_in_session(sid):
    """Pids of the processes in session ``sid`` that are not zombies."""
    live = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rpartition(")")[2].split()
        except (OSError, ValueError):
            continue        # not a pid, or it just exited
        if fields[3] == str(sid) and fields[0] != "Z":
            live.append(int(entry))
    return live


class TestServer:
    def test_ping_reports_the_protocol_version(self, server):
        _, client = server
        pong = client.ping()
        assert pong["pong"] and pong["version"] == PROTOCOL_VERSION

    def test_stats_expose_store_queue_and_server(self, server):
        _, client = server
        stats = client.stats()
        assert {"store", "queue", "pool", "server"} <= set(stats)
        assert stats["queue"]["pending"] == 0
        assert stats["pool"] == {"workers": 1, "retries": 0, "timeouts": 0,
                                 "worker_crashes": 0, "worker_restarts": 0,
                                 "budget_exceeded": 0}

    def test_unknown_op_is_an_error_not_a_hangup(self, server):
        _, client = server
        with pytest.raises(ServeError, match="unknown op"):
            client._request({"op": "frobnicate"})
        assert client.ping()["pong"]        # connection layer survived

    def test_bad_store_requests_get_error_lines_not_hangups(self, server):
        _, client = server
        sock = connect(client.address, timeout=30.0)
        reader = sock.makefile("r")

        def ask(request):
            send_message(sock, request)
            return recv_message(reader)

        try:
            for bad in ({"op": "put", "digest": "abc", "value": 1},
                        {"op": "get", "digest": ["x"]},
                        {"op": "contains", "digest": 7},
                        {"op": "put", "digest": "ab" * 32, "value": 1,
                         "meta": "not-an-object"}):
                answer = ask(bad)
                assert answer["ok"] is False and answer["error"], bad
            # The same connection still serves.
            assert ask({"op": "ping"})["pong"]
        finally:
            reader.close()
            sock.close()

    def test_malformed_run_refuses_the_whole_submission(self, server):
        """A submission is decoded whole before any run is queued: its
        valid runs neither execute nor reach the store."""
        srv, client = server
        good, other = _fast_run(freq=25.0), _fast_run(freq=29.0)
        sock = connect(client.address, timeout=30.0)
        reader = sock.makefile("r")
        try:
            send_message(sock, {"op": "submit", "wait": True,
                                "runs": [encode_run(good), {"bad": 1}]})
            answer = recv_message(reader)
        finally:
            reader.close()
            sock.close()
        assert answer["ok"] is False
        assert "malformed run submission" in answer["error"]
        # The next submission is served, and it is the only execution.
        assert not client.submit([other])[run_digest(other)]["cached"]
        assert srv.stats.executed == 1
        assert not srv.store.contains(run_digest(good))
        assert srv.store.contains(run_digest(other))

    def test_each_malformed_kind_gets_the_error_line(self, server):
        """A run that fails to build is refused with the one malformed-run
        line, and the same connection then answers a ``ping``."""
        _, client = server
        sock = connect(client.address, timeout=30.0)
        reader = sock.makefile("r")
        try:
            for kind, bad in _MALFORMED.items():
                send_message(sock, {"op": "submit", "runs": [
                    {**encode_run(_fast_run()), **bad}]})
                answer = recv_message(reader)
                assert answer is not None, kind
                assert answer["ok"] is False, kind
                assert "malformed run submission" in answer["error"], kind
                send_message(sock, {"op": "ping"})
                assert recv_message(reader)["pong"], kind
        finally:
            reader.close()
            sock.close()

    def test_no_client_can_plant_a_result(self, server):
        """``submit`` is the only way into the store: the old store ops
        are unknown, and the run a planted value targeted is simulated."""
        srv, client = server
        run = _run_spec(victim=VictimConfig(workload="blink",
                                            duration_s=0.01),
                        attack=AttackSpec.silent())
        digest = run_digest(run)
        planted = SimResult(completions=424242).to_dict()
        entries = client.stats()["store"]["entries"]
        sock = connect(client.address, timeout=30.0)
        reader = sock.makefile("r")
        try:
            for request in ({"op": "put", "digest": digest,
                             "value": planted},
                            {"op": "get", "digest": digest},
                            {"op": "contains", "digest": digest}):
                send_message(sock, request)
                answer = recv_message(reader)
                assert answer["ok"] is False, request
                assert "unknown op" in answer["error"], request
            # The same connection still serves.
            send_message(sock, {"op": "ping"})
            assert recv_message(reader)["version"] == PROTOCOL_VERSION == 2
        finally:
            reader.close()
            sock.close()
        assert client.stats()["store"]["entries"] == entries
        line = client.submit([run])[digest]
        assert line["cached"] is False
        assert line["result"]["completions"] != 424242
        assert line["result"]["final_state"]
        assert srv.stats.executed == 1 and srv.stats.hits_served == 0

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

    def test_dispatch_survives_a_round_failure(self, server, monkeypatch):
        # A failed dispatch must cost its submitters error lines, never
        # the dispatch thread: a digest stuck in _inflight would hang its
        # waiters and dedup every future submission against a dead
        # execution.
        srv, client = server
        (pool,) = srv.pools
        real = pool.run
        failures = []

        def flaky(tasks):
            if not failures:
                failures.append(tasks)
                raise RuntimeError("disk full")
            return real(tasks)

        monkeypatch.setattr(pool, "run", flaky)
        run = _fast_run(freq=29.0)
        first = client.submit([run])[run_digest(run)]
        assert "dispatch failure" in first["error"]
        assert first["error_kind"] == SIM_ERROR
        assert not srv._inflight             # nothing left stuck
        # The dispatch thread is still alive: a resubmission executes.
        second = client.submit([run])[run_digest(run)]
        assert not second.get("error")
        assert second["result"]["final_state"]

    def test_stop_unblocks_waiting_submissions(self, tmp_path,
                                               monkeypatch):
        # A dispatch thread that never serves anything: stop() must
        # answer waiting clients with error lines, not leave them to
        # socket timeouts.
        monkeypatch.setattr(CampaignServer, "_dispatch_loop",
                            lambda self, pool: None)
        store = ResultStore(str(tmp_path / "store"))
        srv = CampaignServer(store=store, address=str(tmp_path / "s.sock"))
        client = ServeClient(srv.start(), timeout=30.0)
        waiter, outcome = _submit_in_background(client,
                                                [_fast_run(freq=33.0)])
        _wait_for(lambda: srv.scheduler.pending() == 1, timeout_s=5.0)
        srv.stop()
        waiter.join(timeout=10.0)
        assert not waiter.is_alive()
        (line,) = outcome["served"].values()
        assert not line["ok"]
        assert "stopping" in line["error"]

    def test_stop_with_a_run_in_flight(self, tmp_path):
        """stop() kills the worker holding the run instead of waiting it
        out, answers the submitter, and leaves no worker alive."""
        before = set(multiprocessing.active_children())
        srv = CampaignServer(store=ResultStore(str(tmp_path / "store")),
                             address=str(tmp_path / "s.sock"))
        client = ServeClient(srv.start(), timeout=30.0)
        waiter, outcome = _submit_in_background(client, [_long_run()])
        _wait_for(lambda: srv.scheduler.served == 1)
        time.sleep(0.2)                       # the run is in flight
        threads = list(srv._threads)
        start = time.monotonic()
        srv.stop()
        assert time.monotonic() - start < 1.5
        assert not any(thread.is_alive() for thread in threads)
        waiter.join(timeout=10.0)
        assert not waiter.is_alive()
        (line,) = outcome["served"].values()
        assert not line["ok"] and line["error"]
        assert set(multiprocessing.active_children()) <= before

    def test_tcp_port_zero_resolves(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        with CampaignServer(store=store, address="127.0.0.1:0") as srv:
            assert not srv.address.endswith(":0")
            assert ServeClient(srv.address).ping()["pong"]

    def test_shutdown_op_stops_the_server(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        srv = CampaignServer(store=store, address=str(tmp_path / "s.sock"))
        client = ServeClient(srv.start())
        assert client.shutdown()["stopping"]
        srv.serve_forever()          # returns promptly: already stopping
        with pytest.raises((OSError, ServeError)):
            client.ping()

    def test_restart_over_the_same_store_stays_warm(self, tmp_path):
        run = _fast_run()
        store = ResultStore(str(tmp_path / "store"))
        with CampaignServer(store=store,
                            address=str(tmp_path / "a.sock")) as srv:
            ServeClient(srv.address, timeout=120.0).submit([run])
        store.close()
        reopened = ResultStore(str(tmp_path / "store"))
        with CampaignServer(store=reopened,
                            address=str(tmp_path / "b.sock")) as srv:
            line = ServeClient(srv.address, timeout=120.0) \
                .submit([run])[run_digest(run)]
        assert line["cached"]


# ----------------------------------------------------------------------
# The worker pool.
# ----------------------------------------------------------------------
class TestPool:
    def test_timeout_fails_an_over_long_run_then_serves_the_next(
            self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        with CampaignServer(store=store, address=str(tmp_path / "s.sock"),
                            policy=RetryPolicy(timeout_s=0.5)) as srv:
            client = ServeClient(srv.address, timeout=60.0)
            start = time.monotonic()
            (line,) = client.submit([_long_run()]).values()
            assert time.monotonic() - start < 1.5
            assert line["error_kind"] == TIMEOUT
            assert "wall-clock" in line["error"]
            (line,) = client.submit([_fast_run()]).values()
            assert line["result"]["final_state"]
            pool = client.stats()["pool"]
        assert pool["timeouts"] == 1
        assert pool["worker_restarts"] \
            == pool["timeouts"] + pool["worker_crashes"]

    def test_misses_run_only_in_pool_processes(self, tmp_path,
                                                monkeypatch):
        # Pool workers import their own copy of the campaign module, so
        # only a simulation inside the server process can reach this.
        import repro.eval.campaign as campaign_mod

        def in_the_server(run, compiled):
            raise AssertionError("a miss ran in the server process")

        monkeypatch.setattr(campaign_mod, "execute_run", in_the_server)
        store = ResultStore(str(tmp_path / "store"))
        with CampaignServer(store=store, address=str(tmp_path / "s.sock"),
                            policy=RetryPolicy(retries=0)) as srv:
            served = ServeClient(srv.address, timeout=60.0).submit(
                [_fast_run(freq=f) for f in (27.0, 29.0, 31.0)])
        assert all(line["ok"] for line in served.values())

    def test_racing_submitters_on_more_workers_than_cores(self, tmp_path):
        """Six clients race overlapping submissions through four workers
        with a shortened switch interval: every run executes once, every
        submitter gets every result, and no worker is lost."""
        runs = [_fast_run(freq=40.0 + i) for i in range(6)]
        served = {}

        def submit(address, tenant, order):
            served[tenant] = ServeClient(address, timeout=120.0) \
                .submit(order, tenant=tenant)

        store = ResultStore(str(tmp_path / "store"))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with CampaignServer(store=store, address=str(tmp_path / "s.sock"),
                                workers=4,
                                policy=RetryPolicy(retries=0)) as srv:
                threads = [threading.Thread(
                    target=submit,
                    args=(srv.address, f"t{i}", runs[i:] + runs[:i]))
                    for i in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120.0)
                assert not any(thread.is_alive() for thread in threads)
                assert srv.stats.executed == len(runs)
                assert ServeClient(srv.address).stats()["pool"] \
                    == {"workers": 4, "retries": 0, "timeouts": 0,
                        "worker_crashes": 0, "worker_restarts": 0,
                        "budget_exceeded": 0}
        finally:
            sys.setswitchinterval(interval)
        assert len(served) == 6
        for lines in served.values():
            assert lines.keys() == served["t0"].keys()
            assert all(line["ok"] and line["result"]
                       == served["t0"][digest]["result"]
                       for digest, line in lines.items())

    def test_a_free_worker_takes_the_next_run_at_once(self, tmp_path):
        """One submission of a long run then three short ones, on two
        workers: while one worker holds the long run, the other serves
        every short run, so their lines all arrive first."""
        long_run = _run_spec(
            victim=VictimConfig(workload="dhrystone", duration_s=3.0),
            attack=AttackSpec.silent())
        short = [_run_spec(victim=VictimConfig(workload="crc16",
                                               duration_s=0.01 * (i + 1)),
                           attack=AttackSpec.silent()) for i in range(3)]
        store = ResultStore(str(tmp_path / "store"))
        with CampaignServer(store=store, address=str(tmp_path / "s.sock"),
                            workers=2,
                            policy=RetryPolicy(retries=0)) as srv:
            served = ServeClient(srv.address, timeout=120.0) \
                .submit([long_run] + short)
        assert all(line["ok"] for line in served.values())
        # submit() keys its lines in arrival order.
        assert list(served)[-1] == run_digest(long_run)
        assert set(served) == {run_digest(run) for run in [long_run] + short}

    def test_a_server_piped_on_stdin_fails_at_start(self, tmp_path):
        """A fork-server worker re-imports the main module, which a
        script on stdin does not have: start() raises one error naming
        the ``__main__`` guard, and no process is left behind."""
        import repro
        script = (
            "from repro.serve import CampaignServer\n"
            "from repro.store import ResultStore\n"
            f"CampaignServer(store=ResultStore({str(tmp_path / 'st')!r}),\n"
            f"               address={str(tmp_path / 's.sock')!r},\n"
            "               workers=2).start()\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(repro.__file__)))
        proc = subprocess.Popen([sys.executable, "-"], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=env,
                                start_new_session=True)
        _, stderr = proc.communicate(script, timeout=30.0)
        assert proc.returncode != 0
        (error,) = [line for line in stderr.splitlines()
                    if line.startswith("repro.serve.protocol.ServeError")]
        assert "exited before serving" in error
        assert 'if __name__ == "__main__":' in error
        # The script ran in its own session: wait for every process of it
        # (the fork server outlives the script briefly) to go.
        _wait_for(lambda: not _live_in_session(proc.pid))

    def test_workers_start_before_any_thread(self, tmp_path, monkeypatch):
        from repro.eval.resilient import ResilientExecutor

        new_threads_at_start = []
        enter = ResilientExecutor.__enter__

        def recording_enter(executor):
            new_threads_at_start.append(set(threading.enumerate()) - before)
            return enter(executor)

        monkeypatch.setattr(ResilientExecutor, "__enter__", recording_enter)
        before = set(threading.enumerate())
        store = ResultStore(str(tmp_path / "store"))
        srv = CampaignServer(store=store, address=str(tmp_path / "s.sock"),
                             workers=2)
        srv.start()
        try:
            assert new_threads_at_start == [set(), set()]
            assert len(multiprocessing.active_children()) >= 2
        finally:
            srv.stop()


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
        import repro.serve.client as client_mod
        monkeypatch.setattr(
            campaign_mod, "_run_point",
            lambda compiled, run: (_ for _ in ()).throw(
                AssertionError("simulated locally on the served path")))
        dials = []
        real_connect = client_mod.connect
        monkeypatch.setattr(
            client_mod, "connect",
            lambda *args, **kw: dials.append(args) or real_connect(*args,
                                                                   **kw))
        served = CampaignRunner(dispatcher=client).run(spec)
        assert served.metrics_fingerprint() \
            == direct.metrics_fingerprint()
        assert served.stats.compiles == 0
        assert served.stats.store_misses == 3    # 2 grid + baseline
        assert len(dials) == 1                   # one round trip

        # Resubmission: every run is a warm hit, nothing executes.
        executed_before = srv.stats.executed
        warm = CampaignRunner(dispatcher=client).run(spec)
        assert warm.stats.store_hits == 3
        assert warm.stats.store_misses == 0
        assert warm.stats.store_puts == 0
        assert warm.metrics_fingerprint() == direct.metrics_fingerprint()
        assert srv.stats.executed == executed_before
        assert len(dials) == 2

    def test_store_and_dispatcher_are_exclusive(self, server, tmp_path):
        _, client = server
        with pytest.raises(CampaignError, match="store or a dispatcher"):
            CampaignRunner(store=ResultStore(str(tmp_path / "local")),
                           dispatcher=client)

    def test_dispatcher_surfaces_server_errors(self, server):
        _, client = server
        # An unknown workload fails server-side; the dispatcher must
        # return the taxonomy, not raise.
        bad = _run_spec(victim=VictimConfig(workload="no-such-workload"))
        (result,) = client.execute([(0, bad)])
        assert not result.ok
        assert result.error
