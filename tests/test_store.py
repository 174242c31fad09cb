"""Result-store tests: canonical digests, the one-database layout,
crash-safe puts, gc beside live instances, and campaign memoization.

The crash tests run real child processes (`os._exit` mid-transaction,
SIGKILL, parallel writers) against one store root — the failure modes
campaigns actually see, not mocks of them.
"""

import dataclasses
import json
import multiprocessing
import os
import re
import subprocess
import sys
import threading

import pytest

from repro.eval import (
    AttackSpec,
    CampaignRunner,
    ExperimentSpec,
    VictimConfig,
)
from repro.store import (
    ResultStore,
    StoreError,
    canonical_json,
    content_digest,
    jsonable,
    run_digest,
)
from repro.store.store import DATABASE

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def _store(tmp_path) -> ResultStore:
    return ResultStore(str(tmp_path / "store"))


def _child(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports from ``src``."""
    return subprocess.run(
        [sys.executable, "-c",
         f"import sys\nsys.path.insert(0, {SRC!r})\n{code}"],
        capture_output=True, text=True)


def _fill(store, count, prefix="v"):
    digests = []
    for i in range(count):
        digest = content_digest([prefix, i])
        store.put(digest, {"n": i})
        digests.append(digest)
    return digests


# ----------------------------------------------------------------------
# The canonical digest.
# ----------------------------------------------------------------------
class TestDigest:
    def test_canonical_json_sorts_keys_compactly(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_dict_order_does_not_change_the_digest(self):
        assert content_digest({"x": 1, "y": 2}) \
            == content_digest({"y": 2, "x": 1})

    def test_tuple_and_list_spellings_agree(self):
        assert content_digest((1, (2, 3))) == content_digest([1, [2, 3]])

    def test_dataclass_digests_like_its_dict(self):
        @dataclasses.dataclass
        class Point:
            x: int
            y: int

        assert content_digest(Point(1, 2)) \
            == content_digest({"x": 1, "y": 2})

    def test_int_and_str_keys_digest_differently(self):
        # {1: x} vs {"1": x} collided under plain str() coercion — a
        # silent wrong-result risk for a content-addressed cache.
        assert content_digest({1: "x"}) != content_digest({"1": "x"})

    def test_mixed_key_types_do_not_collapse(self):
        folded = jsonable({1: "a", "1": "b"})
        assert len(folded) == 2
        assert content_digest({1: "a", "1": "b"}) \
            != content_digest({"1": "b"})

    def test_repr_fallback_cannot_alias_a_plain_string(self):
        class Weird:
            def __repr__(self):
                return "hello"

        assert content_digest(Weird()) != content_digest("hello")

    def test_plain_values_serialize_like_their_folded_copy(self):
        # canonical_json skips the folded copy for plain JSON values; the
        # bytes must be those of the folded copy, nested tags included.
        for value in ({"b": [1, 2.5, None, True], "a": ("x", {"k": [()]})},
                      {"a": ["\x00x"]}, {"a": {1: "x"}},
                      [("t", 1), {"r": VictimConfig(duration_s=0.01)}]):
            assert canonical_json(value) == json.dumps(
                jsonable(value), sort_keys=True, separators=(",", ":"))

    def test_nul_prefixed_strings_are_tagged(self):
        # Plain strings pass through; only the tag byte forces an
        # escaped spelling, so user strings can't fake a coerced one.
        assert jsonable("plain") == "plain"
        assert jsonable("\x00x") != "\x00x"
        assert content_digest("\x00x") != content_digest("x")

    def test_run_digest_ignores_the_campaign_name(self):
        # Same sweep under two campaign names → identical run digests,
        # which is what lets the store serve hits across campaigns.
        def runs(name):
            spec = ExperimentSpec(
                name=name, victim=VictimConfig(duration_s=0.01),
                attack=AttackSpec.tone(tx_dbm=35.0),
                sweep={"attack.freq_mhz": [27, 35]})
            return [run_digest(run) for _, run in spec.expand()]

        assert runs("campaign-a") == runs("campaign-b")


# ----------------------------------------------------------------------
# Basic store API.
# ----------------------------------------------------------------------
class TestStoreBasics:
    def test_put_get_roundtrip(self, tmp_path):
        store = _store(tmp_path)
        digest = content_digest("hello")
        assert store.put(digest, {"answer": 42}, meta={"name": "t"})
        entry = store.get(digest)
        assert entry["value"] == {"answer": 42}
        assert entry["meta"]["name"] == "t"
        assert "t" in entry["meta"]          # stamped timestamp

    def test_miss_returns_default(self, tmp_path):
        store = _store(tmp_path)
        assert store.get("ff" * 32) is None
        assert store.get("ff" * 32, default="nope") == "nope"
        assert not store.contains("ff" * 32)

    def test_duplicate_put_is_a_noop(self, tmp_path):
        store = _store(tmp_path)
        digest = content_digest("x")
        assert store.put(digest, {"v": 1})
        assert not store.put(digest, {"v": 2})
        assert store.get(digest)["value"] == {"v": 1}
        assert store.stats().duplicate_puts == 1

    def test_entries_persist_across_reopen(self, tmp_path):
        digests = _fill(_store(tmp_path), 10)
        reopened = _store(tmp_path)
        assert len(reopened) == 10
        for i, digest in enumerate(digests):
            assert reopened.get(digest)["value"] == {"n": i}

    def test_one_database_file_on_disk(self, tmp_path):
        store = _store(tmp_path)
        _fill(store, 20)
        store.close()
        assert os.listdir(tmp_path / "store") == [DATABASE]

    def test_stats_snapshot(self, tmp_path):
        store = _store(tmp_path)
        _fill(store, 5)
        store.get(store.digests()[0])
        store.get("ff" * 32)
        stats = store.stats()
        assert stats.entries == 5
        assert stats.puts == 5
        assert stats.hits == 1 and stats.misses == 1
        assert stats.bytes > 0

    def test_short_digest_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            _store(tmp_path).put("ab", {"v": 1})

    def test_values_read_back_as_canonical_json(self, tmp_path):
        # Sorted keys, tuples as lists, int keys as strings: a warm read
        # decodes to what json.loads(canonical bytes) gives, in any
        # process.
        store = _store(tmp_path)
        digest = content_digest("shape")
        store.put(digest, {"b": (1, 2), "a": {3: "x"}})
        value = _store(tmp_path).get(digest)["value"]
        assert value == {"a": {"3": "x"}, "b": [1, 2]}
        assert list(value) == ["a", "b"]

    def test_old_layout_root_is_refused(self, tmp_path):
        # A store written as sharded JSONL segments must not read as an
        # empty store (a torture corpus would silently vanish).
        root = tmp_path / "store"
        segment = root / "buckets" / "ab" / "seg-1.jsonl"
        segment.parent.mkdir(parents=True)
        segment.write_text('{"digest":"ab12","value":1,"meta":{}}\n')
        with pytest.raises(StoreError, match=re.escape(str(root))):
            ResultStore(str(root))
        assert not (root / DATABASE).exists()

    def test_garbage_database_raises(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        (root / DATABASE).write_bytes(b"this is not a database\n" * 64)
        with pytest.raises(StoreError, match=DATABASE):
            ResultStore(str(root))

    def test_import_does_not_load_sqlite(self):
        proc = _child("import repro.store\n"
                      "print('sqlite3' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


# ----------------------------------------------------------------------
# Crash safety and concurrent instances.
# ----------------------------------------------------------------------
class TestCrashSafety:
    def test_kill_mid_append_loses_only_the_torn_entry(self, tmp_path):
        # Five returned puts, then a sixth insert left uncommitted, then
        # os._exit without close(): the five survive, the sixth is gone.
        root = str(tmp_path / "store")
        proc = _child(f"""
import os
from repro.store import ResultStore, content_digest
store = ResultStore({root!r})
for i in range(5):
    store.put(content_digest(["k", i]), {{"n": i}})
store._db.execute("BEGIN")
store._db.execute("INSERT INTO entries VALUES (?, ?, ?, ?)",
                  (content_digest("torn"), "{{}}", "{{}}", 0.0))
os._exit(1)
""")
        assert proc.returncode == 1 and not proc.stderr, proc.stderr
        reopened = ResultStore(root)
        assert len(reopened) == 5
        assert not reopened.contains(content_digest("torn"))
        for i in range(5):
            assert reopened.get(content_digest(["k", i]))["value"] \
                == {"n": i}

    def test_per_put_fsync_overrides_store_default(self, tmp_path):
        # Commits run with synchronous=NORMAL (they reach the OS, not the
        # disk); fsync=True, and only that, commits under FULL.
        store = _store(tmp_path)
        statements = []
        store._db.set_trace_callback(statements.append)
        store.put(content_digest("a"), 1)
        assert [s.split()[0] for s in statements] == ["INSERT"]
        statements.clear()
        store.put(content_digest("b"), 2, fsync=True)
        assert [s.split()[0] for s in statements] \
            == ["PRAGMA", "INSERT", "PRAGMA"]
        assert statements[0] == "PRAGMA synchronous=FULL"
        assert statements[2] == "PRAGMA synchronous=NORMAL"
        statements.clear()
        store.put(content_digest("c"), 3, fsync=False)
        assert [s.split()[0] for s in statements] == ["INSERT"]

    def test_fsynced_put_survives_sigkill(self, tmp_path):
        root = str(tmp_path / "store")
        proc = _child(f"""
import os, signal
from repro.store import ResultStore, content_digest
store = ResultStore({root!r})
store.put(content_digest("precious"), {{"shrunk": True}}, fsync=True)
# SIGKILL: no interpreter cleanup, no atexit flushes.
os.kill(os.getpid(), signal.SIGKILL)
""")
        assert proc.returncode == -9
        reopened = ResultStore(root)
        assert reopened.get(content_digest("precious"))["value"] \
            == {"shrunk": True}

    def test_parallel_writer_processes_share_one_root(self, tmp_path):
        root = str(tmp_path / "store")
        ResultStore(root).close()          # create the database

        ctx = multiprocessing.get_context("spawn")
        procs = [ctx.Process(target=_parallel_writer,
                             args=(root, worker))
                 for worker in range(4)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        merged = ResultStore(root)
        assert len(merged) == 4 * 50
        for worker in range(4):
            for i in range(50):
                digest = content_digest(["w", worker, i])
                assert merged.get(digest)["value"] == {"w": worker,
                                                       "n": i}

    def test_second_instance_sees_puts_without_refresh(self, tmp_path):
        root = str(tmp_path / "store")
        reader = ResultStore(root)
        writer = ResultStore(root)
        digest = content_digest("late")
        assert not reader.contains(digest)
        writer.put(digest, {"v": 7})
        assert reader.contains(digest)
        assert reader.get(digest)["value"] == {"v": 7}
        assert reader.digests() == [digest]


    def test_threads_share_one_instance(self, tmp_path):
        # The server's threads share one store: puts, gets and gc passes
        # from many threads must neither fail nor lose an entry.
        store = _store(tmp_path)
        errors = []

        def writer(thread):
            try:
                for i in range(50):
                    digest = content_digest(["t", thread, i])
                    assert store.put(digest, {"t": thread, "n": i})
                    assert store.get(digest)["value"]["n"] == i
            except Exception as exc:       # reported by the main thread
                errors.append(exc)

        def collector():
            try:
                for _ in range(200):
                    assert store.gc(max_age_s=3600.0).dropped == 0
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(t,))
                       for t in range(6)]
            threads += [threading.Thread(target=collector)
                        for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        stats = store.stats()
        assert (stats.entries, stats.puts, stats.hits) == (300, 300, 300)


def _parallel_writer(root: str, worker: int) -> None:
    store = ResultStore(root)
    for i in range(50):
        store.put(content_digest(["w", worker, i]),
                  {"w": worker, "n": i})
    store.close()


# ----------------------------------------------------------------------
# GC.
# ----------------------------------------------------------------------
class TestGC:
    def test_gc_dry_run_changes_nothing(self, tmp_path):
        store = _store(tmp_path)
        for i in range(4):
            store.put(content_digest(["old", i]), i, meta={"t": 1.0})
        result = store.gc(max_age_s=3600.0, dry_run=True)
        assert result.dry_run and result.dropped == 4
        assert result.kept == 0 and result.bytes_reclaimed > 0
        assert len(store) == 4

    def test_gc_max_age_drops_stale_entries(self, tmp_path):
        store = _store(tmp_path)
        old = content_digest("old")
        new = content_digest("new")
        store.put(old, 1, meta={"t": 1.0})    # 1970: long stale
        store.put(new, 2)
        result = store.gc(max_age_s=3600.0)
        assert result.dropped == 1 and result.kept == 1
        assert not store.contains(old) and store.contains(new)

    def test_dropped_entries_stay_dropped_after_repeated_gc(self,
                                                            tmp_path):
        store = _store(tmp_path)
        old = content_digest("old")
        new = content_digest("new")
        store.put(old, 1, meta={"t": 1.0})    # 1970: long stale
        store.put(new, 2)
        assert store.gc().dropped == 0        # no max_age_s: keep all
        assert store.gc(max_age_s=3600.0).dropped == 1
        assert store.gc(max_age_s=3600.0).dropped == 0
        reopened = _store(tmp_path)
        assert not reopened.contains(old)
        assert reopened.get(new)["value"] == 2

    def test_gc_while_another_instance_is_open(self, tmp_path):
        root = str(tmp_path / "store")
        a = ResultStore(root)
        a.put(content_digest("a1"), 1, meta={"t": 1.0})
        b = ResultStore(root)
        b.put(content_digest("b1"), 2)
        result = a.gc(max_age_s=3600.0)       # b is still open
        assert (result.kept, result.dropped) == (1, 1)
        late = content_digest("b2")
        assert b.put(late, 3)                 # b's later put is kept
        reopened = ResultStore(root)
        assert sorted(reopened.digests()) \
            == sorted([content_digest("b1"), late])

    def test_reader_survives_concurrent_gc(self, tmp_path):
        root = str(tmp_path / "store")
        writer = ResultStore(root)
        digests = [content_digest(["gc", i]) for i in range(4)]
        for i, digest in enumerate(digests):
            writer.put(digest, {"n": i}, meta={"t": 1.0} if i < 2 else {})
        reader = ResultStore(root)
        assert reader.get(digests[0])["value"] == {"n": 0}
        writer.gc(max_age_s=3600.0)      # deletes under the reader
        assert reader.get(digests[0]) is None
        assert reader.get(digests[1]) is None
        for i in (2, 3):
            assert reader.get(digests[i])["value"] == {"n": i}


# ----------------------------------------------------------------------
# Campaign memoization through the store.
# ----------------------------------------------------------------------
class TestCampaignMemoization:
    def _spec(self):
        return ExperimentSpec(
            name="store-memo",
            victim=VictimConfig(duration_s=0.01),
            attack=AttackSpec.tone(tx_dbm=35.0),
            sweep={"attack.freq_mhz": [27, 35]},
            telemetry=True,
        )

    def test_second_run_is_served_without_simulating(self, tmp_path,
                                                     monkeypatch):
        store = _store(tmp_path)
        spec = self._spec()
        first = CampaignRunner(store=store).run(spec)
        assert first.stats.store_misses == 3     # 2 grid + 1 baseline
        assert first.stats.store_puts == 3

        # Warm path: every run must come from the store — break the
        # simulator to prove neither it nor the compiler is touched.
        import repro.eval.campaign as campaign_mod
        monkeypatch.setattr(
            campaign_mod, "_run_point",
            lambda compiled, run: (_ for _ in ()).throw(
                AssertionError("simulated on the warm path")))
        second = CampaignRunner(store=store).run(spec)
        assert second.stats.store_hits == 3
        assert second.stats.compiles == 0
        assert second.metrics_fingerprint() == first.metrics_fingerprint()

    def test_store_hits_cross_campaign_names(self, tmp_path):
        store = _store(tmp_path)
        spec = self._spec()
        CampaignRunner(store=store).run(spec)
        renamed = dataclasses.replace(spec, name="totally-different")
        warm = CampaignRunner(store=store).run(renamed)
        assert warm.stats.store_hits == 3
        assert warm.stats.store_misses == 0

    def test_pooled_campaign_then_warm_rerun(self, tmp_path):
        # The store is opened before the pool forks its workers; every
        # put still happens in the parent, and the rerun is all hits.
        store = _store(tmp_path)
        spec = self._spec()
        cold = CampaignRunner(workers=2, store=store,
                              start_method="fork").run(spec)
        assert cold.stats.store_puts == 3
        warm = CampaignRunner(workers=2, store=store,
                              start_method="fork").run(spec)
        assert warm.stats.store_hits == 3
        assert warm.stats.store_misses == 0
        assert warm.stats.compiles == 0
        assert warm.metrics_fingerprint() == cold.metrics_fingerprint()
