"""Result-store tests: canonical digests, sharded layout, crash-safe
appends, gc compaction, journal ingestion, and campaign memoization.

The crash tests run real child processes (`os._exit` mid-append,
parallel writers) against one store root — the failure modes campaigns
actually see, not mocks of them.
"""

import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from repro.eval import (
    AttackSpec,
    CampaignRunner,
    ExperimentSpec,
    RunJournal,
    VictimConfig,
)
from repro.store import (
    ResultStore,
    StoreError,
    canonical_json,
    content_digest,
    jsonable,
    run_digest,
    task_digest,
)


def _store(tmp_path, **kwargs) -> ResultStore:
    return ResultStore(str(tmp_path / "store"), **kwargs)


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

    def test_task_digest_is_stable_where_repr_was_not(self):
        # The old executor digest hashed repr((index, payload)): two
        # structurally-equal dicts with different insertion order repr
        # differently, but the canonical digest must agree.
        a = {"freq": 27, "dbm": 35}
        b = {"dbm": 35, "freq": 27}
        assert repr((0, a)) != repr((0, b))
        assert task_digest(0, a) == task_digest(0, b)
        assert task_digest(0, a) != task_digest(1, a)

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

    def test_sharded_bucket_layout_on_disk(self, tmp_path):
        store = _store(tmp_path)
        digests = _fill(store, 20)
        buckets_dir = tmp_path / "store" / "buckets"
        on_disk = {p.name for p in buckets_dir.iterdir()}
        assert on_disk == {d[:2] for d in digests}
        for bucket in buckets_dir.iterdir():
            segs = list(bucket.iterdir())
            assert segs and all(
                s.name == f"seg-{store.writer_id}.jsonl" for s in segs)

    def test_stats_snapshot(self, tmp_path):
        store = _store(tmp_path)
        _fill(store, 5)
        store.get(store.digests()[0])
        store.get("ff" * 32)
        stats = store.stats()
        assert stats.entries == 5
        assert stats.puts == 5
        assert stats.hits == 1 and stats.misses == 1
        assert stats.buckets == len({d[:2] for d in store.digests()})
        assert stats.bytes > 0

    def test_prefix_len_validated(self, tmp_path):
        with pytest.raises(StoreError):
            ResultStore(str(tmp_path / "s"), prefix_len=0)
        with pytest.raises(StoreError):
            ResultStore(str(tmp_path / "s"), prefix_len=9)

    def test_short_digest_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            _store(tmp_path).put("ab", {"v": 1})


# ----------------------------------------------------------------------
# Crash safety.
# ----------------------------------------------------------------------
class TestCrashSafety:
    def test_torn_trailing_line_is_recovered(self, tmp_path):
        store = _store(tmp_path)
        digests = _fill(store, 3)
        store.close()
        # Tear the tail of one segment: keep the file but cut the last
        # line short of its newline, as a mid-write kill would.
        path, _, _ = store._index[digests[0]]
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 2)
        reopened = ResultStore(str(tmp_path / "store"),
                               writer_id=store.writer_id)
        assert reopened.stats().torn_recovered == 1
        assert len(reopened) == 2            # the torn entry is gone...
        survivors = set(reopened.digests())
        assert digests[0] not in survivors   # ...the rest are intact
        # Repair truncated the torn bytes, so appends resume cleanly.
        reopened.put(digests[0], {"again": True})
        assert len(reopened) == 3

    def test_corrupt_middle_line_skipped_with_warning(self, tmp_path):
        store = _store(tmp_path)
        digest_keep = content_digest("keep")
        segment = tmp_path / "store" / "buckets" / digest_keep[:2] \
            / "seg-evil.jsonl"
        segment.parent.mkdir(parents=True, exist_ok=True)
        good = json.dumps({"digest": digest_keep, "value": 1}) + "\n"
        segment.write_text("this is not json\n" + good)
        with pytest.warns(RuntimeWarning, match="corrupt entry"):
            reopened = _store(tmp_path)
        assert reopened.get(digest_keep)["value"] == 1
        assert reopened.stats().corrupt_skipped == 1

    def test_kill_mid_append_loses_only_the_torn_entry(self, tmp_path):
        root = str(tmp_path / "store")
        code = f"""
import os, sys
sys.path.insert(0, {os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")!r})
from repro.store import ResultStore, content_digest
store = ResultStore({root!r}, writer_id="victim")
for i in range(5):
    store.put(content_digest(["k", i]), {{"n": i}})
# Hand-write a partial line straight into a segment, then die hard:
# exactly the bytes a power-cut mid-append leaves behind.
handle = store._writer(content_digest(["k", 0])[:2])
handle.write(b'{{"digest":"deadbeefdeadbeef","value":')
handle.flush()
os._exit(1)
"""
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True)
        assert proc.returncode == 1
        reopened = ResultStore(root, writer_id="victim")
        assert len(reopened) == 5
        assert reopened.stats().torn_recovered == 1
        for i in range(5):
            assert reopened.get(content_digest(["k", i]))["value"] \
                == {"n": i}

    def test_per_put_fsync_overrides_store_default(self, tmp_path,
                                                   monkeypatch):
        import repro.store.store as store_mod

        synced = []
        monkeypatch.setattr(store_mod.os, "fsync",
                            lambda fd: synced.append(fd))
        lazy = ResultStore(str(tmp_path / "lazy"))       # default False
        eager = ResultStore(str(tmp_path / "eager"), fsync=True)

        lazy.put(content_digest("a"), 1)
        assert not synced                                # default honored
        lazy.put(content_digest("b"), 2, fsync=True)
        assert len(synced) == 1                          # opt-in sync
        eager.put(content_digest("c"), 3)
        assert len(synced) == 2                          # default honored
        eager.put(content_digest("d"), 4, fsync=False)
        assert len(synced) == 2                          # opt-out skip

    def test_fsynced_put_survives_sigkill(self, tmp_path):
        root = str(tmp_path / "store")
        code = f"""
import os, signal, sys
sys.path.insert(0, {os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")!r})
from repro.store import ResultStore, content_digest
store = ResultStore({root!r}, writer_id="victim")
store.put(content_digest("precious"), {{"shrunk": True}}, fsync=True)
# SIGKILL: no interpreter cleanup, no atexit flushes — the entry is
# only safe if the put really reached the disk before returning.
os.kill(os.getpid(), signal.SIGKILL)
"""
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True)
        assert proc.returncode == -9
        reopened = ResultStore(root, writer_id="victim")
        assert reopened.get(content_digest("precious"))["value"] \
            == {"shrunk": True}

    def test_parallel_writer_processes_share_one_root(self, tmp_path):
        root = str(tmp_path / "store")
        ResultStore(root).close()          # create the layout

        ctx = multiprocessing.get_context("spawn")
        procs = [ctx.Process(target=_parallel_writer,
                             args=(root, worker))
                 for worker in range(3)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        merged = ResultStore(root)
        assert len(merged) == 3 * 8
        for worker in range(3):
            for i in range(8):
                digest = content_digest(["w", worker, i])
                assert merged.get(digest)["value"] == {"w": worker,
                                                       "n": i}

    def test_refresh_sees_another_writers_appends(self, tmp_path):
        root = str(tmp_path / "store")
        reader = ResultStore(root, writer_id="reader")
        writer = ResultStore(root, writer_id="writer")
        digest = content_digest("late")
        writer.put(digest, {"v": 7})
        assert not reader.contains(digest)
        assert reader.refresh() == 1
        assert reader.get(digest)["value"] == {"v": 7}


def _parallel_writer(root: str, worker: int) -> None:
    store = ResultStore(root, writer_id=f"w{worker}")
    for i in range(8):
        store.put(content_digest(["w", worker, i]),
                  {"w": worker, "n": i})
    store.close()


# ----------------------------------------------------------------------
# GC.
# ----------------------------------------------------------------------
class TestGC:
    def test_gc_drops_rejected_entries_and_compacts(self, tmp_path):
        store = _store(tmp_path)
        digests = _fill(store, 6)
        doomed = set(digests[:2])
        result = store.gc(keep=lambda d, meta: d not in doomed)
        assert result.kept == 4 and result.dropped == 2
        assert result.segments_compacted >= 1
        assert len(store) == 4
        for digest in doomed:
            assert not store.contains(digest)
        # Survivors still readable from the compacted segments.
        assert store.get(digests[-1])["value"] == {"n": 5}

    def test_gc_dry_run_changes_nothing(self, tmp_path):
        store = _store(tmp_path)
        _fill(store, 4)
        result = store.gc(keep=lambda d, meta: False, dry_run=True)
        assert result.dry_run and result.dropped == 4
        assert len(store) == 4

    def test_gc_max_age_drops_stale_entries(self, tmp_path):
        store = _store(tmp_path)
        old = content_digest("old")
        new = content_digest("new")
        store.put(old, 1, meta={"t": 1.0})    # 1970: long stale
        store.put(new, 2)
        result = store.gc(max_age_s=3600.0)
        assert result.dropped == 1
        assert not store.contains(old) and store.contains(new)

    def test_gc_dedupes_across_writer_segments(self, tmp_path):
        root = str(tmp_path / "store")
        a = ResultStore(root, writer_id="a")
        digest = content_digest("shared")
        a.put(digest, {"v": 1})
        a.close()
        b = ResultStore(root, writer_id="b")
        # Segment-level duplicate: another writer stored the same digest
        # before b refreshed (the race gc exists to clean up).
        assert not b.contains(content_digest("never"))
        b._index.pop(digest, None)
        b.put(digest, {"v": 1})
        result = b.gc()
        assert result.duplicates_dropped == 1
        assert result.kept == 1

    def test_dropped_entries_stay_dropped_after_repeated_gc(self,
                                                            tmp_path):
        # Regression: gc never unlinked its own stale -gc segments, so
        # an entry dropped by a *second* pass resurrected from the
        # first pass's compacted file on the next refresh.
        store = _store(tmp_path)
        old = content_digest("old")
        new = content_digest("new")
        store.put(old, 1, meta={"t": 1.0})    # 1970: long stale
        store.put(new, 2)
        store.gc()                   # both move into the -gc segment
        result = store.gc(max_age_s=3600.0)
        assert result.dropped == 1
        store.refresh()
        assert not store.contains(old)
        assert store.get(new)["value"] == 2
        reopened = _store(tmp_path)  # full rescan from disk
        assert not reopened.contains(old)
        assert reopened.contains(new)

    def test_gc_unlinks_other_writers_compacted_segments(self,
                                                         tmp_path):
        # Regression: another writer's seg-*-gc.jsonl was never
        # removed, duplicating its entries on every cross-writer gc.
        root = str(tmp_path / "store")
        a = ResultStore(root, writer_id="a")
        digest = content_digest("x")
        a.put(digest, {"v": 1})
        a.gc()                       # leaves seg-a-gc.jsonl behind
        a.close()
        b = ResultStore(root, writer_id="b")
        for _ in range(2):
            result = b.gc()
            assert result.kept == 1
            assert result.duplicates_dropped == 0
        names = {seg.name
                 for bucket in (tmp_path / "store" / "buckets").iterdir()
                 for seg in bucket.iterdir()}
        assert names == {"seg-b-gc.jsonl"}
        assert b.get(digest)["value"] == {"v": 1}

    def test_gc_refuses_while_another_writer_is_live(self, tmp_path):
        root = str(tmp_path / "store")
        a = ResultStore(root, writer_id="a")
        a.put(content_digest("a1"), 1)
        b = ResultStore(root, writer_id="b")
        b.put(content_digest("b1"), 2)
        with pytest.raises(StoreError, match="exclusive"):
            a.gc()
        assert a.gc(dry_run=True).kept == 2   # reads never need it
        b.close()
        assert a.gc().kept == 2               # quiesced → proceeds

    def test_reader_survives_concurrent_gc(self, tmp_path):
        root = str(tmp_path / "store")
        writer = ResultStore(root, writer_id="w")
        digests = [content_digest(["gc", i]) for i in range(4)]
        for i, digest in enumerate(digests):
            writer.put(digest, {"n": i})
        reader = ResultStore(root, writer_id="r")
        assert reader.get(digests[0])["value"] == {"n": 0}
        writer.gc()                      # rewrites segments under reader
        # Old handles may now point at unlinked or rewritten files; the
        # reader self-heals by rescanning.
        for i, digest in enumerate(digests):
            assert reader.get(digest)["value"] == {"n": i}


# ----------------------------------------------------------------------
# Journal hardening (satellite: RunJournal.load) + ingestion.
# ----------------------------------------------------------------------
class TestJournalHardening:
    def test_truncated_trailing_line_skipped_with_warning(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps({"digest": "aa", "result": 1}) + "\n")
            handle.write('{"digest": "bb", "resu')   # torn mid-write
        with pytest.warns(RuntimeWarning, match="torn write"):
            entries = RunJournal.load(path)
        assert set(entries) == {"aa"}

    def test_corrupt_middle_line_does_not_cost_the_rest(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps({"digest": "aa", "result": 1}) + "\n")
            handle.write("\x00\xff garbage \n")
            handle.write(json.dumps({"digest": "bb", "result": 2}) + "\n")
        with pytest.warns(RuntimeWarning):
            entries = RunJournal.load(path)
        assert set(entries) == {"aa", "bb"}

    def test_non_digest_entries_skipped_with_warning(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps(["not", "a", "dict"]) + "\n")
            handle.write(json.dumps({"no_digest": True}) + "\n")
            handle.write(json.dumps({"digest": "aa", "result": 1}) + "\n")
        with pytest.warns(RuntimeWarning, match="not a digest-keyed"):
            entries = RunJournal.load(path)
        assert set(entries) == {"aa"}


class TestJournalImport:
    def test_import_round_trip(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = RunJournal(path)
        journal.append({"digest": "aa" * 16, "result": {"ok": 1}})
        journal.append({"digest": "bb" * 16, "result": {"ok": 2}})
        journal.append({"digest": "cc" * 16, "result": None})  # failure
        journal.close()
        store = _store(tmp_path)
        assert store.import_journal(path, meta={"name": "pr5"}) == 2
        entry = store.get("aa" * 16)
        assert entry["value"] == {"ok": 1}
        assert entry["meta"]["src"] == "journal"
        assert entry["meta"]["name"] == "pr5"
        assert not store.contains("cc" * 16)
        # Re-import is idempotent (content addressing).
        assert store.import_journal(path) == 0


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
