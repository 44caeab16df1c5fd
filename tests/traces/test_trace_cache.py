"""Tests for the on-disk trace materialization cache."""

from __future__ import annotations

import marshal
import shutil

import pytest

from repro.core.swf import canonical_swf_bytes
from repro.core.swf import parser as swf_parser
from repro.core.swf.parser import parse_swf_text
from repro.traces import TraceCache, default_cache_root, trace_from_spec
from repro.traces import cache as cache_module

SPEC = "trace:ctc-sp2,jobs=60,seed=4,load=0.9"
OTHER_SPEC = "trace:ctc-sp2,jobs=60,seed=5,load=0.9"


@pytest.fixture
def cache(tmp_path):
    return TraceCache(tmp_path / "trace-cache")


@pytest.fixture
def parses(monkeypatch):
    """The list of ``parse_swf_stream`` calls made from here on (one entry each)."""
    calls = []
    real = swf_parser.parse_swf_stream

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(swf_parser, "parse_swf_stream", counting)
    return calls


class TestCacheRoot:
    def test_env_var_overrides_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "custom"))
        assert default_cache_root() == tmp_path / "custom"
        monkeypatch.delenv("REPRO_TRACE_CACHE")
        assert default_cache_root().name == "repro-traces"


class TestMaterialization:
    def test_miss_builds_then_hit_parses(self, cache):
        trace = trace_from_spec(SPEC)
        first = trace.materialize(cache=cache)
        assert (cache.hits, cache.misses) == (0, 1)
        assert trace.digest in cache
        second = trace.materialize(cache=cache)
        assert (cache.hits, cache.misses) == (1, 1)
        assert first == second
        assert second.name == trace.name

    def test_cached_bytes_are_canonical(self, cache):
        trace = trace_from_spec(SPEC)
        workload = trace.materialize(cache=cache)
        on_disk = cache.path_for(trace.digest).read_bytes()
        assert on_disk == canonical_swf_bytes(workload)

    def test_corrupt_entry_is_rebuilt(self, cache):
        trace = trace_from_spec(SPEC)
        trace.materialize(cache=cache)
        cache.path_for(trace.digest).write_text("; not an swf file\nbogus\n")
        rebuilt = trace.materialize(cache=cache)
        assert rebuilt == trace.build()
        # ... and the overwritten entry is good again.
        assert cache.get(trace.digest) == rebuilt

    @pytest.mark.parametrize("bad_token", ["inf", "1e400"])
    def test_unparseable_entry_is_a_miss(self, cache, bad_token):
        trace = trace_from_spec(SPEC)
        trace.materialize(cache=cache)
        cache.path_for(trace.digest).write_text("1 0 0 " + bad_token + " 4" + " -1" * 13 + "\n")
        assert cache.get(trace.digest) is None
        assert trace.materialize(cache=cache) == trace.build()

    def test_use_cache_false_leaves_cache_untouched(self, cache):
        trace = trace_from_spec(SPEC)
        trace.materialize(cache=cache, use_cache=False)
        assert trace.digest not in cache

    def test_distinct_digests_get_distinct_entries(self, cache):
        a = trace_from_spec(SPEC)
        b = trace_from_spec("trace:ctc-sp2,jobs=60,seed=4,load=1.1")
        a.materialize(cache=cache)
        b.materialize(cache=cache)
        assert a.digest in cache and b.digest in cache
        assert cache.path_for(a.digest) != cache.path_for(b.digest)

    def test_meta_sidecar_records_the_spec(self, cache):
        import json

        trace = trace_from_spec(SPEC)
        trace.materialize(cache=cache)
        meta = json.loads(cache.meta_path_for(trace.digest).read_text())
        assert meta["spec"] == trace.spec
        assert meta["digest"] == trace.digest


class TestSwfHashCheck:
    """The meta file records the ``.swf``'s sha256; a ``.swf`` that does not match it is a miss."""

    def _assert_rebuilt(self, cache, trace):
        # holds() is the same check without the load.
        assert not cache.holds(trace.digest)
        assert cache.get(trace.digest) is None
        hits, misses = cache.hits, cache.misses
        rebuilt = trace.materialize(cache=cache)
        assert (cache.hits, cache.misses) == (hits, misses + 1)
        assert rebuilt == trace.build()
        assert rebuilt.header.entries == trace.build().header.entries
        # The rebuild rewrote the entry, so it is a hit again.
        assert cache.holds(trace.digest)
        assert cache.get(trace.digest) == rebuilt

    def test_put_records_the_hash_of_the_swf_bytes(self, cache):
        import hashlib
        import json

        trace = trace_from_spec(SPEC)
        trace.materialize(cache=cache)
        meta = json.loads(cache.meta_path_for(trace.digest).read_text())
        swf = cache.path_for(trace.digest).read_bytes()
        assert meta["sha256"] == hashlib.sha256(swf).hexdigest()

    @pytest.mark.parametrize("cut", [20, 1], ids=["last-20-lines", "last-line"])
    def test_swf_truncated_at_a_line_boundary_is_a_miss(self, cache, cut):
        trace = trace_from_spec(SPEC)
        trace.materialize(cache=cache)
        cache.get(trace.digest)  # the fields sidecar of the whole file exists too
        swf = cache.path_for(trace.digest)
        lines = swf.read_text().splitlines(keepends=True)
        swf.write_text("".join(lines[:-cut]))
        assert parse_swf_text(swf.read_text())  # still a valid, shorter trace
        self._assert_rebuilt(cache, trace)

    def test_empty_swf_is_a_miss(self, cache):
        trace = trace_from_spec(SPEC)
        trace.materialize(cache=cache)
        cache.path_for(trace.digest).write_bytes(b"")
        self._assert_rebuilt(cache, trace)

    @pytest.mark.parametrize("meta_text", [None, "{broken", "[]"], ids=["missing", "unreadable", "not-an-object"])
    def test_bad_meta_is_a_miss(self, cache, meta_text):
        trace = trace_from_spec(SPEC)
        trace.materialize(cache=cache)
        meta = cache.meta_path_for(trace.digest)
        if meta_text is None:
            meta.unlink()
        else:
            meta.write_text(meta_text)
        self._assert_rebuilt(cache, trace)

    def test_meta_without_a_hash_is_a_miss_and_rebuilt_with_one(self, cache):
        import json

        trace = trace_from_spec(SPEC)
        trace.materialize(cache=cache)
        meta_path = cache.meta_path_for(trace.digest)
        meta = json.loads(meta_path.read_text())
        del meta["sha256"]  # what entries written before the hash was recorded hold
        meta_path.write_text(json.dumps(meta))
        self._assert_rebuilt(cache, trace)
        assert "sha256" in json.loads(meta_path.read_text())


def _fresh_parse(cache, trace):
    """A strict parse of the entry's ``.swf`` as it is on disk now."""
    return parse_swf_text(cache.path_for(trace.digest).read_text(), name=trace.name)


def _rewrite_record(path, index, value):
    record = list(marshal.loads(path.read_bytes()))
    record[index] = value
    path.write_bytes(marshal.dumps(tuple(record)))


class TestFieldsSidecar:
    """A hit loads the fields sidecar only when it matches; anything else parses."""

    def _cached(self, cache, spec=SPEC):
        """A trace built into ``cache`` and read once, so its sidecar exists."""
        trace = trace_from_spec(spec)
        trace.materialize(cache=cache)
        assert cache.get(trace.digest) is not None
        assert cache.fields_path_for(trace.digest).is_file()
        return trace

    def _assert_served_and_rewritten(self, cache, trace, parses):
        expected = _fresh_parse(cache, trace)
        assert len(expected.header) > 0
        before = len(parses)
        served = cache.get(trace.digest, name=trace.name)
        assert len(parses) == before + 1
        assert served == expected
        assert served.header.entries == expected.header.entries
        assert served.name == expected.name
        # The parse rewrote the sidecar: a fresh reader loads it, parsing nothing.
        again = TraceCache(cache.root).get(trace.digest, name=trace.name)
        assert len(parses) == before + 1
        assert again == expected and again.header.entries == expected.header.entries

    def test_put_writes_no_sidecar(self, cache):
        trace = trace_from_spec(SPEC)
        trace.materialize(cache=cache)
        assert not cache.fields_path_for(trace.digest).exists()

    def test_second_materialize_from_a_fresh_cache_parses_nothing(self, cache, parses):
        trace = trace_from_spec(SPEC)
        built = trace.materialize(cache=cache)
        del parses[:]
        first = trace.materialize(cache=TraceCache(cache.root))
        assert len(parses) == 1
        second = trace.materialize(cache=TraceCache(cache.root))
        assert len(parses) == 1
        assert canonical_swf_bytes(second) == canonical_swf_bytes(built)
        assert second == first == built
        assert second.header.entries == built.header.entries
        assert second.name == trace.name

    def test_truncated_sidecar_is_a_sidecar_miss(self, cache, parses):
        trace = self._cached(cache)
        path = cache.fields_path_for(trace.digest)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        self._assert_served_and_rewritten(cache, trace, parses)

    @pytest.mark.parametrize(
        "index, value",
        [(0, "swf-fields-v0"), (1, "trace-v0"), (2, marshal.version - 1)],
        ids=["layout", "trace-format", "marshal-version"],
    )
    def test_wrong_stamp_is_a_sidecar_miss(self, cache, parses, index, value):
        trace = self._cached(cache)
        _rewrite_record(cache.fields_path_for(trace.digest), index, value)
        self._assert_served_and_rewritten(cache, trace, parses)

    def test_edited_swf_is_a_miss_not_served_from_the_old_sidecar(self, cache, parses):
        trace = self._cached(cache)
        swf = cache.path_for(trace.digest)
        lines = swf.read_text().splitlines(keepends=True)
        job = next(i for i, line in enumerate(lines) if not line.startswith(";"))
        fields = lines[job].split()
        fields[4] = str(int(fields[4]) + 1)  # one job's processor count
        lines[job] = " ".join(fields) + "\n"
        swf.write_text("".join(lines))
        before = len(parses)
        assert cache.get(trace.digest) is None
        assert len(parses) == before  # the hash check rejects it before any parse
        assert trace.materialize(cache=cache) == trace.build()
        assert cache.get(trace.digest) == trace.build()

    def test_sidecar_of_another_digest_is_a_sidecar_miss(self, cache, parses):
        trace = self._cached(cache)
        other = self._cached(cache, OTHER_SPEC)
        shutil.copyfile(
            cache.fields_path_for(other.digest), cache.fields_path_for(trace.digest)
        )
        self._assert_served_and_rewritten(cache, trace, parses)

    def test_unwritable_root_serves_parses_without_error(self, cache, parses, monkeypatch):
        trace = trace_from_spec(SPEC)
        trace.materialize(cache=cache)

        def refuse(path, data):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(cache_module, "atomic_write", refuse)
        expected = _fresh_parse(cache, trace)
        before = len(parses)
        for _ in range(2):
            served = trace.materialize(cache=TraceCache(cache.root))
            assert served == expected and served.name == expected.name
            assert served.header.entries == expected.header.entries
        assert len(parses) == before + 2
        assert not cache.fields_path_for(trace.digest).exists()

    def test_corrupt_swf_with_a_sidecar_is_still_a_miss(self, cache):
        trace = self._cached(cache)
        cache.path_for(trace.digest).write_text("; not an swf file\nbogus\n")
        assert cache.get(trace.digest) is None
        assert trace.materialize(cache=cache) == trace.build()


class TestTraceCacheGC:
    def _materialize(self, cache, spec=SPEC):
        trace = trace_from_spec(spec)
        trace.materialize(cache=cache)
        return trace

    def test_fresh_entries_are_kept(self, cache):
        trace = self._materialize(cache)
        stats = cache.gc()
        assert (stats.scanned, stats.kept) == (1, 1)
        assert not stats.removed and trace.digest in cache

    def test_missing_root_is_empty_stats(self, tmp_path):
        stats = TraceCache(tmp_path / "never-created").gc()
        assert stats.scanned == 0 and not stats.removed

    def test_stale_format_is_evicted(self, cache):
        import json

        trace = self._materialize(cache)
        meta_path = cache.meta_path_for(trace.digest)
        meta = json.loads(meta_path.read_text())
        meta["format"] = "trace-v0"
        meta_path.write_text(json.dumps(meta))

        stats = cache.gc()
        assert stats.removed == {trace.digest: "stale"}
        assert trace.digest not in cache
        assert not meta_path.exists()  # the sidecar goes with the SWF

    def test_missing_sidecar_counts_as_corrupt(self, cache):
        trace = self._materialize(cache)
        cache.meta_path_for(trace.digest).unlink()
        stats = cache.gc()
        assert stats.removed == {trace.digest: "corrupt"}
        assert trace.digest not in cache

    def test_age_eviction_uses_swf_mtime(self, cache):
        import os
        import time

        old = self._materialize(cache)
        young = self._materialize(
            cache, "trace:ctc-sp2,jobs=60,seed=5,load=0.9"
        )
        week_ago = time.time() - 7 * 86400
        os.utime(cache.path_for(old.digest), (week_ago, week_ago))

        stats = cache.gc(max_age_days=3)
        assert stats.removed == {old.digest: "expired"}
        assert old.digest not in cache and young.digest in cache

    def test_dry_run_reports_without_deleting(self, cache):
        trace = self._materialize(cache)
        cache.meta_path_for(trace.digest).unlink()
        stats = cache.gc(dry_run=True)
        assert stats.dry_run and stats.removed == {trace.digest: "corrupt"}
        assert trace.digest in cache

    def test_eviction_takes_the_sidecar_and_counts_its_bytes(self, cache):
        import json

        trace = self._materialize(cache)
        cache.get(trace.digest)  # the first read writes the fields sidecar
        meta_path = cache.meta_path_for(trace.digest)
        meta_path.write_text(json.dumps({"format": "trace-v0"}))
        files = [cache.path_for(trace.digest), meta_path, cache.fields_path_for(trace.digest)]
        size = sum(path.stat().st_size for path in files)

        dry = cache.gc(dry_run=True)
        assert dry.removed == {trace.digest: "stale"} and dry.freed_bytes == size
        assert all(path.exists() for path in files)

        stats = cache.gc()
        assert stats.removed == {trace.digest: "stale"} and stats.freed_bytes == size
        assert not any(path.exists() for path in files)

    def test_orphan_sidecar_is_removed(self, cache):
        trace = self._materialize(cache)
        kept = self._materialize(cache, OTHER_SPEC)
        for digest in (trace.digest, kept.digest):
            cache.get(digest)
        fields = cache.fields_path_for(trace.digest)
        meta = cache.meta_path_for(trace.digest)
        cache.path_for(trace.digest).unlink()
        size = fields.stat().st_size + meta.stat().st_size

        dry = cache.gc(dry_run=True)
        assert dry.removed == {trace.digest: "orphan"} and dry.freed_bytes == size
        assert fields.exists() and meta.exists()

        stats = cache.gc()
        assert stats.removed == {trace.digest: "orphan"} and stats.freed_bytes == size
        assert stats.kept == 1
        assert not fields.exists() and not meta.exists()
        assert cache.fields_path_for(kept.digest).exists()

    def test_orphan_sidecar_goes_even_when_keeping_stale(self, cache):
        trace = self._materialize(cache)
        cache.get(trace.digest)
        cache.path_for(trace.digest).unlink()
        cache.meta_path_for(trace.digest).unlink()
        stats = cache.gc(drop_stale=False)
        assert stats.removed == {trace.digest: "orphan"}
        assert not cache.fields_path_for(trace.digest).exists()
        assert not cache.root.joinpath(trace.digest[:2]).exists()  # the emptied shard goes too

    def test_keep_stale_skips_format_and_corrupt_checks(self, cache):
        trace = self._materialize(cache)
        cache.meta_path_for(trace.digest).unlink()
        stats = cache.gc(drop_stale=False)
        assert not stats.removed and trace.digest in cache
