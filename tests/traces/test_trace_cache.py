"""Tests for the on-disk trace materialization cache."""

from __future__ import annotations

import pytest

from repro.core.swf import canonical_swf_bytes
from repro.traces import TraceCache, default_cache_root, trace_from_spec

SPEC = "trace:ctc-sp2,jobs=60,seed=4,load=0.9"


@pytest.fixture
def cache(tmp_path):
    return TraceCache(tmp_path / "trace-cache")


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

    def test_keep_stale_skips_format_and_corrupt_checks(self, cache):
        trace = self._materialize(cache)
        cache.meta_path_for(trace.digest).unlink()
        stats = cache.gc(drop_stale=False)
        assert not stats.removed and trace.digest in cache
