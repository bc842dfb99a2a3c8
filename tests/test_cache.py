"""Tests for the result-cache lifecycle: entry files, stats, eviction."""

import json
import time

import pytest

from repro.cli import main
from repro.engine import AllocationRequest, Engine, ResultCache
from repro.experiments import build_case


def requests_for(count):
    return [
        AllocationRequest(build_case(n, s, relaxation=0.2).problem, "dpalloc")
        for n, s in [(4 + 2 * (i // 3), i % 3) for i in range(count)]
    ]


def entry_files(cache_dir):
    return sorted(
        p for p in cache_dir.glob("*.json") if p.name != "manifest.json"
    )


class TestManifest:
    """The entry files are the only record: no manifest is written, and
    one left behind by an older version of the cache is ignored."""

    def test_corrupt_manifest_is_rebuilt_from_scan(self, tmp_path):
        cache_dir = tmp_path / "cache"
        for leftover in ("{not json", '{"kind": "other"}', "[]",
                         '{"kind": "cache-manifest", "entries": 3}'):
            Engine(cache_dir=cache_dir).run_batch(requests_for(3))
            on_disk = sum(p.stat().st_size for p in entry_files(cache_dir))
            (cache_dir / "manifest.json").write_text(leftover)
            fresh = Engine(cache_dir=cache_dir)
            stats = fresh.cache_stats()
            assert stats["entries"] == 3, leftover
            assert stats["total_bytes"] == on_disk, leftover
            # ... entries are still served as cache hits, and the
            # leftover file is neither rewritten nor pruned
            results = fresh.run_batch(requests_for(3))
            assert all(r.cached for r in results), leftover
            fresh.prune_cache(max_mb=1e-6)
            assert (cache_dir / "manifest.json").read_text() == leftover
            assert fresh.cache_stats()["entries"] == 0

    def test_rebuild_adopts_untracked_entries(self, tmp_path):
        cache_dir = tmp_path / "cache"
        Engine(cache_dir=cache_dir, cache_max_mb=10).run_batch(
            requests_for(2)
        )
        assert not (cache_dir / "manifest.json").exists()
        stats = Engine(cache_dir=cache_dir).cache_stats()
        assert stats["entries"] == 2

    def test_stale_manifest_entries_are_dropped(self, tmp_path):
        cache_dir = tmp_path / "cache"
        engine = Engine(cache_dir=cache_dir)
        engine.run_batch(requests_for(2))
        entry_files(cache_dir)[0].unlink()
        assert Engine(cache_dir=cache_dir).cache_stats()["entries"] == 1

    def test_deleted_and_malformed_mix_never_tracebacks(self, tmp_path):
        cache_dir = tmp_path / "cache"
        Engine(cache_dir=cache_dir).run_batch(requests_for(3))
        keys = [p.stem for p in entry_files(cache_dir)]
        (cache_dir / "manifest.json").write_text(json.dumps({
            "kind": "cache-manifest",
            "entries": {keys[0]: None, "phantom": {"size": 1}},
        }))
        (cache_dir / f"{keys[1]}.json").unlink()      # deleted entry file
        (cache_dir / f"{keys[2]}.123.tmp").write_text("{torn")  # dead writer
        (cache_dir / "notes.json").write_text("{}")   # not a 64-char key

        engine = Engine(cache_dir=cache_dir)
        assert engine.cache_stats()["entries"] == 2   # keys[0] and keys[2]
        assert engine.prune_cache(max_mb=1e-6)["evicted"] == 2
        assert engine.clear_cache() == 0


class TestDirectoryIndex:
    def test_two_instances_count_and_prune_each_others_entries(
        self, tmp_path
    ):
        """Two caches on one directory (two fleet workers sharing a
        store): each sees the other's entries and prunes them in mtime
        order, whoever wrote them."""
        cache_dir = tmp_path / "cache"
        first, second = ResultCache(cache_dir), ResultCache(cache_dir)
        text = json.dumps({"payload": "x" * 200})
        assert first.stats()["entries"] == second.stats()["entries"] == 0
        for name, cache in (("a", first), ("b", second),
                            ("c", first), ("d", second)):
            cache.write("k" * 63 + name, text)
            time.sleep(0.01)
        assert first.stats()["entries"] == second.stats()["entries"] == 4
        # Touching "a" through the second instance makes it the newest.
        assert second.read("k" * 63 + "a") == text
        report = first.prune(max_mb=(2.5 * len(text)) / (1024 * 1024))
        assert report == {
            "evicted": 2, "reclaimed_bytes": 2 * len(text), "remaining": 2,
        }
        remaining = {p.stem[-1] for p in entry_files(cache_dir)}
        assert remaining == {"a", "d"}
        assert second.stats()["entries"] == 2

    def test_stats_without_reconcile_serves_the_view(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache = ResultCache(cache_dir)
        cache.write("k" * 64, "{}")
        assert cache.stats(reconcile=False)["entries"] == 1
        ResultCache(cache_dir).write("j" * 64, "{}")  # another process
        assert cache.stats(reconcile=False)["entries"] == 1
        assert cache.stats()["entries"] == 2

    def test_read_hits_never_scan(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.write("k" * 64, "{}")
        assert cache.read("k" * 64) == "{}"
        assert cache._entries is None  # no directory scan so far


class TestStats:
    def test_counts_hits_and_misses(self, tmp_path):
        engine = Engine(cache_dir=tmp_path / "cache")
        engine.run_batch(requests_for(4))
        stats = engine.cache_stats()
        assert stats["entries"] == 4 and stats["misses"] == 4
        assert stats["hits"] == 0
        engine.run_batch(requests_for(4))
        assert engine.cache_stats()["hits"] == 4

    def test_totals_match_disk(self, tmp_path):
        cache_dir = tmp_path / "cache"
        engine = Engine(cache_dir=cache_dir)
        engine.run_batch(requests_for(3))
        stats = engine.cache_stats()
        on_disk = sum(p.stat().st_size for p in entry_files(cache_dir))
        assert stats["total_bytes"] == on_disk
        assert stats["max_bytes"] is None

    def test_none_without_cache(self):
        assert Engine().cache_stats() is None
        assert Engine().clear_cache() == 0
        assert Engine().prune_cache()["evicted"] == 0


class TestEviction:
    def test_lru_order(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        text = json.dumps({"payload": "x" * 200})
        for name in ("a", "b", "c"):
            cache.write("k" * 63 + name, text)
            time.sleep(0.01)
        # Touch "a": it becomes most recently used.
        assert cache.read("k" * 63 + "a") is not None
        # Budget for two entries: exactly one must go -- the LRU one.
        report = cache.prune(max_mb=(2.5 * len(text)) / (1024 * 1024))
        assert report["evicted"] == 1
        remaining = {p.stem[-1] for p in entry_files(tmp_path / "cache")}
        assert "a" in remaining  # LRU evicts b first, never the touched a
        assert "b" not in remaining

    def test_budget_enforced_after_each_store(self, tmp_path):
        # The flush that ends each run or batch enforces the budget.
        cache_dir = tmp_path / "cache"
        engine = Engine(cache_dir=cache_dir, cache_max_mb=0.002)  # ~2 KB
        engine.run_batch(requests_for(6))
        on_disk = sum(p.stat().st_size for p in entry_files(cache_dir))
        assert 0 < on_disk <= 0.002 * 1024 * 1024
        stats = engine.cache_stats(reconcile=False)
        assert stats["total_bytes"] == on_disk
        assert stats["entries"] == len(entry_files(cache_dir)) < 6
        assert engine.cache_stats()["total_bytes"] == on_disk

    def test_unbounded_by_default(self, tmp_path):
        engine = Engine(cache_dir=tmp_path / "cache")
        engine.run_batch(requests_for(6))
        assert engine.cache_stats()["entries"] == 6
        assert engine.prune_cache()["evicted"] == 0  # no budget, no-op

    def test_explicit_prune_overrides_budget(self, tmp_path):
        engine = Engine(cache_dir=tmp_path / "cache")
        engine.run_batch(requests_for(4))
        report = engine.prune_cache(max_mb=1e-6)  # evict practically all
        assert report["evicted"] >= 3
        assert report["reclaimed_bytes"] > 0

    def test_cache_max_mb_requires_cache_dir(self):
        with pytest.raises(ValueError):
            Engine(cache_max_mb=10)
        with pytest.raises(ValueError):
            ResultCache("x", max_mb=0)

    def test_prune_rejects_non_positive_budget(self, tmp_path):
        # prune(0) must not silently empty the cache (that is clear()).
        engine = Engine(cache_dir=tmp_path / "cache")
        engine.run_batch(requests_for(2))
        for budget in (0, -1):
            with pytest.raises(ValueError):
                engine.prune_cache(budget)
        assert engine.cache_stats()["entries"] == 2

    def test_lru_position_survives_across_instances(self, tmp_path):
        # Hits refresh the entry file mtime, the only LRU record; a
        # later engine's prune must see that recency.
        cache_dir = tmp_path / "cache"
        first = Engine(cache_dir=cache_dir)
        requests = requests_for(3)
        first.run_batch(requests)
        time.sleep(0.01)
        hit = first.run(requests[0])
        assert hit.cached
        sizes = sorted(p.stat().st_size for p in entry_files(cache_dir))
        budget_mb = (sizes[0] + sizes[1] + 1) / (1024 * 1024)
        second = Engine(cache_dir=cache_dir)
        second.prune_cache(budget_mb)
        assert second.run(requests[0]).cached  # the touched entry stayed

    def test_corrupt_entry_recounted_as_miss_and_removed(self, tmp_path):
        cache_dir = tmp_path / "cache"
        engine = Engine(cache_dir=cache_dir)
        (request,) = requests_for(1)
        engine.run(request)
        (entry,) = entry_files(cache_dir)
        entry.write_text("{torn")
        result = engine.run(request)
        assert result.ok and not result.cached
        stats = engine.cache_stats()
        # initial miss + corrupt lookup reclassified as miss; the
        # corrupt-file read must not linger as a phantom hit
        assert stats["hits"] == 0 and stats["misses"] == 2
        assert engine.run(request).cached  # fresh envelope re-cached

    def test_evicted_entry_reruns_and_recaches(self, tmp_path):
        cache_dir = tmp_path / "cache"
        engine = Engine(cache_dir=cache_dir)
        (request,) = requests_for(1)
        engine.run(request)
        engine.prune_cache(max_mb=1e-6)
        result = engine.run(request)
        assert not result.cached  # evicted -> fresh run
        assert engine.run(request).cached  # ... which re-cached


class TestClear:
    def test_clear_removes_everything(self, tmp_path):
        cache_dir = tmp_path / "cache"
        engine = Engine(cache_dir=cache_dir)
        engine.run_batch(requests_for(3))
        assert engine.clear_cache() == 3
        assert engine.cache_stats()["entries"] == 0
        assert not entry_files(cache_dir)
        assert not (cache_dir / "manifest.json").exists()

    def test_clear_on_missing_dir_is_safe(self, tmp_path):
        assert Engine(cache_dir=tmp_path / "nope").clear_cache() == 0


class TestCacheCli:
    def seed(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main([
            "batch", "fir", "biquad", "--methods", "dpalloc",
            "--relax", "0.5", "--cache-dir", str(cache_dir),
        ]) == 0
        capsys.readouterr()
        return cache_dir

    def test_stats(self, tmp_path, capsys):
        cache_dir = self.seed(tmp_path, capsys)
        assert main(["cache", "stats", str(cache_dir)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 2 and stats["total_bytes"] > 0

    def test_prune_requires_budget(self, tmp_path, capsys):
        cache_dir = self.seed(tmp_path, capsys)
        assert main(["cache", "prune", str(cache_dir)]) == 2
        assert "--max-mb" in capsys.readouterr().err
        assert main([
            "cache", "prune", str(cache_dir), "--max-mb", "0.000001",
        ]) == 0
        assert "evicted 2 entries" in capsys.readouterr().out

    def test_clear(self, tmp_path, capsys):
        cache_dir = self.seed(tmp_path, capsys)
        assert main(["cache", "clear", str(cache_dir)]) == 0
        assert "removed 2 entries" in capsys.readouterr().out
        assert not entry_files(cache_dir)

    def test_batch_cache_max_mb_needs_cache_dir(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["batch", "fir", "--methods", "dpalloc",
                  "--cache-max-mb", "1"])
        assert "--cache-dir" in capsys.readouterr().err

    def test_serve_cache_max_mb_needs_cache_dir(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--port", "0", "--cache-max-mb", "1"])
        assert "--cache-dir" in capsys.readouterr().err
