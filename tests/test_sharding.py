"""Tests for sweep sharding: partition, manifests, run, merge.

The acceptance criterion is round-trip fidelity: ``shard N`` + per-shard
execution + ``merge`` must reproduce the unsharded ``run_batch``
envelopes byte-for-byte (canonical JSON), for any N.
"""

import pytest

from repro.cli import main
from repro.engine import (
    AllocationRequest,
    Engine,
    ShardManifest,
    load_shard_manifest,
    merge_shard_results,
    partition_requests,
    run_shard,
    shard_of,
    write_shard_manifests,
)
from repro.experiments import build_case
from repro.io import (
    allocation_request_from_dict,
    allocation_request_to_dict,
    allocation_result_from_dict,
    load_json,
    problem_from_dict,
    problem_to_dict,
)


def sweep_requests(count=12, timeout=None):
    requests = []
    sizes = (4, 6, 8)
    per_size = count // len(sizes)
    for n in sizes:
        for sample in range(per_size):
            problem = build_case(n, sample, relaxation=0.2).problem
            requests.append(AllocationRequest(
                problem, "dpalloc", label=f"tgff-{n}-{sample}",
                timeout=timeout,
            ))
    return requests


class TestPartition:
    def test_deterministic_and_complete(self):
        requests = sweep_requests()
        first = partition_requests(requests, 4)
        second = partition_requests(requests, 4)
        assert first == second
        flat = sorted(i for bucket in first for i in bucket)
        assert flat == list(range(len(requests)))

    def test_same_problem_lands_on_same_shard(self):
        problem = build_case(6, 0, relaxation=0.2).problem
        requests = [
            AllocationRequest(problem, name)
            for name in ("dpalloc", "uniform", "clique-sort")
        ]
        buckets = partition_requests(requests, 5)
        non_empty = [b for b in buckets if b]
        assert len(non_empty) == 1 and len(non_empty[0]) == 3

    def test_single_shard_takes_everything(self):
        requests = sweep_requests()
        (bucket,) = partition_requests(requests, 1)
        assert bucket == list(range(len(requests)))

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            partition_requests(sweep_requests(3), 0)
        with pytest.raises(ValueError):
            shard_of("ab" * 32, 0)

    def test_shard_of_uses_fingerprint_content(self):
        a = build_case(6, 0, relaxation=0.2).problem.fingerprint()
        b = build_case(6, 1, relaxation=0.2).problem.fingerprint()
        # Not a guarantee for every pair, but these differ for 1000:
        assert shard_of(a, 1000) != shard_of(b, 1000) or a == b


class TestManifests:
    def test_write_load_round_trip(self, tmp_path):
        requests = sweep_requests(timeout=7.5)
        paths = write_shard_manifests(requests, 3, tmp_path)
        assert len(paths) == 3
        seen = {}
        for shard, path in enumerate(paths):
            manifest = load_shard_manifest(path)
            assert manifest.shard == shard
            assert manifest.num_shards == 3
            assert manifest.total == len(requests)
            for index, request in zip(manifest.indices, manifest.requests):
                seen[index] = request
        assert sorted(seen) == list(range(len(requests)))
        for index, request in seen.items():
            original = requests[index]
            assert request.allocator == original.allocator
            assert request.label == original.label
            assert request.timeout == original.timeout
            assert request.problem.fingerprint() == \
                   original.problem.fingerprint()

    def test_empty_shards_still_written(self, tmp_path):
        problem = build_case(6, 0, relaxation=0.2).problem
        requests = [AllocationRequest(problem, "dpalloc")]
        paths = write_shard_manifests(requests, 4, tmp_path)
        assert len(paths) == 4
        sizes = [len(load_shard_manifest(p).requests) for p in paths]
        assert sum(sizes) == 1 and sizes.count(0) == 3

    def test_manifest_rejects_wrong_kind(self):
        with pytest.raises(ValueError):
            ShardManifest.from_dict({"kind": "allocation-batch"})


class TestProblemSerialisation:
    def test_problem_round_trip_preserves_fingerprint(self):
        problem = build_case(8, 2, relaxation=0.1).problem
        clone = problem_from_dict(problem_to_dict(problem))
        assert clone.fingerprint() == problem.fingerprint()

    def test_request_round_trip(self):
        problem = build_case(6, 1, relaxation=0.2).problem
        request = AllocationRequest(
            problem, "ilp", options={"time_limit": 5.0},
            label="case", timeout=9.0,
        )
        clone = allocation_request_from_dict(
            allocation_request_to_dict(request)
        )
        assert clone.allocator == "ilp"
        assert dict(clone.options) == {"time_limit": 5.0}
        assert clone.label == "case" and clone.timeout == 9.0
        assert clone.problem.fingerprint() == problem.fingerprint()

    def test_table_models_are_rejected(self):
        import dataclasses

        from repro.resources.latency import TableLatencyModel

        problem = dataclasses.replace(
            build_case(6, 0, relaxation=0.2).problem,
            latency_model=TableLatencyModel({"add": lambda w: 2}),
        )
        with pytest.raises(ValueError, match="SONIC"):
            problem_to_dict(problem)


class TestMerge:
    def run_shards(self, requests, num_shards, tmp_path):
        paths = write_shard_manifests(requests, num_shards, tmp_path)
        return [run_shard(load_shard_manifest(p)) for p in paths]

    @pytest.mark.parametrize("num_shards", [1, 2, 5])
    def test_round_trip_matches_unsharded_batch(self, num_shards, tmp_path):
        requests = sweep_requests()
        payloads = self.run_shards(requests, num_shards, tmp_path)
        merged = merge_shard_results(payloads)
        direct = Engine().run_batch(requests)
        assert [r.canonical_json() for r in merged] == \
               [r.canonical_json() for r in direct]
        assert [r.label for r in merged] == [r.label for r in direct]

    def test_merge_order_is_input_order_independent(self, tmp_path):
        requests = sweep_requests()
        payloads = self.run_shards(requests, 3, tmp_path)
        forward = merge_shard_results(payloads)
        backward = merge_shard_results(list(reversed(payloads)))
        assert [r.canonical_json() for r in forward] == \
               [r.canonical_json() for r in backward]

    def test_missing_shard_fails_loudly(self, tmp_path):
        payloads = self.run_shards(sweep_requests(), 3, tmp_path)
        incomplete = [p for p in payloads if p["results"]][:-1]
        with pytest.raises(ValueError, match="incomplete merge"):
            merge_shard_results(incomplete)

    def test_duplicate_shard_rejected(self, tmp_path):
        payloads = self.run_shards(sweep_requests(), 2, tmp_path)
        with pytest.raises(ValueError, match="more than once"):
            merge_shard_results(payloads + [payloads[0]])

    def test_mismatched_sweeps_rejected(self, tmp_path):
        a = self.run_shards(sweep_requests(), 2, tmp_path / "a")
        b = self.run_shards(sweep_requests(6), 3, tmp_path / "b")
        with pytest.raises(ValueError, match="disagree"):
            merge_shard_results([a[0], b[0]])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no shard-results"):
            merge_shard_results([])

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError, match="shard-results"):
            merge_shard_results([{"kind": "shard-manifest"}])

    def test_malformed_payloads_raise_value_error_not_tracebacks(self):
        # A truncated/hand-edited file must surface as ValueError so the
        # CLI reports "merge failed: ..." instead of a raw traceback.
        malformed = [
            ["not", "a", "dict"],
            {"kind": "shard-results"},  # no header
            {"kind": "shard-results", "num_shards": "x", "total": 1},
            {"kind": "shard-results", "num_shards": 1, "total": 1},  # no shard
            {"kind": "shard-results", "num_shards": 1, "total": 1,
             "shard": 0, "results": {"index": 0}},  # results not a list
            {"kind": "shard-results", "num_shards": 1, "total": 1,
             "shard": 0, "results": [{"index": 0}]},  # entry w/o result
        ]
        for payload in malformed:
            with pytest.raises(ValueError):
                merge_shard_results([payload])

    def test_out_of_range_shards_and_indices_rejected(self):
        # Each payload covers index 0 of a one-request sweep, so without
        # range checks the stray index or shard would merge silently.
        from repro.engine import AllocationResult
        from repro.io import allocation_result_to_dict

        entry = allocation_result_to_dict(
            AllocationResult("dpalloc", None, 0.0, error="infeasible: x")
        )

        def payload(indices, shard=0, num_shards=1, total=1):
            return {
                "kind": "shard-results", "shard": shard,
                "num_shards": num_shards, "total": total,
                "results": [{"index": i, "result": entry} for i in indices],
            }

        for bad, match in (
            (payload([0, 7]), "outside"),
            (payload([0, -3]), "outside"),
            (payload([0], shard=5, num_shards=2), "outside"),
            (payload([0], shard=-1, num_shards=2), "outside"),
            (payload([], num_shards=0, total=0), "num_shards must be"),
            (payload([], total=-1), "num_shards must be"),
        ):
            with pytest.raises(ValueError, match=match):
                merge_shard_results([bad])
        assert len(merge_shard_results([payload([0])])) == 1

    def test_cli_merge_reports_malformed_file(self, tmp_path, capsys):
        from repro.io import save_json

        bad = tmp_path / "bad.json"
        save_json({"kind": "shard-results"}, bad)
        assert main(["merge", str(bad)]) == 2
        assert "merge failed" in capsys.readouterr().err


class TestShardCli:
    def test_full_workflow_matches_direct_batch(self, tmp_path, capsys):
        shards_dir = tmp_path / "shards"
        common = ["--methods", "dpalloc,uniform", "--relax", "0.5"]
        assert main([
            "shard", "fir", "biquad", *common,
            "--shards", "2", "--out-dir", str(shards_dir),
        ]) == 0
        outs = []
        for index in range(2):
            out = tmp_path / f"out-{index}.json"
            assert main([
                "batch", "--from-shard",
                str(shards_dir / f"shard-{index:02d}.json"),
                "--json", str(out),
            ]) == 0
            outs.append(out)
        merged_path = tmp_path / "merged.json"
        assert main([
            "merge", *[str(p) for p in outs], "--json", str(merged_path),
        ]) == 0
        direct_path = tmp_path / "direct.json"
        assert main([
            "batch", "fir", "biquad", *common, "--json", str(direct_path),
        ]) == 0
        capsys.readouterr()

        merged = [
            allocation_result_from_dict(entry)
            for entry in load_json(merged_path)["results"]
        ]
        direct = [
            allocation_result_from_dict(entry)
            for entry in load_json(direct_path)["results"]
        ]
        assert [r.canonical_json() for r in merged] == \
               [r.canonical_json() for r in direct]

    def test_batch_rejects_workloads_plus_from_shard_conflict(
        self, tmp_path, capsys
    ):
        assert main(["batch"]) == 2
        assert "from-shard" in capsys.readouterr().err
        assert main([
            "shard", "fir", "--methods", "dpalloc",
            "--shards", "1", "--out-dir", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        assert main([
            "batch", "fir",
            "--from-shard", str(tmp_path / "shard-00.json"),
        ]) == 2
        assert "one or the other" in capsys.readouterr().err

    def test_from_shard_rejects_request_shaping_flags(self, tmp_path, capsys):
        assert main([
            "shard", "fir", "--methods", "dpalloc",
            "--shards", "1", "--out-dir", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        manifest = str(tmp_path / "shard-00.json")
        # A per-run budget lives in the manifest; accepting --timeout
        # here and silently dropping it would fake a hard deadline.
        assert main(["batch", "--from-shard", manifest,
                     "--timeout", "5"]) == 2
        assert "--timeout" in capsys.readouterr().err
        assert main(["batch", "--from-shard", manifest,
                     "--methods", "uniform"]) == 2
        assert "--methods" in capsys.readouterr().err
        # Execution flags still apply.
        assert main(["batch", "--from-shard", manifest,
                     "--workers", "2", "--executor", "process"]) == 0

    def test_merge_reports_incomplete_input(self, tmp_path, capsys):
        shards_dir = tmp_path / "shards"
        assert main([
            "shard", "fir", "--methods", "dpalloc",
            "--shards", "2", "--out-dir", str(shards_dir),
        ]) == 0
        out = tmp_path / "out-partial.json"
        # Run only the shard that actually holds the request.
        ran = None
        for index in range(2):
            manifest = load_shard_manifest(
                shards_dir / f"shard-{index:02d}.json"
            )
            if manifest.requests:
                ran = tmp_path / "partial.json"
                assert main([
                    "batch", "--from-shard",
                    str(shards_dir / f"shard-{index:02d}.json"),
                    "--json", str(ran),
                ]) == 0
            else:
                empty_index = index
        capsys.readouterr()
        assert ran is not None
        # Merging without the empty shard's file still succeeds (it
        # contributes nothing), but dropping the *populated* one fails.
        empty_out = tmp_path / "empty.json"
        assert main([
            "batch", "--from-shard",
            str(shards_dir / f"shard-{empty_index:02d}.json"),
            "--json", str(empty_out),
        ]) == 0
        capsys.readouterr()
        assert main(["merge", str(empty_out)]) == 2
        assert "incomplete" in capsys.readouterr().err
