"""Tests for the set-covering utilities (Chvátal greedy and exact BB)."""

import importlib.util
import itertools
import random
import sys
from pathlib import Path

import pytest

from repro.utils.covering import greedy_weighted_cover, min_cardinality_cover

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH))  # bench_micro imports its sibling ``common``
SPEC = importlib.util.spec_from_file_location("bench_micro", BENCH / "bench_micro.py")
bench_micro = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_micro)


def brute_force_min_cover(universe, sets):
    best = None
    names = sorted(sets, key=repr)
    for k in range(len(names) + 1):
        for combo in itertools.combinations(names, k):
            covered = set()
            for name in combo:
                covered |= sets[name]
            if universe <= covered:
                return list(combo)
    return best


class TestGreedy:
    def test_simple(self):
        sets = {"a": {1, 2, 3}, "b": {3, 4}, "c": {4}}
        cost = {"a": 1.0, "b": 1.0, "c": 1.0}
        chosen = greedy_weighted_cover({1, 2, 3, 4}, sets, cost)
        assert set().union(*(sets[n] for n in chosen)) >= {1, 2, 3, 4}

    def test_cost_ratio_drives_choice(self):
        # 'big' covers everything but is expensive; two cheap sets win.
        sets = {"big": {1, 2}, "s1": {1}, "s2": {2}}
        cost = {"big": 10.0, "s1": 1.0, "s2": 1.0}
        chosen = greedy_weighted_cover({1, 2}, sets, cost)
        assert "big" not in chosen

    def test_uncoverable_raises(self):
        with pytest.raises(ValueError, match="uncoverable"):
            greedy_weighted_cover({1, 2}, {"a": {1}}, {"a": 1.0})

    def test_empty_universe(self):
        assert greedy_weighted_cover(set(), {"a": {1}}, {"a": 1.0}) == []

    def test_deterministic(self):
        sets = {"a": {1, 2}, "b": {1, 2}}
        cost = {"a": 1.0, "b": 1.0}
        runs = {tuple(greedy_weighted_cover({1, 2}, sets, cost)) for _ in range(5)}
        assert len(runs) == 1


class TestExactCover:
    def test_matches_brute_force_on_small_instances(self):
        cases = [
            ({1, 2, 3, 4}, {"a": {1, 2}, "b": {2, 3}, "c": {3, 4}, "d": {1, 4}}),
            ({1, 2, 3}, {"a": {1}, "b": {2}, "c": {3}, "abc": {1, 2, 3}}),
            (
                {1, 2, 3, 4, 5},
                {
                    "a": {1, 2, 3},
                    "b": {3, 4},
                    "c": {4, 5},
                    "d": {1, 5},
                    "e": {2, 4},
                },
            ),
        ]
        for universe, sets in cases:
            exact = min_cardinality_cover(universe, sets)
            brute = brute_force_min_cover(universe, sets)
            assert len(exact) == len(brute)
            covered = set().union(*(sets[n] for n in exact))
            assert universe <= covered

    def test_greedy_trap_instance(self):
        # Classic instance where greedy picks the big middle set (3 sets)
        # but the optimum is 2.
        universe = set(range(1, 7))
        sets = {
            "top": {1, 2, 3},
            "bottom": {4, 5, 6},
            "trap": {1, 2, 4, 5},
            "r1": {3},
            "r2": {6},
        }
        exact = min_cardinality_cover(universe, sets)
        assert len(exact) == 2

    def test_single_element(self):
        assert min_cardinality_cover({1}, {"a": {1}}) == ["a"]

    def test_empty_universe(self):
        assert min_cardinality_cover(set(), {"a": {1}}) == []

    def test_uncoverable_raises(self):
        with pytest.raises(ValueError, match="uncoverable"):
            min_cardinality_cover({1, 2}, {"a": {1}})

    def test_greedy_fallback_above_limit(self):
        universe = set(range(30))
        sets = {f"s{i}": {i} for i in range(30)}
        cover = min_cardinality_cover(universe, sets, exact_limit=5)
        assert len(cover) == 30

    def test_deterministic(self):
        universe = {1, 2, 3, 4}
        sets = {"a": {1, 2}, "b": {3, 4}, "c": {1, 3}, "d": {2, 4}}
        results = {tuple(min_cardinality_cover(universe, sets)) for _ in range(5)}
        assert len(results) == 1

    def test_same_cover_as_the_set_based_reference(self):
        """The bitset branch-and-bound makes the set formulation's exact
        choices (same sets, same order), ties included: names whose repr
        order differs from numeric order, and the greedy fallback."""
        rng = random.Random(1212)
        for trial in range(1000):
            elements = [f"o{i}" for i in range(rng.randint(1, 14))]
            sets = {
                f"r{j}": {e for e in elements if rng.random() < 0.25}
                for j in range(rng.randint(1, 14))
            }
            for e in elements:  # keep the universe coverable
                sets[rng.choice(sorted(sets))].add(e)
            limit = rng.choice((3, 24))
            universe = set(elements)
            assert min_cardinality_cover(
                universe, sets, exact_limit=limit
            ) == bench_micro.reference_min_cover(
                universe, sets, exact_limit=limit
            ), f"trial {trial}"
