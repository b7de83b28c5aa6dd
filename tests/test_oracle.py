"""Tests for the permutation-ordering reference implementation."""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import pytest

from trifree.oracle import (
    engine_distribution,
    permutation_distribution,
    permutation_final_edges,
    total_variation,
)


def test_permutation_final_graph_is_maximal_triangle_free():
    rng = random.Random(3)
    for _ in range(50):
        n = 6
        edges = permutation_final_edges(n, rng)
        adj = [set() for _ in range(n)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        for u, v in combinations(range(n), 2):
            if v in adj[u]:
                assert not (adj[u] & adj[v])  # triangle-free
            else:
                assert adj[u] & adj[v]  # maximal: some common neighbour


def reference_permutation_final_edges(n, rng):
    """`permutation_final_edges` as it was written with `rng.shuffle` and
    adjacency sets (test-side reference)."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    adjacency = [set() for _ in range(n)]
    edges = []
    for u, v in pairs:
        if adjacency[u].isdisjoint(adjacency[v]):
            adjacency[u].add(v)
            adjacency[v].add(u)
            edges.append((u, v))
    return frozenset(edges)


@pytest.mark.parametrize("n", range(2, 8))
def test_permutation_pass_matches_shuffle_reference(n):
    for seed in (0, 1, 7, 2024):
        a = random.Random(seed)
        b = random.Random(seed)
        for trial in range(40):
            assert permutation_final_edges(n, b) == reference_permutation_final_edges(
                n, a
            ), (n, seed, trial)
        assert a.getstate() == b.getstate(), (n, seed)


def test_total_variation_bounds():
    a = Counter({"x": 10, "y": 10})
    assert total_variation(a, a) == 0.0
    b = Counter({"z": 5})
    assert total_variation(a, b) == 1.0


def test_distributions_have_requested_mass():
    eng = engine_distribution(4, trials=200, seed_base=1)
    orc = permutation_distribution(4, trials=300, seed=2)
    assert sum(eng.values()) == 200
    assert sum(orc.values()) == 300

