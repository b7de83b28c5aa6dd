"""Tests for the permutation-ordering reference implementation."""

from __future__ import annotations

import hashlib
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
from trifree.process import ProcessState


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


@pytest.mark.parametrize("n", range(2, 10))  # draw widths up to 6 bits
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
    eng = engine_distribution(4, trials=200, seed=1)
    orc = permutation_distribution(4, trials=300, seed=2)
    assert sum(eng.values()) == 200
    assert sum(orc.values()) == 300


def test_engine_distribution_draws_from_one_seeded_state(monkeypatch):
    inits = []
    init = ProcessState.__init__

    def counting(self, *args, **kwargs):
        inits.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ProcessState, "__init__", counting)
    first = engine_distribution(5, trials=300, seed=9)
    assert inits == [(5, 9)]  # one state per call, restarted per trial
    assert engine_distribution(5, trials=300, seed=9) == first
    assert len(inits) == 2


def test_distribution_streams_are_pinned():
    # Both streams, each final graph and the Counters' insertion order:
    # a refactor of either side's trials must leave these digests alone.
    digests = {
        (side.__name__, n): hashlib.sha256(
            repr(
                [(tuple(sorted(edges)), count) for edges, count in side(n, 2000, 9).items()]
            ).encode()
        ).hexdigest()
        for side in (engine_distribution, permutation_distribution)
        for n in (4, 5)
    }
    assert digests == {
        ("engine_distribution", 4): "e944c2a5f9c3afb8f675a83088e00f898eea484ef025df065fca9a7d7eb1efc2",
        ("engine_distribution", 5): "9a18c18450b7ede74ee4aefdfba6d5b69a11da795b9e7ebba3b12094d28ab15c",
        ("permutation_distribution", 4): "0c65e7b025ba7f194fd2ca856f2cc00877b4c20b6f0ab751b285fdda8bca609c",
        ("permutation_distribution", 5): "2721350d1c7577518b48d6700b683b601582f4f611323feecdc1d49bdb0b5c26",
    }
