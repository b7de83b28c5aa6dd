"""Independent reference implementation via random pair orderings.

Drawing a uniformly random permutation of all vertex pairs and inserting
each pair in order whenever it keeps the graph triangle-free produces
the same distribution over runs as sampling a uniform open pair at every
step.  This module implements that permutation scheme from scratch (no
status store, no open-pair sampler) so the two code paths can be
compared distributionally: at small n the total variation distance
between their final-edge-set distributions must vanish with the trial
count.

A pass keeps its graph as int bit rows, one per vertex, and admits a
pair iff the rows of its endpoints share no bit.  Its shuffle writes out
`random.shuffle`: the same draws and the same final RNG state, which
`test_permutation_pass_matches_shuffle_reference` pins on the running
Python.
"""

from __future__ import annotations

import functools
import random
from collections import Counter

from .process import ProcessState, Saturation

EdgeSet = frozenset[tuple[int, int]]
TRIALS = 100_000  # final graphs drawn per side by `equivalence_tv`
# the largest TV accepted; it means something only at TRIALS per side
# (at 10^3 trials, sampling noise alone exceeds it)
TV_TOLERANCE = 0.02


@functools.cache  # one tuple of all pairs per n; the oracle runs at tiny n
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


def permutation_final_edges(n: int, rng: random.Random) -> EdgeSet:
    """Final graph of one permutation-ordered insertion pass."""
    pairs = list(_pairs(n))
    # rng.shuffle(pairs), written out: Fisher-Yates over CPython's
    # _randbelow_with_getrandbits, a uniform draw below i + 1 by redraws
    getrandbits = rng.getrandbits
    for i in range(len(pairs) - 1, 0, -1):
        m = i + 1
        k = m.bit_length()
        j = getrandbits(k)
        while j >= m:
            j = getrandbits(k)
        pairs[i], pairs[j] = pairs[j], pairs[i]
    adjacency = [0] * n
    edges: list[tuple[int, int]] = []
    for u, v in pairs:
        if not adjacency[u] & adjacency[v]:
            adjacency[u] |= 1 << v
            adjacency[v] |= 1 << u
            edges.append((u, v))
    return frozenset(edges)


def engine_final_edges(n: int, seed: int) -> EdgeSet:
    """Final graph of one engine run to saturation."""
    state = ProcessState(n, seed)
    state.run(Saturation())
    return frozenset(state.iter_edges())


def permutation_distribution(n: int, trials: int, seed: int) -> Counter[EdgeSet]:
    rng = random.Random(seed)
    counts: Counter[EdgeSet] = Counter()
    for _ in range(trials):
        counts[permutation_final_edges(n, rng)] += 1
    return counts


def engine_distribution(n: int, trials: int, seed_base: int) -> Counter[EdgeSet]:
    counts: Counter[EdgeSet] = Counter()
    for trial in range(trials):
        counts[engine_final_edges(n, seed_base + trial)] += 1
    return counts


def total_variation(a: Counter, b: Counter) -> float:
    """TV distance between two empirical distributions."""
    na = sum(a.values())
    nb = sum(b.values())
    if na == 0 or nb == 0:
        raise ValueError("both samples must be nonempty")
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a[k] / na - b[k] / nb) for k in keys)


def equivalence_tv(n: int) -> float:
    """TV distance between TRIALS engine and TRIALS permutation final
    graphs, each side drawn from its own fixed seed.

    Only n <= 5 is accepted: past that, the final graphs are too many
    for TRIALS samples to estimate their distribution.
    """
    if n > 5:
        raise ValueError("the permutation-ordering comparison is exhaustive-scale; n must be <= 5")
    return total_variation(
        engine_distribution(n, TRIALS, 7_000_000),
        permutation_distribution(n, TRIALS, 42),
    )
