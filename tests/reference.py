"""Test-side references and fixtures over the package's state.

None of these is part of the package: the engine never looks a pair up
by its endpoints, never decodes a rank in closed form, never inserts a
chosen pair, and never searches a whole graph for a copy.  The tests do
all four, to build fixtures and to check the incremental code against a
plain reference.  Import as `from reference import ...`.
"""

from __future__ import annotations

import math

from trifree.patterns import Pattern, _build_order, _search, make_pattern
from trifree.process import PairStatus, ProcessState, StepResult, _rowbase


def _pair(state: ProcessState, u: int, v: int) -> tuple[int, int]:
    """(u, v) in increasing order; rejects equal or out-of-range vertices."""
    if u == v:
        raise ValueError(f"pair requires distinct vertices, got ({u}, {v})")
    for w in (u, v):
        if not 0 <= w < state.n:
            raise ValueError(f"vertex {w} out of range for n={state.n}")
    return min(u, v), max(u, v)


def pair_rank(state: ProcessState, u: int, v: int) -> int:
    """The position of the pair {u, v} in the engine's rank order."""
    u, v = _pair(state, u, v)
    return _rowbase(state.n)[u] + v


def unrank(state: ProcessState, rank: int) -> tuple[int, int]:
    """The pair (u, v), u < v, of a rank: the inverse of `pair_rank`."""
    # Read from the end, rows hold 1, 2, 3, ... pairs, so the pair
    # `back` places before the last lies in row k from the end (0-based)
    # for the largest k with k(k+1)/2 <= back; isqrt makes this exact.
    back = state.total_pairs - 1 - rank
    k = (math.isqrt(8 * back + 1) - 1) >> 1
    u = state.n - 2 - k
    return u, rank - _rowbase(state.n)[u]


def pair_status(state: ProcessState, u: int, v: int) -> PairStatus:
    return state._stored_status(*_pair(state, u, v))


def force_step(state: ProcessState, u: int, v: int) -> StepResult:
    """Insert a specific open pair, bypassing the random draw."""
    status = pair_status(state, u, v)
    if status != PairStatus.OPEN:
        raise ValueError(f"pair ({u}, {v}) is {status.name}, not OPEN")
    # the pair stays in the lazy index, where it is now stale
    return state._insert(min(u, v), max(u, v))


def find_copy(rows: list[int], pattern: Pattern) -> tuple[int, ...] | None:
    """An injective placement realising every pattern edge, or None.

    `rows` are the graph's edge rows.  The package's copy search, run
    unanchored over the whole graph.  A pattern larger than the graph has
    no copy: the first level's `need` is k, above the n candidates.
    """
    copy = _search(rows, _build_order(pattern, ()), {}, 0)
    return None if copy is None else tuple(copy[a] for a in range(pattern.k))


def single_edge_pattern() -> Pattern:
    return make_pattern(2, [(0, 1)], name="edge")


def path_pattern(edge_count: int) -> Pattern:
    return make_pattern(
        edge_count + 1,
        [(i, i + 1) for i in range(edge_count)],
        name=f"P{edge_count + 1}",
    )
