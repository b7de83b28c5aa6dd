"""Tests for pattern loading, copy search, anchors, density auditors, and blocking."""

from __future__ import annotations

import itertools
import random

import pytest

from trifree.process import PairStatus, ProcessState, Saturation, Steps, sample_pools
from trifree.patterns import (
    BlockReport,
    FirstAppearanceTracker,
    PatternError,
    PlacementClass,
    anchor_orientations,
    blocked_placements,
    classify_placement,
    complete_bipartite_pattern,
    cycle_pattern,
    load_pattern_file,
    make_pattern,
    max_edges_k_subset,
    parse_pattern,
    pattern_text,
)

from reference import find_copy, force_step, pair_status, path_pattern, single_edge_pattern

C4_TEXT = """\
# a four-cycle
4 4
0 1
1 2
2 3
0 3
"""


def rows_from_edges(n, edges):
    """Edge rows of the graph on n vertices: bit v of row u set iff {u, v}
    is an edge, as in `ProcessState.edge_masks`."""
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def brute_force_copy_count(rows, pattern):
    """Oracle: try every injective assignment of pattern vertices."""
    n = len(rows)
    count = 0
    for image in itertools.permutations(range(n), pattern.k):
        if all(rows[image[a]] >> image[b] & 1 for a, b in pattern.edges):
            count += 1
    return count


def brute_force_edge_orbits(pattern):
    """Oracle: the orbits of the ordered pattern edges under the automorphisms
    found by trying every vertex permutation."""
    edges = set(pattern.edges)
    automorphisms = [
        perm
        for perm in itertools.permutations(range(pattern.k))
        if {tuple(sorted((perm[a], perm[b]))) for a, b in edges} == edges
    ]
    ordered = list(edges) + [(b, a) for a, b in edges]
    return {frozenset((perm[a], perm[b]) for perm in automorphisms) for a, b in ordered}


def random_triangle_free_pattern(k, rng):
    """Each pair, in random order, becomes an edge with probability 1/2
    unless it would close a triangle."""
    rows = [0] * k
    edges = []
    pairs = list(itertools.combinations(range(k), 2))
    rng.shuffle(pairs)
    for a, b in pairs:
        if rng.random() < 0.5 and not rows[a] & rows[b]:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
            edges.append((a, b))
    return make_pattern(k, edges or [(0, 1)])


def brute_force_max_k_subset(rows, k):
    """Oracle: enumerate all k-subsets directly."""
    best = -1
    for subset in itertools.combinations(range(len(rows)), k):
        edges = sum(
            1 for a, b in itertools.combinations(subset, 2) if rows[a] >> b & 1
        )
        best = max(best, edges)
    return best


# ----------------------------------------------------------------------
# loading and validation

def test_parse_c4():
    pattern = parse_pattern(C4_TEXT, name="C4")
    assert pattern.k == 4
    assert pattern.e == 4
    assert pattern.e <= pattern.k * pattern.k // 4
    assert pattern.edges == ((0, 1), (0, 3), (1, 2), (2, 3))


def test_parse_rejects_triangle_with_witness():
    text = "3 3\n0 1\n1 2\n0 2\n"
    with pytest.raises(PatternError, match=r"\(0, 1, 2\)"):
        parse_pattern(text)


def test_k66_is_not_dense_flagged():
    pattern = complete_bipartite_pattern(6, 6)
    assert pattern.k == 12 and pattern.e == 36
    # Mantel: a triangle-free graph on k vertices has at most k^2/4 edges
    assert pattern.e <= pattern.k * pattern.k // 4


def test_parse_error_line_numbers():
    with pytest.raises(PatternError, match="line 3"):
        parse_pattern("4 2\n0 1\nnot numbers\n")
    with pytest.raises(PatternError, match="line 4"):
        parse_pattern("4 2\n# comment\n0 1\n2 1\n")  # u < v violated
    with pytest.raises(PatternError, match="line 3: edge \\(0, 5\\) out of range for k=3"):
        parse_pattern("3 2\n0 1\n0 5\n")
    with pytest.raises(PatternError, match="line 3: duplicate edge \\(0, 1\\)"):
        parse_pattern("3 2\n0 1\n0 1\n")
    with pytest.raises(PatternError, match="declares 3"):
        parse_pattern("4 3\n0 1\n1 2\n")
    with pytest.raises(PatternError, match="empty"):
        parse_pattern("# nothing\n")


def test_make_pattern_validation():
    with pytest.raises(PatternError, match="self-loop"):
        make_pattern(3, [(1, 1)])
    with pytest.raises(PatternError, match="duplicate"):
        make_pattern(3, [(0, 1), (1, 0)])
    with pytest.raises(PatternError, match="out of range"):
        make_pattern(3, [(0, 3)])
    with pytest.raises(PatternError, match="k >= 2"):
        make_pattern(1, [(0, 0)])
    with pytest.raises(PatternError, match="at least one edge"):
        make_pattern(3, [])


def test_pattern_vertex_cap():
    edges = [(i, i + 1) for i in range(12)]
    with pytest.raises(PatternError, match="caps at 12"):
        make_pattern(13, edges)
    assert make_pattern(12, edges[:11]).k == 12


def test_load_pattern_file_roundtrip(tmp_path):
    path = tmp_path / "c4.pattern"
    path.write_text(C4_TEXT)
    pattern = load_pattern_file(str(path))
    assert pattern.name == "c4"
    assert parse_pattern(pattern_text(pattern)).edges == pattern.edges


def test_cycle_pattern_rejects_triangle():
    with pytest.raises(PatternError):
        cycle_pattern(3)


# ----------------------------------------------------------------------
# copy search

def test_find_copy_single_edge():
    rows = rows_from_edges(5, [(2, 4)])
    mapping = find_copy(rows, single_edge_pattern())
    assert mapping is not None
    assert set(mapping) == {2, 4}


def test_find_copy_c4_in_k22():
    rows = rows_from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    mapping = find_copy(rows, cycle_pattern(4))
    assert mapping is not None
    pattern = cycle_pattern(4)
    assert all(rows[mapping[a]] >> mapping[b] & 1 for a, b in pattern.edges)


def test_count_copies_c4_in_k22_is_eight():
    # K_{2,2} holds 8 labelled copies of C4, and the search returns one of them
    rows = rows_from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    pattern = cycle_pattern(4)
    assert brute_force_copy_count(rows, pattern) == 8
    copies = {
        perm
        for perm in itertools.permutations(range(4))
        if all(rows[perm[a]] >> perm[b] & 1 for a, b in pattern.edges)
    }
    assert len(copies) == 8
    assert tuple(find_copy(rows, pattern)) in copies


def test_find_copy_pattern_larger_than_graph():
    rows = rows_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert find_copy(rows, cycle_pattern(5)) is None


def test_find_copy_non_induced():
    # C4 sits inside K4 even though the K4 has chords
    rows = rows_from_edges(4, list(itertools.combinations(range(4), 2)))
    assert find_copy(rows, cycle_pattern(4)) is not None


def test_find_copy_empty_graph():
    rows = rows_from_edges(6, [])
    assert find_copy(rows, cycle_pattern(4)) is None


def test_count_matches_brute_force_on_random_graphs():
    # G(n, 0.4) graphs, then triangle-free process graphs at saturation and
    # halfway there; K2,3, K3,3, C6 and K1,4 have levels whose candidate
    # set must hold the images of several unplaced vertices (need > 1)
    rng = random.Random(7)
    graphs = []
    for _ in range(20):
        n = rng.randint(4, 7)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        graphs.append(rows_from_edges(n, edges))
    for n, seed in itertools.product((8, 9), range(6)):
        state = ProcessState(n, seed=seed)
        state.run(Saturation())
        log = list(state.iter_edges())
        graphs += [rows_from_edges(n, log), rows_from_edges(n, log[: len(log) // 2])]
    patterns = [
        cycle_pattern(4),
        path_pattern(3),
        complete_bipartite_pattern(2, 2),
        complete_bipartite_pattern(2, 3),
        complete_bipartite_pattern(3, 3),
        cycle_pattern(6),
        complete_bipartite_pattern(1, 4),
    ]
    outcomes = {pattern.label: set() for pattern in patterns}
    for rows in graphs:
        for pattern in patterns:
            expected = brute_force_copy_count(rows, pattern)
            mapping = find_copy(rows, pattern)
            assert (mapping is None) == (expected == 0)
            if mapping is not None:
                assert len(set(mapping)) == pattern.k
                assert all(rows[mapping[a]] >> mapping[b] & 1 for a, b in pattern.edges)
            outcomes[pattern.label].add(expected > 0)
    assert all(seen == {False, True} for seen in outcomes.values()), outcomes


# ----------------------------------------------------------------------
# anchors and incremental appearance

def test_anchor_orientation_counts():
    # the first ordered edge of each orbit, in edge order
    pinned = [
        (cycle_pattern(4), [(0, 1)]),
        (cycle_pattern(6), [(0, 1)]),
        (cycle_pattern(8), [(0, 1)]),
        (complete_bipartite_pattern(6, 6), [(0, 6)]),
        (complete_bipartite_pattern(3, 3), [(0, 3)]),
        # sides of unequal size are not swapped: two orbits per edge
        (complete_bipartite_pattern(2, 4), [(0, 2), (2, 0)]),
        (complete_bipartite_pattern(1, 4), [(0, 1), (1, 0)]),
        (complete_bipartite_pattern(2, 3), [(0, 2), (2, 0)]),
        # P4 has automorphism group {id, reversal}: 6 ordered pairs, 3 orbits
        (path_pattern(3), [(0, 1), (1, 0), (1, 2)]),
        (path_pattern(4), [(0, 1), (1, 0), (1, 2), (2, 1)]),
        (
            make_pattern(6, [(0, 1), (0, 3), (1, 2), (2, 5), (3, 4), (4, 5), (1, 4)]),
            [(0, 1), (1, 0), (0, 3), (1, 4)],
        ),
    ]
    for pattern, anchors in pinned:
        assert list(anchor_orientations(pattern)) == anchors, pattern.label
    # one anchor per orbit of ordered edges, checked against every vertex
    # permutation
    rng = random.Random(8)
    patterns = [
        cycle_pattern(4),
        cycle_pattern(5),
        cycle_pattern(6),
        path_pattern(3),
        path_pattern(4),
        complete_bipartite_pattern(2, 3),
        complete_bipartite_pattern(1, 4),
        complete_bipartite_pattern(3, 3),
        complete_bipartite_pattern(2, 4),
        cycle_pattern(8),
    ] + [random_triangle_free_pattern(rng.randint(2, 7), rng) for _ in range(30)]
    for pattern in patterns:
        orbits = brute_force_edge_orbits(pattern)
        orbit_of = {pair: orbit for orbit in orbits for pair in orbit}
        anchors = anchor_orientations(pattern)
        assert len(anchors) == len(orbits), pattern.edges
        assert len({orbit_of[pair] for pair in anchors}) == len(anchors), pattern.edges


# first step and witness of each tracker over runs to saturation
PINNED_FIRST_COPIES = {
    (200, 1): {
        "K3,3": (1000, (45, 155, 142, 153, 68, 19)),
        "K3,4": (1325, (63, 123, 83, 112, 139, 35, 24)),
        "K4,4": (1915, (28, 78, 75, 39, 40, 150, 65, 43)),
        "C6": (156, (29, 174, 86, 33, 44, 189)),
    },
    (250, 2): {
        "K3,3": (1437, (43, 185, 59, 229, 168, 4)),
        "K3,4": (1713, (237, 208, 109, 156, 249, 92, 87)),
        "K4,4": (3008, (80, 172, 123, 69, 212, 155, 82, 54)),
        "C6": (165, (7, 211, 89, 115, 24, 139)),
    },
    (300, 3): {
        "K3,3": (1595, (174, 156, 29, 276, 185, 79)),
        "K3,4": (2449, (49, 230, 121, 113, 290, 279, 41)),
        "K4,4": (3522, (89, 178, 131, 2, 184, 288, 141, 115)),
        "C6": (229, (27, 230, 43, 30, 108, 99)),
    },
}


@pytest.mark.parametrize("n, seed", sorted(PINNED_FIRST_COPIES))
def test_tracker_first_copies_are_pinned(n, seed):
    patterns = [
        complete_bipartite_pattern(3, 3),
        complete_bipartite_pattern(3, 4),
        complete_bipartite_pattern(4, 4),
        cycle_pattern(6),
    ]
    state = ProcessState(n, seed=seed)
    trackers = [FirstAppearanceTracker(p) for p in patterns]
    while (result := state.step()) is not None:
        for tracker in trackers:
            tracker.offer(state.edge_masks, *result.chosen, state.steps)
    found = {t.pattern.label: (t.first_step, t.witness) for t in trackers}
    assert found == PINNED_FIRST_COPIES[n, seed]


def test_tracker_single_edge_fires_at_step_one():
    state = ProcessState(10, seed=3)
    tracker = FirstAppearanceTracker(single_edge_pattern())
    result = state.step()
    tracker.offer(state.edge_masks, *result.chosen, state.steps)
    assert tracker.first_step == 1


def test_tracker_p3_on_three_vertices_fires_at_step_two():
    state = ProcessState(3, seed=11)
    tracker = FirstAppearanceTracker(path_pattern(2))
    while (result := state.step()) is not None:
        tracker.offer(state.edge_masks, *result.chosen, state.steps)
    assert tracker.first_step == 2


def test_tracker_matches_from_scratch_search():
    """Incremental anchored detection equals a full search at every step."""
    patterns = [
        cycle_pattern(4),
        cycle_pattern(5),
        path_pattern(3),
        complete_bipartite_pattern(2, 3),
    ]
    # n = 120 puts the rows past one machine word
    for n, seed in [(14, s) for s in range(6)] + [(120, 0)]:
        state = ProcessState(n, seed=seed)
        trackers = [FirstAppearanceTracker(p) for p in patterns]
        expected: dict[str, int | None] = {p.label: None for p in patterns}
        rows = [0] * n  # the graph rebuilt from the chosen pairs alone
        while (result := state.step()) is not None:
            u, v = result.chosen
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            for tracker in trackers:
                tracker.offer(state.edge_masks, u, v, state.steps)
            for pattern in patterns:
                if expected[pattern.label] is None and find_copy(rows, pattern):
                    expected[pattern.label] = state.steps
        for tracker in trackers:
            assert tracker.first_step == expected[tracker.pattern.label]


def test_tracker_witness_is_a_copy():
    state = ProcessState(16, seed=4)
    pattern = cycle_pattern(4)
    tracker = FirstAppearanceTracker(pattern)
    while (result := state.step()) is not None:
        if tracker.offer(state.edge_masks, *result.chosen, state.steps):
            break
    assert tracker.first_step is not None
    mapping = tracker.witness
    assert len(set(mapping)) == pattern.k
    rows = rows_from_edges(state.n, state.iter_edges())
    assert all(rows[mapping[a]] >> mapping[b] & 1 for a, b in pattern.edges)


# ----------------------------------------------------------------------
# k-subset density

def test_max_edges_empty_graph():
    rows = rows_from_edges(6, [])
    assert max_edges_k_subset(rows, 3, random.Random(0)).edges == 0


def test_max_edges_k23_and_star():
    # K_{2,3}: best 4 of 5 vertices span 4 edges
    k23 = rows_from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    result = max_edges_k_subset(k23, 4, random.Random(0))
    assert result.edges == 4 == brute_force_max_k_subset(k23, 4)
    # star K_{1,4}: any 3 vertices span at most 2 edges
    star = rows_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    result = max_edges_k_subset(star, 3, random.Random(0))
    assert result.edges == 2 == brute_force_max_k_subset(star, 3)


def test_max_edges_certificate_is_consistent():
    rng = random.Random(3)
    for _ in range(10):
        edges = [e for e in itertools.combinations(range(9), 2) if rng.random() < 0.3]
        rows = rows_from_edges(9, edges)
        result = max_edges_k_subset(rows, 4, random.Random(5))
        spanned = sum(
            1
            for a, b in itertools.combinations(result.vertices, 2)
            if rows[a] >> b & 1
        )
        assert spanned == result.edges
        assert len(result.vertices) == 4


def test_local_search_never_beats_exact():
    rng = random.Random(9)
    for trial in range(10):
        edges = [e for e in itertools.combinations(range(12), 2) if rng.random() < 0.35]
        rows = rows_from_edges(12, edges)
        local = max_edges_k_subset(rows, 5, random.Random(trial), restarts=30)
        assert local.edges <= brute_force_max_k_subset(rows, 5)


def test_max_edges_argument_errors():
    rows = rows_from_edges(5, [(0, 1)])
    with pytest.raises(ValueError):
        max_edges_k_subset(rows, 1, random.Random(0))
    with pytest.raises(ValueError):
        max_edges_k_subset(rows, 6, random.Random(0))
    with pytest.raises(ValueError, match="restart"):
        max_edges_k_subset(rows, 2, random.Random(0), restarts=0)


# ----------------------------------------------------------------------
# blocking

def test_blocked_placements_fresh_state_is_zero():
    state = ProcessState(10, seed=1)
    report = blocked_placements(state, cycle_pattern(4), 500, random.Random(0))
    assert report.blocked == 0
    assert report.fraction_blocked == 0.0


def test_blocked_placements_matches_closed_density_for_single_edge():
    state = ProcessState(20, seed=6)
    state.run(Saturation())
    closed = sum(
        1
        for u, v in itertools.combinations(range(20), 2)
        if pair_status(state, u, v).name == "CLOSED"
    )
    exact = closed / state.total_pairs
    report = blocked_placements(
        state, single_edge_pattern(), 20_000, random.Random(2)
    )
    assert abs(report.fraction_blocked - exact) < 0.02
    # saturated: no pair is open, so no placement is open-compatible
    assert report.realized + report.blocked == report.sampled == 20_000


def test_blocked_placements_requires_small_pattern():
    state = ProcessState(5, seed=1)
    with pytest.raises(ValueError):
        blocked_placements(state, complete_bipartite_pattern(6, 6), 10, random.Random(0))


def test_bicliques_cover_the_pattern_edges():
    patterns = [
        single_edge_pattern(),
        path_pattern(5),
        cycle_pattern(4),
        cycle_pattern(7),
        complete_bipartite_pattern(6, 6),
        make_pattern(6, [(0, 1), (0, 3), (1, 2), (2, 5), (3, 4), (4, 5), (1, 4)]),
    ]
    for pattern in patterns:
        covered = [
            (min(a, b), max(a, b))
            for centres, heads in pattern.bicliques
            for a in centres
            for b in heads
        ]
        assert sorted(covered) == list(pattern.edges), pattern.label
    assert len(cycle_pattern(4).bicliques) == 1
    assert len(complete_bipartite_pattern(6, 6).bicliques) == 1


def test_classify_placement_cases():
    state = ProcessState(6, seed=1)
    force_step(state, 0, 1)
    force_step(state, 1, 2)  # path 0-1-2; {0,2} closed
    p3 = path_pattern(2)  # edges (0,1),(1,2)
    assert classify_placement(state, p3, (0, 1, 2)) == PlacementClass.REALIZED
    # map the path onto 0-2 via 1: edge (0,1)->{0,2} closed
    assert classify_placement(state, p3, (0, 2, 1)) == PlacementClass.BLOCKED
    assert classify_placement(state, p3, (3, 4, 5)) == PlacementClass.OPEN_COMPATIBLE


def test_classify_placement_rejects_bad_mapping():
    state = ProcessState(6, seed=1)
    p3 = path_pattern(2)
    for mapping in [(0, 1, 0), (2, 2, 3), (0, 1, 6), (-1, 1, 2)]:
        with pytest.raises(ValueError):
            classify_placement(state, p3, mapping)


def reference_placement_class(state, pattern, mapping):
    """Verdict from one pair_status call per pattern edge (test-side oracle)."""
    statuses = [pair_status(state, mapping[a], mapping[b]) for a, b in pattern.edges]
    if PairStatus.CLOSED in statuses:
        return PlacementClass.BLOCKED
    if all(s == PairStatus.EDGE for s in statuses):
        return PlacementClass.REALIZED
    return PlacementClass.OPEN_COMPATIBLE


def test_classify_placement_matches_pair_status_reference():
    n = 100  # rows past one machine word
    state = ProcessState(n, seed=5)
    state.run(Steps(300))
    rng = random.Random(12)
    seen = set()
    for pattern in [
        cycle_pattern(4),
        cycle_pattern(6),
        complete_bipartite_pattern(6, 6),
        path_pattern(2),
    ]:
        for _ in range(2000):
            mapping = tuple(rng.sample(range(n), pattern.k))
            verdict = classify_placement(state, pattern, mapping)
            assert verdict == reference_placement_class(state, pattern, mapping)
            seen.add(verdict)
    assert seen == set(PlacementClass)


def test_blocked_placements_stay_blocked():
    state = ProcessState(15, seed=9)
    state.run(Steps(12))
    pattern = path_pattern(2)
    rng = random.Random(4)
    placements = [tuple(rng.sample(range(state.n), pattern.k)) for _ in range(2000)]
    blocked = [
        p for p in placements
        if classify_placement(state, pattern, p) == PlacementClass.BLOCKED
    ]
    assert 0 < len(blocked) < len(placements)
    state.run(Saturation())
    # closed pairs never become edges, so a blocked placement stays blocked
    # and never becomes realized later in the run
    for placement in blocked:
        assert classify_placement(state, pattern, placement) == PlacementClass.BLOCKED


def reference_blocked_placements(state, pattern, sample_count, rng):
    """`blocked_placements` with `rng.sample` placements, classified by
    `pair_status` (test-side reference)."""
    blocked = realized = 0
    for _ in range(sample_count):
        placement = tuple(rng.sample(range(state.n), pattern.k))
        verdict = reference_placement_class(state, pattern, placement)
        if verdict == PlacementClass.BLOCKED:
            blocked += 1
        elif verdict == PlacementClass.REALIZED:
            realized += 1
    return BlockReport(sample_count, blocked, realized)


@pytest.mark.parametrize(
    "n, pattern, steps",
    [
        # Random.sample's pool branch (n <= 21 for k <= 5, n <= 85 for
        # 6 <= k <= 21), then its set branch
        (20, complete_bipartite_pattern(6, 6), 8),
        (600, cycle_pattern(4), 4000),
        (15, cycle_pattern(4), 8),
        (600, cycle_pattern(6), 4000),
        (600, complete_bipartite_pattern(6, 6), 1000),
    ],
)
def test_blocked_placements_matches_sample_reference(n, pattern, steps):
    state = ProcessState(n, seed=3)
    state.run(Steps(steps))
    a, b = random.Random(8), random.Random(8)
    report = blocked_placements(state, pattern, 3000, a)
    assert report == reference_blocked_placements(state, pattern, 3000, b)
    assert a.getstate() == b.getstate()
    assert 0 < report.blocked < report.sampled


def test_blocked_placements_matches_sample_reference_when_realized():
    # saturated, so paths P3 are realized as well as blocked
    state = ProcessState(30, seed=3)
    state.run(Saturation())
    pattern = path_pattern(2)
    a, b = random.Random(8), random.Random(8)
    report = blocked_placements(state, pattern, 3000, a)
    assert report == reference_blocked_placements(state, pattern, 3000, b)
    assert a.getstate() == b.getstate()
    assert report.realized > 0
    assert 0 < report.blocked < report.sampled


@pytest.mark.parametrize(
    "n, pattern, steps",
    [
        # the last n of Random.sample's pool branch, then the first of its
        # set branch: 21 / 22 for k <= 5, 85 / 86 for 6 <= k <= 21
        (21, cycle_pattern(4), 20),
        (22, cycle_pattern(4), 20),
        (85, cycle_pattern(6), 150),
        (86, cycle_pattern(6), 150),
        (85, complete_bipartite_pattern(6, 6), 40),
        (86, complete_bipartite_pattern(6, 6), 40),
    ],
)
def test_blocked_placements_matches_sample_reference_at_the_pool_boundary(
    n, pattern, steps
):
    assert sample_pools(n, pattern.k) == (n in (21, 85))
    state = ProcessState(n, seed=3)
    state.run(Steps(steps))
    a, b = random.Random(8), random.Random(8)
    report = blocked_placements(state, pattern, 3000, a)
    assert report == reference_blocked_placements(state, pattern, 3000, b)
    assert a.getstate() == b.getstate()
    assert 0 < report.blocked < report.sampled


def test_blocked_placements_matches_sample_reference_with_two_bicliques():
    # saturated, so paths P4, whose two bicliques must both be realized,
    # are realized 71 times in 3000; n = 30 takes the set branch
    state = ProcessState(30, seed=3)
    state.run(Saturation())
    pattern = path_pattern(3)
    assert len(pattern.bicliques) == 2
    assert not sample_pools(state.n, pattern.k)
    a, b = random.Random(8), random.Random(8)
    report = blocked_placements(state, pattern, 3000, a)
    assert report == reference_blocked_placements(state, pattern, 3000, b)
    assert a.getstate() == b.getstate()
    assert report == BlockReport(sampled=3000, blocked=2929, realized=71)


def test_blocked_placements_matches_sample_reference_with_two_bicliques_mid_run():
    # stopped before saturation, so a P4 placement can be realized on one
    # biclique and open on the other: each class shows up
    state = ProcessState(30, seed=3)
    state.run(Steps(80))
    pattern = path_pattern(3)
    a, b = random.Random(8), random.Random(8)
    report = blocked_placements(state, pattern, 3000, a)
    assert report == reference_blocked_placements(state, pattern, 3000, b)
    assert a.getstate() == b.getstate()
    assert report == BlockReport(sampled=3000, blocked=2741, realized=13)


def test_blocked_placements_leaves_the_state_alone():
    state = ProcessState(60, seed=4)
    state.run(Steps(200))
    open_before = list(state.open_masks)
    edges_before = list(state.edge_masks)
    for pattern in (cycle_pattern(4), complete_bipartite_pattern(6, 6)):
        blocked_placements(state, pattern, 500, random.Random(1))
        classify_placement(state, pattern, tuple(range(pattern.k)))
    assert state.open_masks == open_before
    assert state.edge_masks == edges_before
    assert state.audit(state.total_pairs).ok


def test_block_report_arithmetic():
    report = BlockReport(sampled=10, blocked=6, realized=1)
    assert report.fraction_blocked == 0.6
    assert BlockReport(sampled=0, blocked=0, realized=0).fraction_blocked == 0.0


# ----------------------------------------------------------------------
# density / appearance cross-check

def test_dense_subset_implication_wiring():
    # a copy of K_{6,6} forces some 12-subset to span >= 36 edges; on the
    # 12-vertex K_{6,6} itself both sides of the implication are tight
    pattern = complete_bipartite_pattern(6, 6)
    rows = rows_from_edges(12, list(pattern.edges))
    assert max_edges_k_subset(rows, 12, random.Random(0)).edges == 36
    assert find_copy(rows, pattern) is not None
    # and on a sparse graph the subset bound certifies absence
    sparse = rows_from_edges(12, [(i, i + 1) for i in range(11)])
    assert max_edges_k_subset(sparse, 12, random.Random(0)).edges < 36
    assert find_copy(sparse, pattern) is None
