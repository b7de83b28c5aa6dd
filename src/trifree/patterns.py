"""Fixed triangle-free patterns: loading, copy detection, density auditors.

A pattern is a small fixed graph F.  A *copy* of F in the evolving graph
is an injective map of pattern vertices to graph vertices that realises
every pattern edge as a graph edge (non-induced).  Because closed pairs
never become edges, a placement with any pattern edge on a closed pair
is permanently blocked: no copy can ever appear on those positions.

Patterns and graphs alike are bitmask rows (bit w of row v set iff
{v, w} is an edge, as in `ProcessState.edge_masks` and `Pattern.rows`).
One backtracking search, with degree pruning and candidate ordering by
constraint count, returns the first copy: the candidates for a pattern
vertex are the AND of its placed neighbours' rows minus the used
vertices.  Two cuts drop only branches that hold no copy, so the
candidates are tried in the same order and the first copy is the same.
A count bound: every unplaced pattern vertex adjacent to all of a
level's placed neighbours needs its own image in that level's candidate
set, so a set smaller than that count (the level's `need`) is a dead
end.  A one-level look-ahead: before placing a candidate, the search
computes the next level's candidate set with it placed and skips the
candidate when the set is below the next level's `need`.  The search
serves two callers.
`FirstAppearanceTracker` runs it incrementally: after inserting an edge,
only copies whose image uses that edge are searched, anchored at one
pattern edge orientation per automorphism orbit; the run driver decides
which edges a tracker is offered.  And those orbits come
from the same search run on the pattern's own rows, since a bijection of
the k pattern vertices that maps edges to edges is an automorphism;
every automorphism found marks the images of the anchors' orbits, and
marked orientations are not searched again.  (The tests' whole-graph
reference, `find_copy` in `tests/reference.py`, runs it unanchored.)  A
placement is classified by comparing, per complete bipartite piece of
the pattern, the mask of its heads' images against the blocked and
non-edge rows of its centres' images; random placements are drawn and
classified in one loop.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator

from .process import ProcessState, sample_pools

MAX_PATTERN_VERTICES = 12  # the copy search's cap on k


class PatternError(ValueError):
    """Malformed or invalid pattern input."""


@dataclass(frozen=True)
class Pattern:
    """A fixed triangle-free graph on vertices 0..k-1."""

    k: int
    edges: tuple[tuple[int, int], ...]
    name: str = ""

    @property
    def e(self) -> int:
        return len(self.edges)

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """Edge rows: bit b of row a is set iff {a, b} is a pattern edge."""
        rows = [0] * self.k
        for a, b in self.edges:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        return tuple(rows)

    @cached_property
    def bicliques(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """A cover of the edges by complete bipartite subgraphs, as
        (centres, heads) pairs: every centre is adjacent to every head of
        its pair, and every edge joins a centre and a head of exactly one
        pair.

        Greedy: the vertex with the most uncovered edges becomes a centre
        and its uncovered neighbours its heads; centres with the same
        heads share a pair.  C4 and K6,6 are one pair each.
        """
        uncovered = list(self.rows)
        centres_by_heads: dict[int, list[int]] = {}
        while any(uncovered):
            a = max(range(self.k), key=lambda x: uncovered[x].bit_count())
            centres_by_heads.setdefault(uncovered[a], []).append(a)
            uncovered[a] = 0
            uncovered = [row & ~(1 << a) for row in uncovered]
        return tuple(
            (tuple(centres), tuple(b for b in range(self.k) if heads >> b & 1))
            for heads, centres in centres_by_heads.items()
        )

    @property
    def label(self) -> str:
        return self.name or f"pattern-{self.k}v{self.e}e"


def make_pattern(k: int, edges: list[tuple[int, int]], name: str = "") -> Pattern:
    """Validate and build a pattern (triangle-free, simple, 2 <= k <= 12, e >= 1)."""
    if k < 2:
        raise PatternError(f"pattern needs k >= 2 vertices, got k={k}")
    if k > MAX_PATTERN_VERTICES:
        raise PatternError(
            f"pattern has k={k} vertices; the copy search caps at "
            f"{MAX_PATTERN_VERTICES}"
        )
    if not edges:
        raise PatternError("pattern needs at least one edge")
    seen: set[tuple[int, int]] = set()
    for a, b in edges:
        if a == b:
            raise PatternError(f"self-loop at vertex {a}")
        if not (0 <= a < k and 0 <= b < k):
            raise PatternError(f"edge ({a}, {b}) out of range for k={k}")
        key = (a, b) if a < b else (b, a)
        if key in seen:
            raise PatternError(f"duplicate edge {key}")
        seen.add(key)
    pattern = Pattern(k=k, edges=tuple(sorted(seen)), name=name)
    rows = pattern.rows
    for a, b in pattern.edges:
        common = rows[a] & rows[b]
        if common:
            w = (common & -common).bit_length() - 1  # the lowest third vertex
            raise PatternError(
                f"not triangle-free: vertices ({a}, {b}, {w}) form a triangle"
            )
    return pattern


def parse_pattern(text: str, name: str = "") -> Pattern:
    """Parse the text format: header line `k e`, then e lines `u v` (u < v).

    `#` starts a comment; blank lines are ignored.  Errors carry the
    offending 1-based line number.
    """
    header: tuple[int, int] | None = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise PatternError(f"line {lineno}: expected two integers, got {raw!r}")
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            raise PatternError(
                f"line {lineno}: expected two integers, got {raw!r}"
            ) from None
        if header is None:
            header = (a, b)
            continue
        if a >= b:
            raise PatternError(f"line {lineno}: edges must satisfy u < v, got {a} {b}")
        if a < 0 or b >= header[0]:
            raise PatternError(
                f"line {lineno}: edge ({a}, {b}) out of range for k={header[0]}"
            )
        if (a, b) in edges:
            raise PatternError(f"line {lineno}: duplicate edge {(a, b)}")
        edges.add((a, b))
    if header is None:
        raise PatternError("empty pattern file")
    k, e = header
    if len(edges) != e:
        raise PatternError(f"header declares {e} edges but {len(edges)} were given")
    return make_pattern(k, sorted(edges), name=name)


def load_pattern_file(path: str) -> Pattern:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stem = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return parse_pattern(text, name=stem)


def pattern_text(pattern: Pattern) -> str:
    lines = [f"{pattern.k} {pattern.e}"]
    lines.extend(f"{a} {b}" for a, b in pattern.edges)
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# common pattern constructors

def cycle_pattern(length: int) -> Pattern:
    if length < 4:
        raise PatternError("cycles shorter than C4 are not triangle-free patterns")
    edges = [(i, i + 1) for i in range(length - 1)] + [(0, length - 1)]
    return make_pattern(length, edges, name=f"C{length}")


def complete_bipartite_pattern(a: int, b: int) -> Pattern:
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return make_pattern(a + b, edges, name=f"K{a},{b}")


# ----------------------------------------------------------------------
# copy search

def _mask(vertices) -> int:
    """The row with exactly the bits of `vertices` set."""
    row = 0
    for a in vertices:
        row |= 1 << a
    return row


# a search order, one entry per level (see `_build_order`)
_Order = list[tuple[int, tuple[int, ...], int, int]]


def _build_order(pattern: Pattern, placed: tuple[int, ...]) -> _Order:
    """Greedy vertex order: most placed-neighbours first, then degree.

    Entries are (pattern vertex, placed pattern neighbours, min degree,
    need), where `need` counts the unplaced vertices, this one included,
    that are adjacent to all of those placed neighbours: their images are
    distinct members of this level's candidate set.  `placed` holds the
    vertices already placed (an anchor's two, or none), and the order
    covers the rest.
    """
    rows = pattern.rows
    done = list(placed)
    placed_mask = _mask(done)
    remaining = [a for a in range(pattern.k) if a not in done]
    order: _Order = []
    while remaining:
        best = max(
            remaining,
            key=lambda a: ((rows[a] & placed_mask).bit_count(), rows[a].bit_count()),
        )
        nbrs = tuple(b for b in done if rows[best] >> b & 1)
        nbrs_mask = _mask(nbrs)
        need = sum(rows[a] & nbrs_mask == nbrs_mask for a in remaining)
        order.append((best, nbrs, rows[best].bit_count(), need))
        done.append(best)
        placed_mask |= 1 << best
        remaining.remove(best)
    return order


def _search(
    rows: list[int] | tuple[int, ...],
    order: _Order,
    assign: dict[int, int],
    used: int,
) -> dict[int, int] | None:
    """The first extension of a partial assignment to a copy, or None.

    `rows` are the graph's edge rows, `order` places the pattern vertices
    that `assign` leaves out, and `used` is the mask of the graph
    vertices the assignment already takes.  A copy found is `assign`
    itself, completed.
    """
    if not order:
        return assign
    _, nbrs, _, need = order[0]
    candidates = ((1 << len(rows)) - 1) & ~used
    for b in nbrs:
        candidates &= rows[assign[b]]
    if candidates.bit_count() < need:
        return None
    return _extend(rows, order, 0, assign, used, candidates)


def _extend(
    rows: list[int] | tuple[int, ...],
    order: _Order,
    idx: int,
    assign: dict[int, int],
    used: int,
    candidates: int,
) -> dict[int, int] | None:
    """`_search` from level idx on, given that level's candidate set.

    Candidates are tried from the highest vertex down.  Before placing
    one, the next level's candidate set is computed with it placed, and
    the candidate is skipped when that set holds fewer vertices than the
    next level's `need`.
    """
    pv, _, mindeg, _ = order[idx]
    last = idx + 1 == len(order)
    if not last:
        _, nbrs, _, need = order[idx + 1]
        linked = pv in nbrs
        ahead = ((1 << len(rows)) - 1) & ~used
        for b in nbrs:
            if b != pv:
                ahead &= rows[assign[b]]
    while candidates:
        c = candidates.bit_length() - 1
        bit = 1 << c
        candidates ^= bit
        row = rows[c]
        if row.bit_count() < mindeg:
            continue
        if last:
            assign[pv] = c
            return assign
        following = ahead & row if linked else ahead & ~bit
        if following.bit_count() < need:
            continue
        assign[pv] = c
        if _extend(rows, order, idx + 1, assign, used | bit, following) is not None:
            return assign
        del assign[pv]
    return None


def anchor_orientations(pattern: Pattern) -> dict[tuple[int, int], _Order]:
    """One ordered pattern edge per automorphism orbit, each mapped to
    its anchored search order.

    Anchoring an incremental search at these orientations covers every
    way a new graph edge can sit inside a copy; edge-transitive patterns
    collapse to a single anchor.  (x, y) and (c, d) share an orbit iff
    the pattern has a copy in itself that takes x to c and y to d: that
    copy is a bijection of the k vertices mapping edges to edges, which
    is an automorphism.  The ordered edges that the automorphisms found
    so far carry an anchor to are marked and not searched again.
    """
    rows = pattern.rows
    anchors: dict[tuple[int, int], _Order] = {}
    automorphisms: list[tuple[int, ...]] = []
    marked: set[tuple[int, int]] = set()
    for a, b in pattern.edges:
        for c, d in ((a, b), (b, a)):
            if (c, d) in marked:
                continue
            for (x, y), order in anchors.items():
                copy = _search(rows, order, {x: c, y: d}, 1 << c | 1 << d)
                if copy is not None:
                    automorphisms.append(tuple(copy[v] for v in range(pattern.k)))
                    break
            else:
                anchors[c, d] = _build_order(pattern, (c, d))
            marked.add((c, d))
            frontier = list(marked)
            while frontier:
                x, y = frontier.pop()
                for perm in automorphisms:
                    image = (perm[x], perm[y])
                    if image not in marked:
                        marked.add(image)
                        frontier.append(image)
    return anchors


class FirstAppearanceTracker:
    """Incremental first-copy detection during a run.

    After each insertion, offer the new edge; only copies using that
    edge are searched, so a run that never produces a copy stays cheap
    while the graph is sparse.  Which insertions are offered is the
    caller's choice (see `harness.run_simulation`); once the first copy
    is recorded, later offers return False without a search.
    """

    def __init__(self, pattern: Pattern) -> None:
        self.pattern = pattern
        self.first_step: int | None = None
        self.witness: tuple[int, ...] | None = None
        self._anchors = list(anchor_orientations(pattern).items())

    def offer(self, rows: list[int], u: int, v: int, step: int) -> bool:
        """Check for a copy using the just-inserted edge {u, v}.

        `rows` are the graph's edge rows (`ProcessState.edge_masks`); the
        search only reads them.  Returns True exactly when this call
        records the first copy.
        """
        if self.first_step is not None:
            return False
        pattern_rows = self.pattern.rows
        deg_u = rows[u].bit_count()
        deg_v = rows[v].bit_count()
        for (a, b), order in self._anchors:
            if (
                deg_u < pattern_rows[a].bit_count()
                or deg_v < pattern_rows[b].bit_count()
            ):
                continue
            copy = _search(rows, order, {a: u, b: v}, 1 << u | 1 << v)
            if copy is not None:
                self.first_step = step
                self.witness = tuple(copy[x] for x in range(self.pattern.k))
                return True
        return False


# ----------------------------------------------------------------------
# density auditors

@dataclass(frozen=True)
class KSubsetResult:
    """Best k-subset found: spanned edge count and its certificate."""

    edges: int
    vertices: tuple[int, ...]


def _spanned_edges(rows: list[int], vertices: tuple[int, ...]) -> int:
    inside = _mask(vertices)
    return sum((rows[a] & inside).bit_count() for a in vertices) // 2


def max_edges_k_subset(
    rows: list[int], k: int, rng: random.Random, restarts: int = 100
) -> KSubsetResult:
    """A lower bound on the number of edges spanned by a k-subset of the
    graph with edge rows `rows`, with a k-subset that spans it.

    Randomized hill-climbing with vertex swaps: the first restart starts
    from the k highest-degree vertices, each later one from a uniform
    k-subset drawn with `rng.sample`.
    """
    n = len(rows)
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if restarts < 1:
        raise ValueError(f"need at least one restart, got restarts={restarts}")
    top_candidates = 16
    by_degree = sorted(range(n), key=lambda v: rows[v].bit_count(), reverse=True)
    best = -1
    best_w: tuple[int, ...] = ()
    for restart in range(restarts):
        members = set(by_degree[:k]) if restart == 0 else set(rng.sample(range(n), k))
        inside = _mask(members)
        cnt = [(row & inside).bit_count() for row in rows]  # member neighbours
        edges = sum(cnt[w] for w in members) // 2
        while True:
            outs = heapq.nlargest(
                top_candidates,
                (x for x in range(n) if x not in members),
                key=cnt.__getitem__,
            )
            best_gain = 0
            move: tuple[int, int] | None = None
            for w in members:
                cw = cnt[w]
                for x in outs:
                    gain = cnt[x] - cw
                    if gain > best_gain:
                        gain -= rows[w] >> x & 1  # the edge wx, if any, is lost
                        if gain > best_gain:
                            best_gain, move = gain, (w, x)
            if move is None:
                break
            w, x = move
            members.discard(w)
            members.add(x)
            for row, change in ((rows[w], -1), (rows[x], 1)):
                while row:
                    y = row.bit_length() - 1
                    row ^= 1 << y
                    cnt[y] += change
            edges += best_gain
        if edges > best:
            candidate = tuple(sorted(members))
            # certificate is authoritative; recount defensively
            best = _spanned_edges(rows, candidate)
            best_w = candidate
    return KSubsetResult(edges=best, vertices=best_w)


# ----------------------------------------------------------------------
# placement blocking

class PlacementClass(Enum):
    BLOCKED = "blocked"  # some pattern edge sits on a closed pair
    REALIZED = "realized"  # every pattern edge sits on an edge
    OPEN_COMPATIBLE = "open"  # neither: the copy could still appear


@dataclass(frozen=True)
class BlockReport:
    """Classification counts over sampled random placements."""

    sampled: int
    blocked: int
    realized: int

    @property
    def fraction_blocked(self) -> float:
        return self.blocked / self.sampled if self.sampled else 0.0


def classify_placement(
    state: ProcessState, pattern: Pattern, mapping: tuple[int, ...]
) -> PlacementClass:
    """Classify one injective placement against current pair statuses.

    Raises ValueError unless `mapping` takes the k pattern vertices to
    distinct vertices of the graph.
    """
    n = state.n
    k = pattern.k
    distinct = len(mapping) == len(set(mapping)) == k
    if not distinct or min(mapping) < 0 or max(mapping) >= n:
        raise ValueError(
            f"placement {mapping} must map the {k} pattern vertices "
            f"to distinct vertices in range for n={n}"
        )
    blocked, realized = _count_classes(
        *_derived_rows(state, mapping), pattern.bicliques, [mapping]
    )
    if blocked:
        return PlacementClass.BLOCKED
    return PlacementClass.REALIZED if realized else PlacementClass.OPEN_COMPATIBLE


def _derived_rows(
    state: ProcessState, vertices: Iterable[int]
) -> tuple[list[int], list[int], list[int]]:
    """The blocked row, of the w with {v, w} CLOSED (and v itself), the
    non-edge row, of the w with {v, w} not an EDGE, and the bit 1 << v of
    each v in `vertices`, as lists over all n vertices (0 for the others).

    The rows are new ints, so measuring leaves the state's masks alone.
    """
    n = state.n
    full = (1 << n) - 1
    open_rows = state.open_masks
    edge_rows = state.edge_masks
    blocked = [0] * n
    nonedge = [0] * n
    bits = [0] * n
    for v in vertices:
        edge = edge_rows[v]
        blocked[v] = full ^ (open_rows[v] | edge)
        nonedge[v] = full ^ edge
        bits[v] = 1 << v
    return blocked, nonedge, bits


def _count_classes(
    blocked_rows: list[int],
    nonedge_rows: list[int],
    bits: list[int],
    bicliques: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...],
    placements: Iterable[tuple[int, ...] | list[int]],
) -> tuple[int, int]:
    """The numbers of BLOCKED and of REALIZED placements, each known to
    be valid.  Per biclique of the pattern, `want` masks its heads'
    images: some pattern edge is on a CLOSED pair iff `want` meets the
    blocked row of some centre's image, and every pattern edge is an EDGE
    iff `want` misses the non-edge row of every centre's image.
    """
    blocked = realized = 0
    for mapping in placements:
        full = True
        for centres, heads in bicliques:
            want = 0
            for b in heads:
                want |= bits[mapping[b]]
            for a in centres:
                v = mapping[a]
                if want & blocked_rows[v]:
                    break
                if full and want & nonedge_rows[v]:
                    full = False
            else:
                continue
            blocked += 1
            break
        else:
            realized += full
    return blocked, realized


def _sample_placements(
    rng: random.Random, n: int, k: int, count: int
) -> Iterator[list[int]]:
    """`count` lists `rng.sample(range(n), k)`, with that call's draws:
    at or below its set-size threshold `sample` is called, above it its
    set branch is written out, one `getrandbits` rejection loop of values
    >= n and repeats."""
    if sample_pools(n, k):
        for _ in range(count):
            yield rng.sample(range(n), k)
        return
    getrandbits = rng.getrandbits
    width = n.bit_length()
    vertices = range(k)
    for _ in range(count):
        placement: list[int] = []
        for _ in vertices:
            i = getrandbits(width)
            while i >= n or i in placement:
                i = getrandbits(width)
            placement.append(i)
        yield placement


def blocked_placements(
    state: ProcessState,
    pattern: Pattern,
    sample_count: int,
    rng: random.Random,
) -> BlockReport:
    """Classify `sample_count` uniformly random placements.

    `_sample_placements` draws each with the draws of
    `rng.sample(range(n), k)` (pinned by
    `test_blocked_placements_matches_sample_reference*`), and the one
    classifier, `_count_classes`, takes them unchecked as they are drawn,
    against rows and bits of every vertex built once per call.
    """
    n, k = state.n, pattern.k
    if k > n:
        raise ValueError(f"pattern needs {k} vertices, graph has {n}")
    blocked, realized = _count_classes(
        *_derived_rows(state, range(n)),
        pattern.bicliques,
        _sample_placements(rng, n, k, sample_count),
    )
    return BlockReport(sampled=sample_count, blocked=blocked, realized=realized)
