"""Exact simulation of the triangle-free random graph process.

The process starts from the empty graph on n vertices.  At every step an
edge is drawn uniformly at random from the set of *open* pairs (pairs
that are neither edges nor would complete a triangle if inserted) and
added to the graph.  It terminates when no open pair remains; the final
graph is then maximal triangle-free.

Every unordered vertex pair carries exactly one status at all times:

    OPEN    insertable without creating a triangle
    EDGE    already inserted
    CLOSED  not an edge, but the endpoints share a neighbour

The pair store is two bitmasks per vertex, held as Python ints: bit w of
`_open_mask[v]` is set iff {v, w} is OPEN, bit w of `_adj_mask[v]` iff
it is an EDGE, and a CLOSED pair has neither.  Inserting {u, v} closes
exactly the pairs {v, w} with w in `adj_mask[u] & open_mask[v]` and
{u, w} with w in `adj_mask[v] & open_mask[u]`, so a step visits only the
pairs it closes: O(1 + closed) interpreter iterations, each mask
operation running in C.  The same masks give a pair's partial-vertex
count as one popcount.

The draw uses a lazy open-pair index: a sequence of pair ranks that
holds every OPEN pair exactly once and possibly some pairs that have
closed since it was built.  A step draws a uniform position and accepts
the pair if the masks say it is OPEN, else draws again; conditioned on
acceptance the pair is uniform over the open pairs, so the process is
exact.  Insertions never touch the index.  It starts as `range(total)`
and is rebuilt from the masks, as a compact `array` of exactly the OPEN
ranks, once it holds more than 3Q + n entries; that costs O(n + Q) and
keeps the expected draws per step below 3 + n/Q.  A drawn rank r is
decoded to its pair through `_rowblocks(n)`, which holds the row of
every 64th rank: r lies in the row of rank 64 (r >> 6) or a later one,
and is moved on a row at a time.  Most ranks take no step; only in the
short last rows, where one block spans several, do they take more than
one.  The tests keep the closed-form decode as the table's reference.

The engine reads every single-bit mask from `_bits(n)`, one tuple per
n with `_bits(n)[w] == 1 << w`, because `1 << w` allocates a new w-bit
int on every call and a run would build one per pair it touches.
`audit` keeps its own shifts, so its ground truth does not read the
table.

The masks, the lazy index, the edge log and the RNG are the whole state.
The edge log is two `array` columns of endpoints, 2 bytes each while
n <= 65536.  A step's closed pairs are kept as its two close masks and
decoded only when read.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import random
from array import array
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Iterable, Iterator, NamedTuple

# Bytes per inserted edge: the edge log's two columns and the growth of
# the edge rows.  tracemalloc runs to saturation at n = 300 to 2000 left
# 11 B per edge at the end; 16 covers the state's fixed overhead at
# small n.  The peak at n = 2000 is 4.2 MB, at the index's first rebuild.
BYTES_PER_EDGE = 16
# c(n) = final edges / (n^(3/2) sqrt(ln n)) reads 0.40-0.50 for
# 30 <= n <= 4000 and tends to 1/(2 sqrt 2) ~ 0.354
EDGE_COUNT_BOUND = 0.5


class SizingError(ValueError):
    """Raised when a requested vertex count cannot be simulated."""


def index_typecode(total: int) -> str:
    """`array` typecode of the open-pair index: 4-byte ranks while they fit."""
    return "I" if total <= 2**32 else "Q"


@functools.cache  # a pure function of n, checked by every constructor
def estimated_bytes(n: int) -> int:
    """Peak memory of a ProcessState(n) run to saturation, in bytes.

    The index peaks at its first rebuild, an array of at most a third of
    the pairs (each rebuild drops the old array before it builds the new
    one); the masks take n^2/4 bytes; the single-bit table `_bits(n)`,
    shared by every state of this n, 4 bytes per 30-bit digit (n^2/15 in
    all) plus about 40 per int; the row table `_rowblocks(n)`, also
    shared, one 8-byte reference per 64 pairs and one int per row; the
    edges take BYTES_PER_EDGE each.
    """
    if n < 2:
        return 0
    total = n * (n - 1) // 2
    index = array(index_typecode(total)).itemsize * total // 3
    bits = n * n // 15 + 40 * n
    rows = total // 8 + 32 * n
    edges = EDGE_COUNT_BOUND * n * math.sqrt(n * math.log(n))
    return index + n * n // 4 + bits + rows + int(BYTES_PER_EDGE * edges)


@functools.cache  # n small ints per n, a state holds them anyway
def _rowbase(n: int) -> tuple[int, ...]:
    """The rank of pair (a, b), a < b, is _rowbase(n)[a] + b."""
    return tuple(a * n - a * (a + 1) // 2 - a - 1 for a in range(n))


@functools.cache  # about n^2/15 bytes per n, shared by its states
def _bits(n: int) -> tuple[int, ...]:
    """_bits(n)[w] == 1 << w for 0 <= w < n, built once per n."""
    return tuple(1 << w for w in range(n))


@functools.cache  # about n^2/16 bytes per n, shared by its states
def _rowblocks(n: int) -> tuple[int, ...]:
    """_rowblocks(n)[b] is the row u of the pair of rank 64b, built once per n.

    Rank r lies in row u = _rowblocks(n)[r >> 6] or a later one; while
    r - _rowbase(n)[u] >= n it lies past row u, and v = r - _rowbase(n)[u]
    once it does not.  A tuple, not an array, because indexing an array
    builds a new int on every read; each row's entries share one int.
    """
    rowbase = _rowbase(n)
    blocks: list[int] = []
    for u in range(n - 1):
        # the blocks whose first rank is below row u + 1's first rank
        end = (rowbase[u + 1] + u + 2 + 63) >> 6
        blocks += itertools.repeat(u, end - len(blocks))
    return tuple(blocks)


@functools.cache
def physical_memory_bytes() -> int | None:
    """Physical memory of this machine, or None where the OS cannot say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def check_fits(need: int, what: str) -> None:
    """Raise SizingError when `need` bytes exceed physical memory."""
    limit = physical_memory_bytes()
    if limit is not None and need > limit:
        raise SizingError(
            f"{what} would need about {need} bytes, "
            f"more than the memory limit of {limit} bytes"
        )


def sample_pools(length: int, first: int) -> bool:
    """Whether `Random.sample` draws `first` of `length` from a pool."""
    setsize = 21  # a list of `length` is smaller than a set
    if first > 5:
        setsize += 4 ** math.ceil(math.log(first * 3, 4))
    return length <= setsize


class PairStatus(IntEnum):
    OPEN = 0
    EDGE = 1
    CLOSED = 2


class StepResult(NamedTuple):
    """One insertion: the chosen pair {u, v}, u < v, and the pairs it closed,
    as the masks of the w with {v, w} closed and with {u, w} closed."""

    chosen: tuple[int, int]
    close_v: int
    close_u: int

    @property
    def newly_closed(self) -> tuple[tuple[int, int], ...]:
        """The closed pairs: v's with w descending, then u's."""
        u, v = self.chosen
        pairs = []
        for x, bits in ((v, self.close_v), (u, self.close_u)):
            while bits:
                w = bits.bit_length() - 1
                bits ^= 1 << w
                pairs.append((x, w) if x < w else (w, x))
        return tuple(pairs)


# the NamedTuple's own __new__ is Python code and costs 2-3x as much
# per call as _new_step(StepResult, ((u, v), close_v, close_u))
_new_step = tuple.__new__


@dataclass(frozen=True)
class Saturation:
    """Run until no open pair remains."""


@dataclass(frozen=True)
class Steps:
    """Run until the given number of edges has been inserted."""

    limit: int


StopCondition = Saturation | Steps


@dataclass(frozen=True)
class AuditReport:
    """Result of recomputing pair statuses and triangle-freeness from scratch."""

    pairs_checked: int
    discrepancies: tuple[tuple[int, int, PairStatus, PairStatus], ...]
    triangles: tuple[tuple[int, int, int], ...]
    open_count_consistent: bool

    @property
    def ok(self) -> bool:
        return (
            not self.discrepancies
            and not self.triangles
            and self.open_count_consistent
        )


class ProcessState:
    """The evolving graph: pair-status masks, a lazy open-pair index, the
    edge log and the process RNG.

    A state is owned by one execution context while it is being stepped;
    once a run has finished, read-only queries are safe from anywhere.
    Identical (n, seed) and an identical step sequence reproduce the same
    edge log; measurement helpers never touch the process RNG.
    """

    def __init__(self, n: int, seed: int) -> None:
        """Rejects n < 2 and any n whose run would not fit in physical memory."""
        if n < 2:
            raise SizingError(f"need at least 2 vertices to form a pair, got n={n}")
        check_fits(estimated_bytes(n), f"n={n}")
        self.n = n
        self.seed = seed
        self._total = n * (n - 1) // 2
        self._rowbase = _rowbase(n)
        self._bit = _bits(n)
        self._rows = _rowblocks(n)
        self._rng = random.Random(seed)
        self.restart()

    def restart(self) -> None:
        """Return to the empty graph; the process RNG runs on.

        Resets the masks, the lazy index, the open count and the edge log.
        The next run draws from where the last one left the stream, so the
        runs of one state are independent runs of the process, and only
        the first reproduces a fresh `ProcessState(n, seed)`.
        """
        n = self.n
        full = (1 << n) - 1
        self._open_mask = [full ^ bit for bit in self._bit]  # all OPEN
        self._adj_mask = [0] * n
        # lazy open-pair index: every OPEN rank once, plus stale ranks
        self._open: range | array = range(self._total)
        self._open_count = self._total
        # edge i (0-based) is {_log_u[i], _log_v[i]}, _log_u[i] < _log_v[i]
        vertex = "H" if n <= 2**16 else "I"  # 2-byte vertices while they fit
        self._log_u = array(vertex)
        self._log_v = array(vertex)

    # ------------------------------------------------------------------
    # basic queries

    @property
    def steps(self) -> int:
        """Number of edges inserted so far."""
        return len(self._log_u)

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """The inserted edges (u, v), u < v, in insertion order.

        A one-shot iterator over the log's columns: it builds one tuple per
        edge as it goes, never the whole list.
        """
        return zip(self._log_u, self._log_v)

    @property
    def open_pairs(self) -> int:
        """Q(i), the number of open pairs."""
        return self._open_count

    @property
    def total_pairs(self) -> int:
        return self._total

    @property
    def edge_masks(self) -> list[int]:
        """Row v has bit w set iff {v, w} is an EDGE; the live store, not a copy."""
        return self._adj_mask

    @property
    def open_masks(self) -> list[int]:
        """Row v has bit w set iff {v, w} is OPEN; the live store, not a copy."""
        return self._open_mask

    def _stored_status(self, u: int, v: int) -> PairStatus:
        if self._open_mask[u] >> v & 1:
            return PairStatus.OPEN
        if self._adj_mask[u] >> v & 1:
            return PairStatus.EDGE
        return PairStatus.CLOSED

    # ------------------------------------------------------------------
    # stepping

    def step(self) -> StepResult | None:
        """Insert one uniformly random open pair.

        Draws uniform positions of the lazy index until one holds an OPEN
        pair.  Returns None when no open pair remains (saturation); that is
        the normal terminal signal, not an error.
        """
        if self._open_count == 0:
            return None
        if len(self._open) > 3 * self._open_count + self.n:
            self._compact()
        index = self._open
        size = len(index)
        k = size.bit_length()
        draw = self._rng.getrandbits
        open_mask = self._open_mask
        bit = self._bit
        rows = self._rows
        rowbase = self._rowbase
        n = self.n
        misses = 0
        while size:
            # randrange(size), written out: same stream, exact uniform draw
            i = draw(k)
            while i >= size:
                i = draw(k)
            rank = index[i]
            u = rows[rank >> 6]  # rank to pair through the row table
            v = rank - rowbase[u]
            while v >= n:
                u += 1
                v = rank - rowbase[u]
            if open_mask[u] & bit[v]:
                return self._insert(u, v)
            misses += 1
            if misses > size:
                # Q promised an open pair the index keeps missing; the masks
                # are the truth, and an empty rebuild means there is none
                index = self._compact()
                size = len(index)
                k = size.bit_length()
                misses = 0
        return None

    def _compact(self) -> array:
        """Rebuild the lazy index as exactly the OPEN ranks, read from the masks.

        The old index is dropped first, so the old and the new array are
        never held at once.
        """
        self._open = range(0)
        index = array(index_typecode(self._total))
        append = index.append
        bit = self._bit
        rowbase = self._rowbase
        for u, row in enumerate(self._open_mask):
            row >>= u + 1  # the pairs {u, w} with w > u
            base = rowbase[u] + u + 1
            while row:
                w = row.bit_length() - 1
                row ^= bit[w]
                append(base + w)
        self._open = index
        return index

    def _insert(self, u: int, v: int) -> StepResult:
        """Turn the OPEN pair {u, v}, u < v, into an EDGE; the index is untouched."""
        open_mask = self._open_mask
        adj_mask = self._adj_mask
        bit = self._bit
        bit_u = bit[u]
        bit_v = bit[v]

        # every open pair {v, w} with w a neighbour of u gains the common
        # neighbour u, and symmetrically for {u, w}; those pairs close now
        close_v = adj_mask[u] & open_mask[v]
        close_u = adj_mask[v] & open_mask[u]
        self._open_count -= 1 + close_v.bit_count() + close_u.bit_count()
        open_mask[v] ^= close_v | bit_u
        open_mask[u] ^= close_u | bit_v
        adj_mask[u] |= bit_v
        adj_mask[v] |= bit_u
        result = _new_step(StepResult, ((u, v), close_v, close_u))
        while close_v:
            w = close_v.bit_length() - 1
            close_v ^= bit[w]
            open_mask[w] ^= bit_v
        while close_u:
            w = close_u.bit_length() - 1
            close_u ^= bit[w]
            open_mask[w] ^= bit_u

        self._log_u.append(u)
        self._log_v.append(v)
        return result

    def run(
        self,
        stop: StopCondition = Saturation(),
        on_step: Callable[["ProcessState", StepResult], None] | None = None,
    ) -> "ProcessState":
        """Step repeatedly until the stop condition or saturation; returns
        the state, saturated iff `open_pairs == 0`.

        `on_step` fires after each insertion with the updated state.
        """
        if isinstance(stop, Saturation):
            left: Iterable[None] = itertools.repeat(None)
        elif isinstance(stop, Steps):
            left = itertools.repeat(None, max(0, stop.limit - self.steps))
        else:
            raise TypeError(f"unknown stop condition: {stop!r}")
        for _ in left:
            result = self.step()
            if result is None:
                break
            if on_step is not None:
                on_step(self, result)
        return self

    # ------------------------------------------------------------------
    # measurement

    def partial_vertex_total(self, count: int, rng: random.Random) -> tuple[int, int]:
        """Sample `count` distinct open pairs uniformly, or all of them if
        count >= Q, and return the sum of their partial-vertex counts
        |Y_{u,v}| and the number of pairs.

        |Y_{u,v}| is the number of w with {u, w} an edge and {v, w} open,
        or the other way round: one popcount of (adj[u] & open[v]) |
        (adj[v] & open[u]), whose two masks are disjoint.  Index positions
        are drawn in a uniformly random order and the OPEN pairs among
        them kept; each open pair sits at exactly one position, so the
        kept pairs are uniform.  The positions are those of
        `rng.sample(range(length), count)` followed by `rng.randrange`
        draws that skip the positions drawn before, until `count` pairs
        are kept.  Count >= Q walks the index in order and draws nothing,
        as does count <= 0.  The index is read, never rebuilt or
        reordered, and only `rng` is drawn from, so measurement never
        perturbs the process stream.

        CPython's draw algorithms are written out in four places, each
        pinned on the running Python: here
        (`test_sample_open_pairs_matches_reference_over_a_run`, and
        `test_partial_vertex_total_matches_sample_then_randrange` at
        `sample`'s threshold), `sample` in `patterns._sample_placements`
        (`test_blocked_placements_matches_sample_reference*`), `randrange`
        in `step` (`test_edge_sequence_is_pinned`) and `shuffle` in
        `oracle.permutation_final_edges`
        (`test_permutation_pass_matches_shuffle_reference`).  Above
        `sample`'s set-size threshold (`sample_pools`), `sample` is itself
        randbelow with redraws over a set, so the whole sample comes from
        one `getrandbits` rejection loop; at or below it, `sample`
        shuffles a pool and is called for the head.  The loop tests OPEN
        first and consults `seen` only on an OPEN hit.  `seen` holds only
        the kept positions, all OPEN, so the same draws are rejected as by
        `sample`'s set of every drawn position: a repeat of a position
        that held a closed pair is rejected again at the cost of the same
        one redraw, so the stream is unchanged.

        The rank-to-pair decode through `_rowblocks(n)` is written out in
        three places, `step` and both loops here.  The table is checked
        against a closed-form decode for every rank
        (`test_row_table_decode_matches_unrank`), and each of the three
        places at every rank of small n
        (`test_step_and_sampler_decode_every_rank`).
        """
        index = self._open
        length = len(index)
        walk = count >= self._open_count
        if walk:
            positions: Iterable[int] = range(length)
        elif count <= 0:
            return 0, 0
        elif sample_pools(length, count):
            positions = rng.sample(range(length), count)
        else:
            positions = ()
        adj_mask = self._adj_mask
        open_mask = self._open_mask
        bit = self._bit
        rows = self._rows
        rowbase = self._rowbase
        n = self.n
        total = found = 0
        seen: set[int] = set()
        for i in positions:
            rank = index[i]
            u = rows[rank >> 6]  # rank to pair through the row table
            v = rank - rowbase[u]
            while v >= n:
                u += 1
                v = rank - rowbase[u]
            row = open_mask[u]
            if row & bit[v]:
                total += (
                    (adj_mask[u] & open_mask[v]) | (adj_mask[v] & row)
                ).bit_count()
                found += 1
                seen.add(i)
        if walk or found == count:
            return total, found
        getrandbits = rng.getrandbits
        bits = length.bit_length()
        add = seen.add
        while True:
            # randrange(length) skipping the kept positions, written out
            i = getrandbits(bits)
            if i < length:
                rank = index[i]
                u = rows[rank >> 6]  # rank to pair through the row table
                v = rank - rowbase[u]
                while v >= n:
                    u += 1
                    v = rank - rowbase[u]
                row = open_mask[u]
                if row & bit[v] and i not in seen:
                    total += (
                        (adj_mask[u] & open_mask[v]) | (adj_mask[v] & row)
                    ).bit_count()
                    found += 1
                    if found == count:
                        return total, found
                    add(i)

    # ------------------------------------------------------------------
    # auditing

    def audit(self, sample_size: int, rng: random.Random | None = None) -> AuditReport:
        """Recompute ground truth and compare against the stored state.

        Checks `sample_size` pairs drawn with `rng` (all pairs, with no
        rng, if the sample covers the store) against statuses recomputed
        from the edge log alone, and scans every logged edge for a common
        endpoint neighbour (a triangle).  The ground truth is built as
        rows from the log, never from the masks: a non-edge {v, w} is
        CLOSED iff w is in the OR of the edge rows of v's neighbours.
        Each vertex's stored rows are compared with its truth rows, so a
        full audit costs O(n + edges) mask operations.  A pair is stored
        twice, as (open bit, edge bit) under either endpoint, and the
        first copy that disagrees, the lower endpoint's if that one does,
        gives the discrepancy's stored status.
        """
        n = self.n
        total = self._total
        if sample_size >= total:
            ranks: range | list[int] = range(total)
        else:
            if rng is None:
                raise ValueError(f"a sampled audit ({sample_size} pairs) needs an rng")
            ranks = rng.sample(range(total), sample_size)

        log_u, log_v = self._log_u, self._log_v
        truth = [0] * n
        for u, v in zip(log_u, log_v):
            truth[u] |= 1 << v
            truth[v] |= 1 << u
        reach = [0] * n
        triangles: list[tuple[int, int, int]] = []
        for u, v in zip(log_u, log_v):
            reach[u] |= truth[v]
            reach[v] |= truth[u]
            common = truth[u] & truth[v]
            if common:
                # each triangle once: from its two lowest vertices' edge
                common &= -2 << max(u, v)
                while common:
                    w = (common & -common).bit_length() - 1
                    triangles.append((u, v, w))
                    common ^= 1 << w

        open_mask = self._open_mask
        adj_mask = self._adj_mask
        rowbase = self._rowbase
        full = (1 << n) - 1
        # by rank; vertices ascend, so a pair's first hit is its lower
        # endpoint whenever that copy disagrees
        found: dict[int, tuple[int, int, PairStatus, PairStatus]] = {}
        for v in range(n):
            edge = truth[v]
            others = full ^ (1 << v)
            truth_open = others & ~(edge | reach[v])
            wrong = ((open_mask[v] ^ truth_open) | (adj_mask[v] ^ edge)) & others
            while wrong:
                w = wrong.bit_length() - 1
                wrong ^= 1 << w
                a, b = (v, w) if v < w else (w, v)
                r = rowbase[a] + b
                if r not in found:
                    if edge >> w & 1:
                        actual = PairStatus.EDGE
                    elif truth_open >> w & 1:
                        actual = PairStatus.OPEN
                    else:
                        actual = PairStatus.CLOSED
                    found[r] = (a, b, self._stored_status(v, w), actual)

        return AuditReport(
            pairs_checked=len(ranks),
            discrepancies=tuple(found[r] for r in ranks if r in found) if found else (),
            triangles=tuple(triangles),
            open_count_consistent=(
                sum(m.bit_count() for m in self._open_mask) == 2 * self._open_count
            ),
        )
