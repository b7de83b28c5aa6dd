"""Unit and property tests for the process engine."""

from __future__ import annotations

import hashlib
import random
import tracemalloc
from array import array
from collections import Counter
from itertools import combinations
from statistics import fmean

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trifree import process
from trifree.process import (
    PairStatus,
    ProcessState,
    Saturation,
    SizingError,
    Steps,
    StepResult,
    _rowbase,
    _rowblocks,
    estimated_bytes,
    sample_pools,
)
from trifree.trajectory import TrajectoryParams, take_checkpoint

from reference import force_step, pair_rank, pair_status, unrank


def edge_list(state):
    return list(state.iter_edges())


def log_rows(state):
    """Edge rows rebuilt from the edge log alone (test-side oracle)."""
    rows = [0] * state.n
    for u, v in state.iter_edges():
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def ground_truth_status(rows, u, v):
    """Status recomputed from edge rows alone (test-side oracle)."""
    if rows[u] >> v & 1:
        return PairStatus.EDGE
    if rows[u] & rows[v]:
        return PairStatus.CLOSED
    return PairStatus.OPEN


def all_pairs(n):
    return list(combinations(range(n), 2))


def oracle_partial_vertices(rows, a, b):
    """The partial vertices of the non-edge {a, b}: the w with one of
    {a, w}, {b, w} an edge and the other open, by the edge-log oracle."""
    return {
        w
        for w in range(len(rows))
        if w not in (a, b)
        and {
            ground_truth_status(rows, *sorted((a, w))),
            ground_truth_status(rows, *sorted((b, w))),
        }
        == {PairStatus.EDGE, PairStatus.OPEN}
    }


# ----------------------------------------------------------------------
# construction

def test_process_state_initial_counts():
    state = ProcessState(5, seed=1)
    assert state.steps == 0
    assert state.open_pairs == 10
    assert state.total_pairs == 10
    assert ProcessState(2, seed=7).open_pairs == 1


def test_process_state_rejects_single_vertex():
    with pytest.raises(SizingError):
        ProcessState(1, seed=0)
    with pytest.raises(SizingError):
        ProcessState(0, seed=0)


def test_process_state_memory_guard(monkeypatch):
    # 10^6 vertices need about 2.8e12 bytes, beyond any machine's memory
    with pytest.raises(SizingError, match="memory limit"):
        ProcessState(1_000_000, seed=0)
    # the limit is physical memory in bytes, and the message names both numbers
    need = estimated_bytes(11)
    monkeypatch.setattr(process, "physical_memory_bytes", lambda: need - 1)
    with pytest.raises(SizingError, match=f"{need} bytes.*{need - 1} bytes"):
        ProcessState(11, seed=0)
    monkeypatch.setattr(process, "physical_memory_bytes", lambda: need)
    assert ProcessState(11, seed=0).n == 11


@pytest.mark.parametrize("n", [300, 1000])
def test_estimated_bytes_bounds_the_traced_peak(n):
    tracemalloc.start()
    try:
        ProcessState(n, seed=1).run(Saturation())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= estimated_bytes(n) <= 2 * peak


def test_initial_state_all_open():
    state = ProcessState(6, seed=3)
    for u, v in all_pairs(6):
        assert pair_status(state, u, v) == PairStatus.OPEN
    assert state.audit(1000).ok


# ----------------------------------------------------------------------
# stepping

def test_first_step_closes_nothing():
    state = ProcessState(8, seed=11)
    result = state.step()
    assert result is not None
    assert result.newly_closed == ()


def test_n3_saturates_with_two_edges():
    state = ProcessState(3, seed=5)
    outcome = state.run(Saturation())
    assert outcome.steps == 2
    assert outcome.open_pairs == 0
    assert state.open_pairs == 0
    # the remaining pair is closed, not an edge
    statuses = sorted(pair_status(state, u, v).name for u, v in all_pairs(3))
    assert statuses == ["CLOSED", "EDGE", "EDGE"]


def test_star_insertion_closes_spokes():
    # edges {0,2},{0,3},{0,4} exist; inserting {0,1} closes {1,2},{1,3},{1,4}
    state = ProcessState(5, seed=0)
    for w in (2, 3, 4):
        force_step(state, 0, w)
    result = force_step(state, 0, 1)
    assert result.chosen == (0, 1)
    assert set(result.newly_closed) == {(1, 2), (1, 3), (1, 4)}


def test_step_result_equals_the_named_tuple_built_one():
    state = ProcessState(5, seed=0)
    for w in (2, 3, 4):
        force_step(state, 0, w)
    result = force_step(state, 0, 1)
    built = StepResult((0, 1), result.close_v, result.close_u)
    assert type(result) is StepResult
    assert result == built and hash(result) == hash(built)
    assert result.newly_closed == built.newly_closed == ((1, 4), (1, 3), (1, 2))
    state = ProcessState(12, seed=3)
    while (result := state.step()) is not None:
        built = StepResult(*result)
        assert type(result) is StepResult and result == built
        assert result.newly_closed == built.newly_closed


def test_run_steps_counts_on_from_the_current_step():
    calls = []

    def hook(st, result):
        assert st.steps == len(calls) + 1  # after the insertion
        calls.append(result.chosen)

    state = ProcessState(30, seed=8)
    state.run(Steps(10), hook)
    assert state.steps == 10 and calls == edge_list(state)
    # at or past the limit: no step, no draw, no hook
    rng_state, open_pairs = state._rng.getstate(), state.open_pairs
    for k in (10, 4, 0, -3):
        state.run(Steps(k), hook)
    assert state.steps == 10 and len(calls) == 10
    assert state._rng.getstate() == rng_state and state.open_pairs == open_pairs
    # a second run continues where the first stopped
    state.run(Steps(25), hook)
    reference = ProcessState(30, seed=8)
    reference.run(Steps(25))
    assert state.steps == 25 and calls == edge_list(state) == edge_list(reference)
    state.run(Saturation(), hook)
    assert state.open_pairs == 0 and calls == edge_list(state)


def test_saturation_signal_is_not_an_error():
    state = ProcessState(2, seed=1)
    assert state.step() is not None
    assert state.step() is None  # saturated
    assert state.step() is None


def test_force_step_requires_open_pair():
    state = ProcessState(4, seed=9)
    force_step(state, 0, 1)
    with pytest.raises(ValueError, match="EDGE"):
        force_step(state, 0, 1)


def test_run_to_saturation_is_maximal_triangle_free():
    state = ProcessState(4, seed=2)
    outcome = state.run(Saturation())
    assert outcome.open_pairs == 0
    report = state.audit(1000)
    assert report.ok and not report.triangles
    # maximality: every non-edge has a common neighbour
    for u, v in all_pairs(4):
        assert pair_status(state, u, v) != PairStatus.OPEN


def test_run_step_limit():
    state = ProcessState(100, seed=4)
    outcome = state.run(Steps(50))
    assert outcome.steps == 50
    assert outcome.open_pairs != 0
    assert state.audit(state.total_pairs).ok


# ----------------------------------------------------------------------
# pair queries

def test_pair_status_cases():
    state = ProcessState(4, seed=1)
    assert pair_status(state, 0, 3) == PairStatus.OPEN
    force_step(state, 0, 1)
    force_step(state, 1, 2)
    # path 0-1-2: pair {0,2} closed by common neighbour 1
    assert pair_status(state, 0, 2) == PairStatus.CLOSED
    assert pair_status(state, 0, 1) == PairStatus.EDGE
    # vertex 3 is isolated
    assert pair_status(state, 0, 3) == PairStatus.OPEN


def test_rank_unrank_roundtrip():
    for n in range(2, 65):
        state = ProcessState(n, seed=0)
        pairs = all_pairs(n)
        assert [pair_rank(state, u, v) for u, v in pairs] == list(range(len(pairs)))
        assert [unrank(state, r) for r in range(len(pairs))] == pairs
    state = ProcessState(2000, seed=0)
    total = state.total_pairs
    rng = random.Random(5)
    for rank in [0, total - 1] + [rng.randrange(total) for _ in range(10_000)]:
        u, v = unrank(state, rank)
        assert 0 <= u < v < 2000
        assert pair_rank(state, u, v) == rank


def table_unrank(n, rank):
    """The decode that `step` and the sampler write out, test-side."""
    rows, rowbase = _rowblocks(n), _rowbase(n)
    u = rows[rank >> 6]
    while rank - rowbase[u] >= n:
        u += 1
    return u, rank - rowbase[u]


def test_row_table_decode_matches_unrank():
    # below n = 66 every row is shorter than a block, so blocks span rows
    for n in [*range(2, 121), 1200]:
        state = ProcessState(n, seed=0)
        total = state.total_pairs
        assert len(_rowblocks(n)) == (total + 63) // 64
        bad = next((r for r in range(total) if table_unrank(n, r) != unrank(state, r)), None)
        assert bad is None, (n, bad)


class BoundedRandom(random.Random):
    """Raises instead of drawing forever when no drawn position is kept."""

    def getrandbits(self, k):
        self.draws = getattr(self, "draws", 0) + 1
        if self.draws > 1000:
            raise RuntimeError("no drawn position held an OPEN pair")
        return super().getrandbits(k)


@pytest.mark.parametrize("n", [8, 12, 40, 70])
def test_step_and_sampler_decode_every_rank(n):
    # an index of copies of one rank: `step` must insert its pair, and
    # each sampler loop must keep it with its |Y|
    state = ProcessState(n, seed=n).run(Steps(n))
    ranks = range(state.total_pairs)
    opened = [r for r in ranks if pair_status(state, *unrank(state, r)) == PairStatus.OPEN]
    assert 0 < len(opened) < len(ranks)
    for r in opened:
        pair = unrank(state, r)
        expected = (partial_vertex_counts(state, [pair])[0], 1)
        for copies in (1, 22):  # the pool head, then the getrandbits loop
            assert sample_pools(copies, 1) == (copies == 1)
            state._open = array("I", [r] * copies)
            assert state.partial_vertex_total(1, BoundedRandom(r)) == expected, (r, copies)
    fresh = ProcessState(n, seed=0)
    for r in ranks:
        fresh.restart()
        fresh._open = range(r, r + 1)
        assert fresh.step().chosen == unrank(fresh, r), r


def test_pair_status_argument_errors():
    state = ProcessState(4, seed=1)
    with pytest.raises(ValueError):
        pair_status(state, 2, 2)
    with pytest.raises(ValueError):
        pair_status(state, 0, 4)
    with pytest.raises(ValueError):
        pair_status(state, -1, 2)


def test_open_pair_count_after_one_step():
    state = ProcessState(4, seed=3)
    state.step()
    assert state.open_pairs == 5  # one edge, nothing closed yet


@pytest.mark.parametrize("n, seed", [(60, 4), (300, 9)])
def test_index_is_rebuilt_past_three_open_counts_plus_n(monkeypatch, n, seed):
    # a step rebuilds the lazy index first thing iff it holds more than
    # 3Q + n ranks; other rebuilds come only after more misses than it has
    # positions, so only once Q is small.  A due rebuild emits under a
    # third of the ranks before it, so a run emits at most
    # (total + n x rebuilds) / 2 ranks; at 2Q + n it would be about total.
    state = ProcessState(n, seed)
    rng = state._rng
    draws = 0

    def counting_getrandbits(k):
        nonlocal draws
        draws += 1
        return random.Random.getrandbits(rng, k)

    rng.getrandbits = counting_getrandbits
    due_steps = 0
    step_start = 0
    rebuilds = []  # (first thing in its step, ranks before, Q, ranks emitted)
    step, compact = ProcessState.step, ProcessState._compact

    def spy_step(self):
        nonlocal due_steps, step_start
        q = self._open_count
        due_steps += q > 0 and len(self._open) > 3 * q + self.n
        step_start = draws
        return step(self)

    def spy_compact(self):
        before = len(self._open)
        index = compact(self)
        rebuilds.append((draws == step_start, before, self._open_count, len(index)))
        return index

    monkeypatch.setattr(ProcessState, "step", spy_step)
    monkeypatch.setattr(ProcessState, "_compact", spy_compact)
    assert state.run(Saturation()).open_pairs == 0
    first = [(before, q) for at_start, before, q, _ in rebuilds if at_start]
    assert len(first) == due_steps > 0
    assert all(before > 3 * q + n for before, q in first)
    assert all(emitted == q for _, _, q, emitted in rebuilds)
    emitted = sum(r[3] for r in rebuilds)
    assert emitted <= (state.total_pairs + n * len(rebuilds)) / 2


# ----------------------------------------------------------------------
# audit

def test_audit_clean_after_runs():
    state = ProcessState(30, seed=8)
    state.run(Saturation())
    report = state.audit(state.total_pairs)
    assert report.ok
    assert report.pairs_checked == state.total_pairs
    assert report.triangles == ()


def clear_open_bit(state, one_sided=False):
    """Flip one stored OPEN pair {u, v}, u < v, to CLOSED behind the
    engine's back: in both endpoints' masks, or only in v's, which a check
    reading u's side alone would miss."""
    u, v = next(
        (u, v) for u, v in all_pairs(state.n) if pair_status(state, u, v) == PairStatus.OPEN
    )
    state._open_mask[v] &= ~(1 << u)
    if not one_sided:
        state._open_mask[u] &= ~(1 << v)


def test_run_returns_on_store_with_too_few_open_pairs():
    # Q promises an open pair the masks no longer hold: stepping must end
    # (the index is rebuilt from the masks) and the audit must say so
    for n, steps in ((10, 5), (40, 100)):
        state = ProcessState(n, seed=8)
        state.run(Steps(steps))
        clear_open_bit(state)
        outcome = state.run(Saturation())
        assert outcome.open_pairs != 0
        assert outcome.open_pairs == 1
        assert not state.audit(state.total_pairs).ok


def test_audit_detects_corrupted_status():
    for one_sided in (False, True):
        state = ProcessState(10, seed=8)
        state.run(Steps(5))
        clear_open_bit(state, one_sided)
        report = state.audit(state.total_pairs)
        assert not report.ok
        assert len(report.discrepancies) == 1
        assert not report.open_count_consistent


def reference_discrepancies(state, ranks):
    """The per-pair audit loop: each pair in `ranks` compared with the
    edge log's rows under both endpoints' stored bits (test-side oracle)."""
    rows = log_rows(state)
    out = []
    for r in ranks:
        u, v = unrank(state, r)
        actual = ground_truth_status(rows, u, v)
        bits = {
            PairStatus.EDGE: (0, 1),
            PairStatus.CLOSED: (0, 0),
            PairStatus.OPEN: (1, 0),
        }[actual]
        for a, b in ((u, v), (v, u)):
            if (state._open_mask[a] >> b & 1, state._adj_mask[a] >> b & 1) != bits:
                out.append((u, v, state._stored_status(a, b), actual))
                break
    return tuple(out)


def test_audit_matches_per_pair_reference():
    n = 70  # rows past one machine word
    sampled_hits = 0
    for seed in range(5):
        state = ProcessState(n, seed=seed)
        state.run(Steps(150))
        rng = random.Random(seed)
        # flip OPEN or EDGE bits in one or both endpoints' rows
        for _ in range(200):
            u, v = rng.sample(range(n), 2)
            mask = rng.choice((state._open_mask, state._adj_mask))
            mask[u] ^= 1 << v
            if rng.random() < 0.5:
                mask[v] ^= 1 << u
        total = state.total_pairs
        report = state.audit(total)
        assert report.discrepancies
        assert report.discrepancies == reference_discrepancies(state, range(total))
        sample = random.Random(seed).sample(range(total), 17)
        sampled = state.audit(17, random.Random(seed))
        assert sampled.discrepancies == reference_discrepancies(state, sample)
        in_sample = {unrank(state, r) for r in sample}
        assert all((u, v) in in_sample for u, v, _, _ in sampled.discrepancies)
        sampled_hits += len(sampled.discrepancies)
    assert sampled_hits > 0


def test_audit_detects_planted_triangle():
    state = ProcessState(6, seed=8)
    force_step(state, 0, 1)
    force_step(state, 1, 2)
    # the log is read-only from outside: its public view has no append
    with pytest.raises(AttributeError):
        state.iter_edges().append((0, 2))
    # plant a triangle in the log's columns without telling the status store
    state._log_u.append(0)
    state._log_v.append(2)
    report = state.audit(state.total_pairs)
    assert report.triangles == ((0, 1, 2),)  # once, not once per edge


def test_audit_lists_each_triangle_on_a_shared_edge():
    state = ProcessState(6, seed=8)
    # two triangles on the edge (0, 1), logged without the status store
    for u, v in ((0, 1), (1, 2), (0, 2), (0, 3), (1, 3)):
        state._log_u.append(u)
        state._log_v.append(v)
    report = state.audit(state.total_pairs)
    assert report.triangles == ((0, 1, 2), (0, 1, 3))


def test_audit_sampling_subset():
    state = ProcessState(40, seed=8)
    state.run(Steps(30))
    report = state.audit(17, rng=random.Random(1))
    assert report.pairs_checked == 17
    assert report.ok
    with pytest.raises(ValueError, match="needs an rng"):
        state.audit(17)  # a sample has no hidden seed


# ----------------------------------------------------------------------
# open-pair sampling

def stale_index_state():
    """n = 8 with eight forced edges: the index is still range(28), and
    most of its entries are no longer OPEN."""
    state = ProcessState(8, seed=4)
    for u, v in ((0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (1, 4), (6, 7), (2, 7)):
        force_step(state, u, v)
    assert state._open == range(state.total_pairs)
    return state


def partial_vertex_counts(state, pairs):
    """|Y| of each open pair, as the sum of its two one-sided counts."""
    adj, opn = state.edge_masks, state.open_masks
    return [(adj[u] & opn[v]).bit_count() + (adj[v] & opn[u]).bit_count() for u, v in pairs]


def test_sample_open_pairs_on_stale_index():
    # any count below Q keeps that many pairs, whose |Y| sum lies between
    # those of the count smallest and largest; count >= Q sums them all
    state = stale_index_state()
    open_pairs = [p for p in all_pairs(8) if pair_status(state, *p) == PairStatus.OPEN]
    ys = sorted(partial_vertex_counts(state, open_pairs))
    q = state.open_pairs
    assert len(ys) == q < state.total_pairs // 2
    rng = random.Random(3)
    for count in range(q):
        for _ in range(20):
            total, sampled = state.partial_vertex_total(count, rng)
            assert sampled == count
            assert sum(ys[:count]) <= total <= sum(ys[q - count:])
    for count in (q, q + 1, 100):
        assert state.partial_vertex_total(count, rng) == (sum(ys), q)
    assert state._open == range(state.total_pairs)  # read, never rebuilt


def reference_sample_open_pairs(state, count, rng):
    """The open pairs a checkpoint samples, drawn with `rng.sample`,
    `randrange` and `unrank` (test-side reference)."""
    index = state._open
    open_mask = state._open_mask
    if count >= state.open_pairs:
        pairs = (unrank(state, r) for r in index)
        return [(u, v) for u, v in pairs if open_mask[u] >> v & 1]
    length = len(index)
    positions = rng.sample(range(length), min(count, length))
    out = []
    for i in positions:
        u, v = unrank(state, index[i])
        if open_mask[u] >> v & 1:
            out.append((u, v))
    if len(out) < count:
        seen = set(positions)
        while len(out) < count and len(seen) < length:
            i = rng.randrange(length)
            if i not in seen:
                seen.add(i)
                u, v = unrank(state, index[i])
                if open_mask[u] >> v & 1:
                    out.append((u, v))
    return out


def assert_total_matches_reference(state, count, seed):
    a = random.Random(seed)
    b = random.Random(seed)
    pairs = reference_sample_open_pairs(state, count, a)
    expected = (sum(partial_vertex_counts(state, pairs)), len(pairs))
    where = (state.n, state.steps, len(state._open), count)
    assert state.partial_vertex_total(count, b) == expected, where
    assert a.getstate() == b.getstate(), where


def assert_sampler_matches_reference(state, seed):
    q = state.open_pairs
    for count in sorted({0, 1, 2, 5, 12, 200, max(q - 1, 0), q, q + 1}):
        assert_total_matches_reference(state, count, seed * 31 + count)


@pytest.mark.parametrize("n", [4, 7, 12, 30, 150])
def test_sample_open_pairs_matches_reference_over_a_run(n):
    # the |Y| sum, the number of pairs and the RNG's end state; every step
    # but the early ones at n = 150, where count >= Q walks a long index;
    # the late ones reach Random.sample's pool branch
    def check(s, _):
        if s.n <= 30 or s.steps % 50 == 0 or s.open_pairs < 400:
            assert_sampler_matches_reference(s, s.steps)

    state = ProcessState(n, seed=n)
    assert_sampler_matches_reference(state, 0)
    state.run(on_step=check)
    assert state.open_pairs == 0


def test_partial_vertex_total_matches_sample_then_randrange():
    # Random.sample keeps a pool at or below 21 (+ 4^ceil(log4(3 count))
    # for count > 5) positions and a set above.  The index is set to
    # every open rank plus as many stale ones, shuffled, for lengths at
    # and just past that threshold and a few beyond; a Python that draws
    # otherwise fails here before checkpoints.csv moves.
    for count, threshold in ((1, 21), (5, 21), (6, 85), (12, 85), (200, 1045)):
        for length in (threshold, threshold + 1, 2 * threshold, 8 * threshold):
            assert sample_pools(length, count) == (length == threshold)
            state = ProcessState(130, seed=count)  # 8385 pairs
            while 2 * state.open_pairs > length:  # about half the index is stale
                state.step()
            assert count < state.open_pairs
            open_ranks = [
                pair_rank(state, *p)
                for p in all_pairs(130)
                if pair_status(state, *p) == PairStatus.OPEN
            ]
            stale = sorted(set(range(state.total_pairs)) - set(open_ranks))
            index = open_ranks + stale[: length - len(open_ranks)]
            random.Random(length).shuffle(index)
            state._open = array("I", index)
            for seed in range(5):
                assert_total_matches_reference(state, count, length * 1009 + seed)


def test_sample_open_pairs_matches_reference_on_stale_index():
    state = stale_index_state()
    assert_sampler_matches_reference(state, 1)
    state = ProcessState(30, seed=2)
    state.run(Steps(40))
    pairs = combinations(range(30), 2)
    force_step(state, *next(p for p in pairs if pair_status(state, *p) == PairStatus.OPEN))
    ranks = state._open
    for seed in range(20):
        assert_sampler_matches_reference(state, seed)
    assert state._open is ranks  # read, never rebuilt


def test_sample_open_pairs_is_uniform():
    # one pair per draw: each |Y| value turns up as often as its share
    # among the open pairs, within 4 sigma
    state = stale_index_state()
    open_pairs = [p for p in all_pairs(8) if pair_status(state, *p) == PairStatus.OPEN]
    shares = Counter(partial_vertex_counts(state, open_pairs))
    assert len(shares) > 1
    trials = 20_000
    hits = Counter(state.partial_vertex_total(1, random.Random(seed)) for seed in range(trials))
    assert set(hits) <= {(y, 1) for y in shares}
    for y, share in shares.items():
        p = share / len(open_pairs)
        sigma = (p * (1 - p) / trials) ** 0.5
        assert abs(hits[y, 1] / trials - p) <= 4 * sigma, y


# ----------------------------------------------------------------------
# reproducibility

def test_same_seed_reproduces_edge_log():
    a = ProcessState(40, seed=123)
    b = ProcessState(40, seed=123)
    a.run(Saturation())
    b.run(Saturation())
    assert edge_list(a) == edge_list(b)


@pytest.mark.parametrize(
    "n, seed, steps, digest",
    [
        (60, 2, 426, "e3835ef66eb6c865b636ed46098e7b5e516ab825b162f533b95fe46fab7e517c"),
        (500, 11, 11863, "007191e796ca917b73f59fa3ad526169d95807b03828fd26c75abe4e52bda032"),
    ],
    ids=["60-2", "500-11"],
)
def test_edge_sequence_is_pinned(n, seed, steps, digest):
    # the draw's exact stream: any change to it breaks every recorded run
    state = ProcessState(n, seed)
    assert state.run(Saturation()).open_pairs == 0
    text = "".join(f"{u} {v}\n" for u, v in state.iter_edges())
    assert state.steps == steps
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("n", [2, 5, 30])
def test_restart_returns_to_a_fresh_state(n):
    state = ProcessState(n, seed=8)
    assert state.run(Saturation()).open_pairs == 0
    state.restart()
    fresh = ProcessState(n, seed=8)
    # every field but the RNG, which runs on; type and typecode too, since
    # arrays of two typecodes compare equal by value
    for name, value in vars(fresh).items():
        if name != "_rng":
            kept = getattr(state, name)
            assert type(kept) is type(value), name
            assert getattr(kept, "typecode", None) == getattr(value, "typecode", None), name
            assert kept == value, name
    # the next run is a fresh state's run from the same point of the stream
    fresh._rng.setstate(state._rng.getstate())
    assert edge_list(state.run(Saturation())) == edge_list(fresh.run(Saturation()))
    assert state.open_pairs == fresh.open_pairs == 0


def test_different_seeds_diverge():
    a = ProcessState(40, seed=123)
    b = ProcessState(40, seed=124)
    a.run(Saturation())
    b.run(Saturation())
    assert edge_list(a) != edge_list(b)


def test_stop_condition_only_truncates():
    a = ProcessState(30, seed=55)
    b = ProcessState(30, seed=55)
    a.run(Steps(10))
    b.run(Steps(25))
    assert edge_list(b)[:10] == edge_list(a)


# ----------------------------------------------------------------------
# property tests

@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 10), seed=st.integers(0, 2**63 - 1))
def test_full_run_invariants(n, seed):
    state = ProcessState(n, seed)
    total = n * (n - 1) // 2
    closed_before: set = set()
    while True:
        # pre-insertion snapshot for the closure-rule oracle
        pre_rows = log_rows(state)
        result = state.step()
        if result is None:
            break
        u, v = result.chosen

        # the inserted pair was open before: no common neighbour, not an edge
        assert u < v
        assert ground_truth_status(pre_rows, u, v) == PairStatus.OPEN

        # newly_closed must match the rule computed from pre-insertion
        # state, in order: the {v, w} with w a neighbour of u, w
        # descending, then the {u, w} with w a neighbour of v
        expected = tuple(
            tuple(sorted((x, w)))
            for x, y in ((v, u), (u, v))
            for w in reversed(range(n))
            if pre_rows[y] >> w & 1
            and ground_truth_status(pre_rows, *sorted((x, w))) == PairStatus.OPEN
        )
        assert result.newly_closed == expected

        # partition and closure soundness against the edge-log oracle
        rows = log_rows(state)
        counts = {PairStatus.OPEN: 0, PairStatus.EDGE: 0, PairStatus.CLOSED: 0}
        closed_now = set()
        for a, b in combinations(range(n), 2):
            stored = pair_status(state, a, b)
            assert stored == ground_truth_status(rows, a, b)
            counts[stored] += 1
            if stored == PairStatus.CLOSED:
                closed_now.add((a, b))
        assert sum(counts.values()) == total

        # the masks' partial vertices of every non-edge, as two disjoint
        # masks, against a loop over the edge log
        adj, opn = state.edge_masks, state.open_masks
        for a, b in combinations(range(n), 2):
            if rows[a] >> b & 1:
                continue
            reference = oracle_partial_vertices(rows, a, b)
            via_a, via_b = adj[a] & opn[b], adj[b] & opn[a]
            assert {w for w in range(n) if (via_a | via_b) >> w & 1} == reference
            assert via_a.bit_count() + via_b.bit_count() == len(reference)
        assert counts[PairStatus.OPEN] == state.open_pairs
        assert counts[PairStatus.EDGE] == state.steps

        # the lazy index holds every OPEN rank, and a rebuild exactly those
        open_ranks = {
            pair_rank(state, a, b)
            for a, b in combinations(range(n), 2)
            if pair_status(state, a, b) == PairStatus.OPEN
        }
        index = state._open
        assert {r for r in index if r in open_ranks} == open_ranks
        assert len(set(index)) == len(index)
        rebuilt = state._compact()
        assert sorted(rebuilt) == sorted(open_ranks)
        assert len(rebuilt) == state.open_pairs
        state._open = index  # keep the run's own index, stale entries and all

        # closed pairs are monotone: nothing ever leaves the closed set
        assert closed_before <= closed_now
        closed_before = closed_now

    # saturated: triangle-free and maximal
    assert state.open_pairs == 0
    report = state.audit(total)
    assert report.ok


@pytest.mark.parametrize("n", [4, 7, 12])
def test_checkpoint_y_samples_match_the_edge_log(n):
    # asked for at least Q samples, take_checkpoint measures every open
    # pair: the mean of its |Y| values and the finite-n residual of that
    # mean must be the edge-log oracle's, at every step (fmean's exact sum
    # ignores order)
    params = TrajectoryParams(n)
    for seed in range(5):
        state = ProcessState(n, seed)
        while True:
            rows = log_rows(state)
            expected = sorted(
                len(oracle_partial_vertices(rows, a, b))
                for a, b in all_pairs(n)
                if ground_truth_status(rows, a, b) == PairStatus.OPEN
            )
            count = state.open_pairs + seed % 2
            cp = take_checkpoint(state, params, count, random.Random(seed))
            if expected:
                assert cp.y_mean == fmean(expected)
                residual = abs(cp.y_mean / cp.y_fin - 1.0) if cp.y_fin > 0.0 else None
                assert cp.rel_y_fin == residual
            else:
                assert cp.y_mean is None and cp.rel_y_fin is None
            if state.step() is None:
                break


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 12), seed=st.integers(0, 2**32))
def test_open_count_strictly_decreases(n, seed):
    state = ProcessState(n, seed)
    previous = state.open_pairs
    while (result := state.step()) is not None:
        assert state.open_pairs <= previous - 1
        assert state.open_pairs == previous - 1 - len(result.newly_closed)
        previous = state.open_pairs
