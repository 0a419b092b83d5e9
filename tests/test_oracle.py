"""Tests for exhaustive enumeration, the transformation moves, and hill climbing."""

import random
from itertools import islice

import pytest

from zagrebmax import oracle as orc
from zagrebmax import sequences as sq
from zagrebmax import (
    CapExceededError,
    DegreeSequence,
    DomainError,
    EdgeSwap,
    NeighborTransfer,
    SimpleGraph,
    apply_edge_swap,
    apply_neighbor_transfer,
    build_glued_cycles_with_paths,
    degree_sequence_of,
    enumerate_realizations,
    hill_climb,
    is_connected,
    local_search,
    search_max_m2,
    second_zagreb,
)
from helpers import (
    SEVEN_VERTEX_BETTER,
    SEVEN_VERTEX_GREEDY,
    brute_force_buckets,
    valid_swaps,
)


def cycle(n):
    return SimpleGraph(n, [(i, i % n + 1) for i in range(1, n + 1)])


# --- enumeration ---------------------------------------------------------------


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_realizations(DegreeSequence((2, 2, 2)))) == 1
    assert (
        sum(1 for _ in enumerate_realizations(DegreeSequence((1, 1, 1, 1)), connected_only=False))
        == 3
    )
    assert (
        sum(1 for _ in enumerate_realizations(DegreeSequence((1, 1, 1, 1)), connected_only=True))
        == 0
    )
    assert sum(1 for _ in enumerate_realizations(DegreeSequence((2, 2, 1, 1)))) == 12


def test_enumeration_yields_each_graph_once_with_right_degrees():
    seq = DegreeSequence((3, 2, 2, 2, 1))
    graphs = list(enumerate_realizations(seq, connected_only=False))
    assert len(set(graphs)) == len(graphs)
    for g in graphs:
        assert degree_sequence_of(g).degrees == seq.degrees
    connected = list(enumerate_realizations(seq, connected_only=True))
    assert set(connected) == {g for g in graphs if is_connected(g)}


def test_enumeration_is_deterministic():
    seq = DegreeSequence((3, 3, 2, 2, 2, 2))
    first = [g.edges for g in enumerate_realizations(seq)]
    second = [g.edges for g in enumerate_realizations(seq)]
    assert first == second


def test_enumeration_matches_brute_force_n5():
    buckets = brute_force_buckets(5)
    seq = DegreeSequence((3, 2, 2, 2, 1))
    total, connected = buckets[seq.degrees]
    assert sum(1 for _ in enumerate_realizations(seq, connected_only=False)) == total
    assert sum(1 for _ in enumerate_realizations(seq, connected_only=True)) == connected


def test_enumeration_isomorphism_reduction():
    # 12 labeled paths on 4 vertices collapse to a single class
    seq = DegreeSequence((2, 2, 1, 1))
    reduced = list(enumerate_realizations(seq, isomorphism_reduce=True))
    assert len(reduced) == 1
    # (3,3,2,2,2,2): a theta, a path-joined pair, and their one-cycle kin
    classes = list(
        enumerate_realizations(DegreeSequence((3, 3, 2, 2, 2, 2)), isomorphism_reduce=True)
    )
    assert 1 < len(classes) < 54
    forms = {tuple(g.edges) for g in classes}
    assert len(forms) == len(classes)


def test_enumeration_guards():
    with pytest.raises(CapExceededError):
        next(enumerate_realizations(DegreeSequence((2,) * 11)))
    with pytest.raises(DomainError):
        next(enumerate_realizations(DegreeSequence((3, 3, 1, 1))))
    # a raised cap is honored
    raised = enumerate_realizations(DegreeSequence((2,) * 11), cap=11)
    assert next(raised).n == 11


# --- the oracle -----------------------------------------------------------------


def test_oracle_examples():
    res = search_max_m2(DegreeSequence((4, 2, 2, 2, 2)))
    assert res.max_m2 == 40 and res.realization_count == 3
    res = search_max_m2(DegreeSequence((2, 2, 2, 2, 2)))
    assert res.max_m2 == 20 and res.realization_count == 12
    res = search_max_m2(DegreeSequence.parse("4,4,3,3,2,1,1"))
    assert res.max_m2 == 87


def test_oracle_counterexample_result_and_single_validation(monkeypatch):
    calls = []
    original = sq._erdos_gallai

    def counting(d):
        calls.append(len(d))
        return original(d)

    monkeypatch.setattr(sq, "_erdos_gallai", counting)
    monkeypatch.setattr(orc, "_erdos_gallai", counting)
    res = search_max_m2(DegreeSequence.parse("4,4,3,3,2,1,1"))
    assert res.max_m2 == 87
    assert res.witness == SEVEN_VERTEX_BETTER
    assert res.realization_count == 38
    # the search prunes on residual tails (length < n); the full
    # sequence itself is checked once
    assert calls.count(7) == 1 and len(calls) > 1


def test_oracle_witness_is_sound():
    seq = DegreeSequence((3, 3, 2, 2, 2, 2))
    res = search_max_m2(seq)
    assert degree_sequence_of(res.witness).degrees == seq.degrees
    assert is_connected(res.witness)
    assert second_zagreb(res.witness) == res.max_m2
    # no connected realization beats the reported maximum
    assert all(
        second_zagreb(g) <= res.max_m2 for g in enumerate_realizations(seq)
    )


def test_oracle_empty_space_reported_distinctly():
    with pytest.raises(DomainError, match="no connected realization"):
        search_max_m2(DegreeSequence((1, 1, 1, 1)))


def test_oracle_cap():
    with pytest.raises(CapExceededError):
        search_max_m2(DegreeSequence((2,) * 12))


def test_oracle_determinism_across_workers():
    for text in ("3,3,2,2,2,2", "4,3,2,2,2,2,1"):
        seq = DegreeSequence.parse(text)
        results = [search_max_m2(seq, workers=w) for w in (1, 2, 5)]
        assert len({(r.max_m2, r.realization_count, r.witness.edges) for r in results}) == 1


# --- edge swaps -----------------------------------------------------------------


def test_swap_rejects_duplicate_edge_creation():
    p4 = SimpleGraph(4, [(1, 2), (2, 3), (3, 4)])
    with pytest.raises(DomainError):
        apply_edge_swap(p4, EdgeSwap(v1=2, u1=1, v2=3, u2=4))


def test_swap_equal_degrees_keeps_index():
    c6 = cycle(6)
    swapped = apply_edge_swap(c6, EdgeSwap(v1=1, u1=2, v2=4, u2=5))
    assert second_zagreb(c6) == 24 and second_zagreb(swapped) == 24
    assert degree_sequence_of(swapped).degrees == degree_sequence_of(c6).degrees


def test_swap_gain_matches_recomputation_everywhere():
    for g in (SEVEN_VERTEX_GREEDY, SEVEN_VERTEX_BETTER, cycle(6)):
        before = second_zagreb(g)
        for move, gain in valid_swaps(g):
            after = second_zagreb(apply_edge_swap(g, move))
            assert after - before == gain


def test_two_swaps_connect_the_seven_vertex_pair():
    # the intermediate is disconnected, which a raw swap permits
    h = apply_edge_swap(SEVEN_VERTEX_GREEDY, EdgeSwap(3, 6, 4, 7))
    assert not is_connected(h)
    h2 = apply_edge_swap(h, EdgeSwap(6, 7, 2, 5))
    assert h2 == SEVEN_VERTEX_BETTER


def test_swap_validation():
    g = cycle(6)
    with pytest.raises(DomainError):
        apply_edge_swap(g, EdgeSwap(1, 2, 2, 3))  # not distinct
    with pytest.raises(DomainError):
        apply_edge_swap(g, EdgeSwap(1, 3, 4, 5))  # (1,3) absent
    with pytest.raises(DomainError):
        apply_edge_swap(g, EdgeSwap(2, 1, 3, 4))  # adds present (2,3)


# --- neighbor transfers -----------------------------------------------------------


def test_transfer_between_star_centers_increases_index():
    g = SimpleGraph(7, [(1, 2), (1, 3), (1, 4), (1, 5), (5, 6), (5, 7)])
    before = second_zagreb(g)
    g2 = apply_neighbor_transfer(g, NeighborTransfer(u=1, v=5, moved=(6,)))
    assert second_zagreb(g2) > before
    degs = degree_sequence_of(g).degrees
    assert sorted(g2.degrees()[1:]) != sorted(degs)  # degrees moved by +-1


def test_transfer_empty_is_identity():
    g = cycle(5)
    assert apply_neighbor_transfer(g, NeighborTransfer(1, 3, ())) is g


def test_transfer_changes_exactly_two_degrees():
    g = build_glued_cycles_with_paths(3, 3, [2, 2])
    move = NeighborTransfer(u=1, v=6, moved=(7,))
    g2 = apply_neighbor_transfer(g, move)
    before, after = g.degrees(), g2.degrees()
    changed = {v for v in range(1, g.n + 1) if before[v] != after[v]}
    assert changed == {1, 6}
    assert after[1] == before[1] + 1 and after[6] == before[6] - 1
    assert second_zagreb(g2) > second_zagreb(g)


def test_transfer_validation():
    g = cycle(6)
    with pytest.raises(DomainError):
        apply_neighbor_transfer(g, NeighborTransfer(1, 1, (2,)))
    with pytest.raises(DomainError):
        apply_neighbor_transfer(g, NeighborTransfer(1, 3, (5,)))  # 5 not nbr of 3
    with pytest.raises(DomainError):
        apply_neighbor_transfer(g, NeighborTransfer(1, 3, (2,)))  # 2 already nbr of 1
    with pytest.raises(DomainError):
        apply_neighbor_transfer(g, NeighborTransfer(1, 3, (4, 4)))  # duplicate


# --- hill climbing ------------------------------------------------------------------


def test_cycle_is_locally_optimal():
    c6 = cycle(6)
    assert local_search(c6) == c6
    assert all(gain <= 0 for _, gain in valid_swaps(c6))


def test_oracle_witnesses_are_locally_optimal():
    for text in ("4,2,2,2,2", "3,3,2,2,2,2", "4,3,2,2,2,2,1"):
        witness = search_max_m2(DegreeSequence.parse(text)).witness
        assert local_search(witness) == witness


def test_greedy_seven_vertex_graph_is_a_constrained_local_optimum():
    # The only index-raising swap isolates the two leaves, so the
    # connectivity-preserving climb cannot leave the graph, even though a
    # better connected realization exists (found by the oracle).
    improving = [(mv, gain) for mv, gain in valid_swaps(SEVEN_VERTEX_GREEDY) if gain > 0]
    assert len(improving) == 1
    assert not is_connected(apply_edge_swap(SEVEN_VERTEX_GREEDY, improving[0][0]))
    final, moves = hill_climb(SEVEN_VERTEX_GREEDY)
    assert moves == [] and final == SEVEN_VERTEX_GREEDY
    assert search_max_m2(DegreeSequence.parse("4,4,3,3,2,1,1")).max_m2 == 87


def test_hill_climb_monotone_and_terminal():
    rng = random.Random(11)
    seq = DegreeSequence((3, 3, 2, 2, 1, 1))
    pool = list(enumerate_realizations(seq))
    for g in rng.sample(pool, 12):
        final, moves = hill_climb(g)
        assert second_zagreb(final) >= second_zagreb(g)
        assert degree_sequence_of(final).degrees == seq.degrees
        assert is_connected(final)
        for move, gain in valid_swaps(final):
            if gain > 0:
                assert not is_connected(apply_edge_swap(final, move))


def test_hill_climb_finds_improvements():
    # the long-legged spider of (3,2,2,1,1,1) is beaten by the short-legged one
    worst = SimpleGraph(6, [(1, 2), (1, 3), (1, 4), (4, 5), (5, 6)])
    final, moves = hill_climb(worst)
    assert second_zagreb(final) > second_zagreb(worst)
    assert len(moves) >= 1
