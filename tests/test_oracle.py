"""Tests for exhaustive enumeration, the branch-and-bound oracle, the
transformation moves, and hill climbing."""

import random
import re
import sys
from itertools import combinations, combinations_with_replacement, permutations

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
    canonical_form,
    degree_sequence_of,
    enumerate_realizations,
    hill_climb,
    is_connected,
    search_max_m2,
    second_zagreb,
)
from helpers import (
    Incumbent,
    SEVEN_VERTEX_BETTER,
    SEVEN_VERTEX_GREEDY,
    brute_force_buckets,
    brute_force_maxima,
    hill_climb_reference,
    iso_reduced_over_all_assignments,
    iso_reduced_unpruned,
    iter_edges_by_combinations,
    random_connected_graph,
    search_unpruned,
    twin_combinations,
    valid_swaps,
)
from zagrebmax.sequences import (
    MajorizationOrder,
    connected_realizable_sequences,
    majorization_compare,
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
    # (3,3,2,2,2,2): the three thetas (paths of 3, 1, 0 / 2, 2, 0 / 2, 1, 1
    # inner vertices) and two triangles joined by an edge
    classes = list(
        enumerate_realizations(DegreeSequence((3, 3, 2, 2, 2, 2)), isomorphism_reduce=True)
    )
    assert len(classes) == 4
    assert len({canonical_form(g) for g in classes}) == 4


def test_isomorphism_reduction_matches_the_walk_over_all_assignments():
    # same representatives in the same order as walking every assignment
    for n in range(2, 7):
        for c in range(-1, 4):
            for seq in connected_realizable_sequences(n, c):
                got = [g.edges for g in enumerate_realizations(seq, isomorphism_reduce=True)]
                want = [g.edges for g in iso_reduced_over_all_assignments(seq)]
                assert got == want, seq.degrees


def test_twin_pruned_iso_reduction_matches_the_unpruned_walk():
    # the same representatives in the same order as the walk without twin
    # pruning: every connected class with n <= 7, and every class, connected
    # or not, of each graphic sequence of positive degrees with n <= 6
    classes = 0
    for n in range(2, 8):
        for c in range(-1, n * (n - 1) // 2 - n + 1):
            for seq in connected_realizable_sequences(n, c):
                got = [g.edges for g in enumerate_realizations(seq, isomorphism_reduce=True)]
                assert got == iso_reduced_unpruned(seq), seq.degrees
                classes += len(got)
    assert classes == 1 + 2 + 6 + 21 + 112 + 853
    for n in range(2, 7):
        for degrees in combinations_with_replacement(range(n - 1, 0, -1), n):
            if not sq.is_graphic(degrees):
                continue
            seq = DegreeSequence(degrees)
            got = [
                g.edges
                for g in enumerate_realizations(
                    seq, connected_only=False, isomorphism_reduce=True
                )
            ]
            assert got == iso_reduced_unpruned(seq, connected_only=False), degrees


@pytest.mark.slow
def test_twin_pruned_iso_reduction_matches_the_unpruned_walk_at_n8():
    # every connected class with n = 8 and excess -1..4; the unpruned
    # reference takes about 17 s
    checked = classes = 0
    for c in range(-1, 5):
        for seq in connected_realizable_sequences(8, c):
            got = [g.edges for g in enumerate_realizations(seq, isomorphism_reduce=True)]
            assert got == iso_reduced_unpruned(seq), seq.degrees
            checked += 1
            classes += len(got)
    assert (checked, classes) == (203, 2817)


def _transposed(edges, j, k):
    swap = {j: k, k: j}
    return tuple(sorted(tuple(sorted((swap.get(u, u), swap.get(v, v)))) for u, v in edges))


def test_swap_test_drops_only_leaves_that_are_not_first_up_to_n7():
    # at every leaf of the twin walk, the bitmask test says whether a
    # transposition of two equal targets sorts the edge list lower, and no
    # leaf it drops is the first of its class by canonical form
    leaves = dropped = 0
    for n in range(2, 8):
        for c in range(-1, 5):
            for seq in connected_realizable_sequences(n, c):
                targets = seq.degrees
                pairs = [(j, k) for j, k in combinations(range(n), 2) if targets[j] == targets[k]]
                swaps = orc._swap_pairs(targets)
                seen = set()
                walk = orc._Walk(targets, True, twins=True)
                for edges in walk:
                    drop = orc._swap_is_smaller(walk.adj, swaps)
                    smaller = any(_transposed(edges, j, k) < edges for j, k in pairs)
                    assert drop == smaller, (targets, edges)
                    form = canonical_form(SimpleGraph(n, [(u + 1, v + 1) for u, v in edges]))
                    assert not drop or form in seen, (targets, edges)
                    seen.add(form)
                    leaves += 1
                    dropped += drop
    assert (leaves, dropped) == (1252, 579)


def test_iso_reduction_takes_forms_only_where_a_class_can_repeat(monkeypatch):
    # the n = 6, 7 sequences with excess -1..3: of 854 twin-walk leaves, 472
    # pass the swap test and are built, and 255 canonical forms separate
    # their 430 classes
    calls = {"forms": 0, "graphs": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(orc, "canonical_form", counted("forms", orc.canonical_form))
    monkeypatch.setattr(orc, "SimpleGraph", counted("graphs", orc.SimpleGraph))
    classes = sum(
        1
        for n in (6, 7)
        for c in range(-1, 4)
        for seq in connected_realizable_sequences(n, c)
        for _ in enumerate_realizations(seq, isomorphism_reduce=True)
    )
    assert (classes, calls["graphs"], calls["forms"]) == (430, 472, 255)


def test_twin_combinations_are_the_prefix_respecting_subsets():
    # the reference walk's subset generator, against filtering every subset:
    # a class member may be taken only if the member before it is
    rng = random.Random(9)
    for _ in range(300):
        m = rng.randint(1, 9)
        labels = [rng.randint(0, 3) for _ in range(m)]
        pred = [
            max((q for q in range(p) if labels[q] == labels[p]), default=-1)
            for p in range(m)
        ]
        cand = sorted(rng.sample(range(20), m))
        for k in range(1, m + 1):
            want = [
                tuple(cand[p] for p in combo)
                for combo in combinations(range(m), k)
                if all(pred[p] < 0 or pred[p] in combo for p in combo)
            ]
            assert list(twin_combinations(cand, k, pred)) == want, (labels, k)


def _assert_same_walk(targets, modes, with_incumbent):
    for connected_only, twins in modes:
        got = list(orc._Walk(targets, connected_only, twins=twins))
        want = list(iter_edges_by_combinations(targets, connected_only, twins=twins))
        assert got == want, (targets, connected_only, twins)
    if not with_incumbent:
        return
    for connected_only in (False, True):
        for twins in (False, True):
            walk, b = orc._Walk(targets, connected_only, True, twins), Incumbent()
            want = list(iter_edges_by_combinations(targets, connected_only, b, twins))
            assert (list(walk), walk.nodes, walk.m2) == (want, b.nodes, b.m2), (
                targets,
                connected_only,
                twins,
            )


def test_walk_matches_the_walk_by_whole_combinations_on_every_assignment():
    # the same edge stream, and with an incumbent the same nodes and maximum,
    # as the walk that built each row as one combination, in every mode; the
    # incumbent needs non-increasing targets, so it runs on the sorted
    # assignment only
    every_mode = [(c, t) for c in (False, True) for t in (False, True)]
    for n in range(1, 7):
        for degrees in combinations_with_replacement(range(n - 1, 0, -1), n):
            if sq.is_graphic(degrees):
                for targets in orc._distinct_assignments(degrees):
                    _assert_same_walk(targets, every_mode, targets == degrees)


def test_walk_matches_the_walk_by_whole_combinations_up_to_n9():
    # plain enumeration of these n = 9 sequences yields over a million
    # graphs, so only the twin modes and the incumbent walks run here
    checked = 0
    for n in range(7, 10):
        for c in range(-1, 4):
            for seq in connected_realizable_sequences(n, c):
                _assert_same_walk(seq.degrees, [(False, True), (True, True)], True)
                checked += 1
    assert checked == 437


def test_search_depth_is_rows_plus_one_row():
    # K_60: 60 search nodes, one per row and the leaf.  The stack holds a
    # frame per row and per edge of the current row; a frame per placed edge
    # (1,770 here) would pass the interpreter's recursion limit
    res = search_max_m2(DegreeSequence.parse("59^60"), cap=60)
    assert res.nodes == 60
    assert res.max_m2 == 59 * 59 * 60 * 59 // 2


def test_walk_past_the_recursion_limit_is_a_cap_error():
    # the walk recurses once per row: C_1500 passes Python's default limit
    # of 1,000 frames, and both entry points refuse it like an input over
    # the cap.  C_400 is still answered inside pytest's deeper stack
    cycle = DegreeSequence.parse("2^1500")
    message = "^n = 1500: the search recurses once per row, past Python's"
    with pytest.raises(CapExceededError, match=message):
        search_max_m2(cycle, cap=1500)
    with pytest.raises(CapExceededError, match=message):
        next(enumerate_realizations(cycle, cap=1500))
    res = search_max_m2(DegreeSequence.parse("2^400"), cap=400)
    assert (res.max_m2, res.nodes) == (1600, 400)


def test_walk_run_to_its_end_restores_its_state():
    # every placement is undone on the way back, in every mode
    flags = (False, True)
    every_mode = [(c, b, t) for c in flags for b in flags for t in flags]
    checked = 0
    for n in range(1, 8):
        for c in range(-1, n * (n - 1) // 2 - n + 1):
            for seq in connected_realizable_sequences(n, c):
                for connected_only, bound, twins in every_mode:
                    walk = orc._Walk(seq.degrees, connected_only, bound, twins)
                    for _ in walk:
                        pass
                    assert walk.res == list(seq.degrees), seq.to_text()
                    assert walk.adj == [0] * n and walk.edges == [], seq.to_text()
                checked += 1
    assert checked == 332


def test_distinct_assignments_match_the_permutation_set():
    # every degree multiset with n = 1..7 and degrees in 1..n-1
    for n in range(1, 8):
        for degrees in combinations_with_replacement(range(n - 1, 0, -1), n):
            want = sorted(set(permutations(degrees)), reverse=True)
            assert list(orc._distinct_assignments(degrees)) == want, degrees


def test_isomorphism_classes_count_the_connected_graphs():
    # connected graphs on n = 2..7 vertices up to isomorphism (OEIS A001349)
    counts = []
    for n in range(2, 8):
        counts.append(
            sum(
                1
                for c in range(-1, n * (n - 1) // 2 - n + 1)
                for seq in connected_realizable_sequences(n, c)
                for _ in enumerate_realizations(seq, isomorphism_reduce=True)
            )
        )
    assert counts == [1, 2, 6, 21, 112, 853]


def test_enumeration_guards():
    with pytest.raises(CapExceededError):
        next(enumerate_realizations(DegreeSequence((2,) * 11)))
    with pytest.raises(DomainError):
        next(enumerate_realizations(DegreeSequence((3, 3, 1, 1))))
    # a raised cap is honored
    raised = enumerate_realizations(DegreeSequence((2,) * 11), cap=11)
    assert next(raised).n == 11


@pytest.mark.parametrize("raw", ["abc", "4"])
def test_library_reads_no_cap_variable(raw, monkeypatch):
    # only the CLI reads ZAGREBMAX_ORACLE_CAP; a library call takes its cap
    # argument, whose default is DEFAULT_CAP (10), whatever the environment
    monkeypatch.setenv("ZAGREBMAX_ORACLE_CAP", raw)
    seq = DegreeSequence((4, 2, 2, 2, 2))
    assert search_max_m2(seq).max_m2 == 40
    assert len(list(enumerate_realizations(seq))) == 15
    eleven = DegreeSequence((2,) * 11)
    for call in (search_max_m2, lambda s: next(enumerate_realizations(s))):
        with pytest.raises(CapExceededError, match="exceeds the enumeration cap 10$"):
            call(eleven)


# --- the oracle -----------------------------------------------------------------


def labeled_count(seq):
    """Connected realizations under the canonical assignment d(v_i) = d_i."""
    return sum(1 for _ in orc._Walk(seq.degrees, True))


def test_oracle_examples():
    seq = DegreeSequence((4, 2, 2, 2, 2))
    assert search_max_m2(seq).max_m2 == 40 and labeled_count(seq) == 3
    seq = DegreeSequence((2, 2, 2, 2, 2))
    assert search_max_m2(seq).max_m2 == 20 and labeled_count(seq) == 12
    res = search_max_m2(DegreeSequence.parse("4,4,3,3,2,1,1"))
    assert res.max_m2 == 87


def test_oracle_counterexample_result_and_single_validation(monkeypatch):
    calls = []
    original = sq._erdos_gallai

    def counting(d):
        calls.append(len(d))
        return original(d)

    # patch every zagrebmax module that binds the check, not only its home
    for name, module in list(sys.modules.items()):
        bound = getattr(module, "_erdos_gallai", None)
        if name.split(".")[0] == "zagrebmax" and bound is original:
            monkeypatch.setattr(module, "_erdos_gallai", counting)
    seq = DegreeSequence.parse("4,4,3,3,2,1,1")
    res = search_max_m2(seq)
    assert res.max_m2 == 87
    assert res.witness == SEVEN_VERTEX_BETTER
    # the full sequence is checked once; the search runs no check of its own
    assert calls == [7]
    assert labeled_count(seq) == 38


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


@pytest.mark.parametrize("cap", ["10", 2.5])
def test_library_cap_must_be_an_integer(cap):
    seq = DegreeSequence((2, 2, 2))
    message = re.escape(f"enumeration cap {cap!r} is not an integer")
    with pytest.raises(DomainError, match=message):
        search_max_m2(seq, cap=cap)
    with pytest.raises(DomainError, match=message):
        next(enumerate_realizations(seq, cap=cap))


def test_oracle_determinism_across_runs():
    for text in ("3,3,2,2,2,2", "4,3,2,2,2,2,1"):
        results = [search_max_m2(DegreeSequence.parse(text)) for _ in range(3)]
        assert len({(r.max_m2, r.nodes, r.witness.edges) for r in results}) == 1
        assert results[0] == results[1] == results[2]


def test_branch_and_bound_matches_exhaustive_scan():
    # the maximum and the lexicographically smallest maximal edge list, as
    # found by scoring every connected realization the enumerator yields
    checked = 0
    for n in range(2, 9):
        for c in range(-1, 4):
            for seq in connected_realizable_sequences(n, c):
                d = seq.degrees
                best_m2, best_edges = -1, None
                for edges in orc._Walk(d, True):
                    m2 = sum(d[u] * d[v] for u, v in edges)
                    if m2 > best_m2:
                        best_m2, best_edges = m2, edges
                res = search_max_m2(seq)
                assert res.max_m2 == best_m2, seq.to_text()
                want = tuple((u + 1, v + 1) for u, v in best_edges)
                assert res.witness.edges == want, seq.to_text()
                assert res.nodes > 0
                checked += 1
    assert checked == 290


def test_twin_pruned_search_matches_the_unpruned_search():
    # the same maximum and witness as the branch-and-bound without twin
    # pruning, in fewer nodes overall
    checked = nodes = unpruned_nodes = 0
    for n in range(2, 10):
        for c in range(-1, 4):
            for seq in connected_realizable_sequences(n, c):
                m2, edges, reference_nodes = search_unpruned(seq)
                res = search_max_m2(seq)
                assert (res.max_m2, res.witness.edges) == (m2, edges), seq.to_text()
                nodes += res.nodes
                unpruned_nodes += reference_nodes
                checked += 1
    assert checked == 506
    assert nodes < unpruned_nodes


def _drained_maximum(degrees):
    # the walk without a bound, twin-pruned: it still yields the
    # lexicographically smallest graph of every class, in order, so its first
    # leaf of the largest index is the lexicographically smallest maximum
    walk = orc._Walk(degrees, True, twins=True)
    best_m2, best_edges = -1, None
    for edges in walk:
        if walk.m2 > best_m2:
            best_m2, best_edges = walk.m2, edges
    return best_m2, tuple((u + 1, v + 1) for u, v in best_edges)


def _assert_search_matches_the_drained_walk(orders, excesses=range(-1, 9)):
    checked = 0
    for n in orders:
        for c in excesses:
            for seq in connected_realizable_sequences(n, c):
                res = search_max_m2(seq, cap=n)
                want = _drained_maximum(seq.degrees)
                assert (res.max_m2, res.witness.edges) == want, seq.to_text()
                checked += 1
    return checked


def test_search_matches_the_drained_walk_up_to_n9():
    # the pairing bound, leaf rule included, never cuts the first maximum
    assert _assert_search_matches_the_drained_walk(range(2, 10)) == 1893


@pytest.mark.slow
def test_search_matches_the_drained_walk_at_n10_n11():
    # the drained walk takes about 70 s at n = 10; at n = 11 it passes
    # 10^6 leaves by c = 4 and grows about 2.8x per unit of c
    assert _assert_search_matches_the_drained_walk([10]) == 1907
    assert _assert_search_matches_the_drained_walk([11], range(-1, 5)) == 720


def test_leaf_rule_needs_connected_mode_and_three_vertices():
    # 2K2 joins leaves, which only a disconnected walk may do
    assert list(orc._Walk((1, 1, 1, 1), False, bound=True)) == [((0, 1), (2, 3))]
    # K2 is two adjacent leaves; P3 is the smallest input the rule applies to
    for text, m2, edges in (("1,1", 1, ((1, 2),)), ("2,1,1", 4, ((1, 2), (1, 3)))):
        res = search_max_m2(DegreeSequence.parse(text))
        assert (res.max_m2, res.witness.edges) == (m2, edges)


def test_leaf_rule_cuts_the_hard_inputs():
    # 1,594 nodes without the leaf rule
    res = search_max_m2(DegreeSequence.parse("3^8,2,1,1"), cap=11)
    assert (res.max_m2, res.nodes) == (110, 165)
    # 2,414,650 nodes and about 30 s without the leaf rule
    res = search_max_m2(DegreeSequence.parse("4^8,3^3,1^3"), cap=14)
    assert (res.max_m2, res.nodes) == (291, 471)
    assert res.witness.edges == (
        (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4),
        (3, 6), (4, 6), (5, 7), (5, 8), (6, 7), (6, 8), (7, 8), (7, 9),
        (8, 9), (9, 10), (10, 11), (10, 12), (11, 13), (11, 14),
    )


def test_search_matches_brute_force_maxima_up_to_n6():
    # a reference that shares no code with the walk: every labeled graph on
    # n vertices, scored directly
    checked = 0
    for n in range(2, 7):
        want = brute_force_maxima(n)
        seqs = [
            seq
            for c in range(-1, n * (n - 1) // 2 - n + 1)
            for seq in connected_realizable_sequences(n, c)
        ]
        assert {seq.degrees for seq in seqs} == set(want)
        for seq in seqs:
            res = search_max_m2(seq)
            m2, edges = want[seq.degrees]
            assert res.max_m2 == m2, seq.to_text()
            assert res.witness.edges == edges, seq.to_text()
            checked += 1
    assert checked == 96


def test_majorization_monotonicity_census_up_to_n11():
    # every comparable pair of connected-realizable sequences with n <= 11:
    # the oracle's maximum grows strictly along the majorization order for
    # c <= 2 and fails from c = 3 on, with these ties and decreases
    want = {
        -1: (805, []),
        0: (2095, []),
        1: (4514, []),
        2: (10481, []),
        3: (
            19856,
            [
                ("5,5,3,2,2,2,1", "6,4,3,2,2,2,1", 118, 118),
                ("5,5,3,3,3,3,1^4", "6,4,3,3,3,3,1^4", 157, 156),
                ("6,5,3,3,3,3,1^5", "7,4,3,3,3,3,1^5", 180, 180),
            ],
        ),
        4: (
            37704,
            [
                ("5,5,3,3,3,2,1", "6,4,3,3,3,2,1", 147, 147),
                ("5,5,3,3,3,3,1,1", "6,4,3,3,3,3,1,1", 160, 159),
                ("6,6,3,2,2,2,2,1", "7,5,3,2,2,2,2,1", 171, 170),
                ("6,5,3,3,3,3,1^3", "7,4,3,3,3,3,1^3", 183, 183),
                ("6,6,4,2,2,2,2,1,1", "7,5,4,2,2,2,2,1,1", 188, 188),
                ("7,6,2^6,1", "8,5,2^6,1", 188, 188),
                ("7,6,3,2,2,2,2,1,1", "8,5,3,2,2,2,2,1,1", 195, 195),
            ],
        ),
    }
    for c, (want_pairs, want_violations) in want.items():
        pairs = 0
        violations = []
        for n in range(2, 12):
            seqs = connected_realizable_sequences(n, c)
            maxima = {seq: search_max_m2(seq, cap=n).max_m2 for seq in seqs}
            for a, b in combinations(seqs, 2):
                order = majorization_compare(a, b)
                if order == MajorizationOrder.A_BELOW_B:
                    lo, hi = a, b
                elif order == MajorizationOrder.B_BELOW_A:
                    lo, hi = b, a
                else:
                    continue
                pairs += 1
                if maxima[lo] >= maxima[hi]:
                    violations.append((lo, hi, maxima[lo], maxima[hi]))
        expected = [
            (DegreeSequence.parse(lo), DegreeSequence.parse(hi), m_lo, m_hi)
            for lo, hi, m_lo, m_hi in want_violations
        ]
        assert (pairs, violations) == (want_pairs, expected), c


# --- edge swaps -----------------------------------------------------------------


def test_swap_rejects_duplicate_edge_creation():
    p4 = SimpleGraph(4, [(1, 2), (2, 3), (3, 4)])
    with pytest.raises(DomainError):
        apply_edge_swap(p4, EdgeSwap(v1=2, u1=1, v2=3, u2=4))


@pytest.mark.parametrize(
    "apply_move",
    [
        lambda g: apply_edge_swap(g, EdgeSwap(1, "2", 3, 4)),
        lambda g: apply_neighbor_transfer(g, NeighborTransfer("1", 3, (4,))),
        lambda g: apply_neighbor_transfer(g, NeighborTransfer(1, 3.0, (4,))),
    ],
    ids=["swap-str", "transfer-str", "transfer-float"],
)
def test_moves_reject_non_integer_labels(apply_move):
    # each move is valid on C_6 with integer labels
    with pytest.raises(DomainError, match="is not an integer"):
        apply_move(cycle(6))


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
        apply_edge_swap(g, EdgeSwap(1, 2, 4, 6))  # (4,6) absent
    with pytest.raises(DomainError):
        apply_edge_swap(g, EdgeSwap(2, 1, 3, 4))  # adds present (2,3)
    with pytest.raises(DomainError):
        apply_edge_swap(g, EdgeSwap(1, 2, 4, 3))  # adds present (2,3) as (u1,u2)


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
    with pytest.raises(DomainError):
        apply_neighbor_transfer(g, NeighborTransfer(1, 3, (1,)))  # w == u
    with pytest.raises(DomainError):
        apply_neighbor_transfer(g, NeighborTransfer(1, 3, (3,)))  # w == v
    for w in (0, 7):
        with pytest.raises(DomainError):
            apply_neighbor_transfer(g, NeighborTransfer(1, 3, (w,)))  # out of range


# --- hill climbing ------------------------------------------------------------------


def test_cycle_is_locally_optimal():
    c6 = cycle(6)
    assert hill_climb(c6) == (c6, [])
    assert all(gain <= 0 for _, gain in valid_swaps(c6))


def test_oracle_witnesses_are_locally_optimal():
    for text in ("4,2,2,2,2", "3,3,2,2,2,2", "4,3,2,2,2,2,1"):
        witness = search_max_m2(DegreeSequence.parse(text)).witness
        assert hill_climb(witness) == (witness, [])


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


# the final graph (n and edges) and the move log against the one-loop climb


def test_hill_climb_move_log_matches_reference():
    rng = random.Random(28)
    for _ in range(100):
        n = rng.randint(4, 30)
        m = rng.randint(n - 1, min(2 * n, n * (n - 1) // 2))
        g = random_connected_graph(rng, n, m)
        assert hill_climb(g) == hill_climb_reference(g), (n, m)


@pytest.mark.slow
def test_hill_climb_move_log_matches_reference_at_n150():
    g = random_connected_graph(random.Random(150), 150, 225)
    assert hill_climb(g) == hill_climb_reference(g)


def test_hill_climb_finds_improvements():
    # the long-legged spider of (3,2,2,1,1,1) is beaten by the short-legged one
    worst = SimpleGraph(6, [(1, 2), (1, 3), (1, 4), (4, 5), (5, 6)])
    final, moves = hill_climb(worst)
    assert second_zagreb(final) > second_zagreb(worst)
    assert len(moves) >= 1
