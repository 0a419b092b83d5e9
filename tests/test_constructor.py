"""Tests for the layered construction and breadth-first ordering checks."""

import pytest

from zagrebmax import (
    ConstructionError,
    DegreeSequence,
    DomainError,
    SimpleGraph,
    construct_extremal,
    construct_extremal_bicyclic,
    degree_sequence_of,
    is_connected,
    search_max_m2,
    second_zagreb,
    verify_bfs_ordering,
)
from zagrebmax.sequences import (
    check_optimality_conditions,
    connected_realizable_sequences,
)
from helpers import THIRTEEN_VERTEX_ALTERNATE, THIRTEEN_VERTEX_LAYERED


def test_star_sequence():
    trace = construct_extremal(DegreeSequence((3, 1, 1, 1)))
    assert trace.graph.edges == ((1, 2), (1, 3), (1, 4))
    assert second_zagreb(trace.graph) == 9
    assert trace.triangles == () and trace.warnings == ()


def test_single_edge():
    trace = construct_extremal(DegreeSequence((1, 1)))
    assert trace.graph.edges == ((1, 2),)
    assert trace.layers == (0, 1)


def test_plateau_violation_still_builds_with_warning():
    trace = construct_extremal(DegreeSequence.parse("4,4,3,3,2,1,1"))
    assert trace.graph.edges == (
        (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 6), (4, 7)
    )
    assert second_zagreb(trace.graph) == 86
    assert trace.triangles == ((1, 2, 3), (1, 2, 4), (1, 2, 5))
    assert trace.layers == (0, 1, 1, 1, 1, 2, 2)
    assert any("condition (iii)" in w for w in trace.warnings)


def test_thirteen_vertex_bicyclic():
    trace = construct_extremal_bicyclic(DegreeSequence.parse("4^5,1^8"))
    assert trace.graph == THIRTEEN_VERTEX_LAYERED
    assert second_zagreb(trace.graph) == 128
    assert trace.triangles == ((1, 2, 3), (1, 2, 4))
    assert trace.warnings == ()


def test_depth_grows_when_first_layer_is_small():
    # (4,3,2,2,2,2,1): the trailing path forces a third layer.
    trace = construct_extremal(DegreeSequence.parse("4,3,2,2,2,2,1"))
    assert second_zagreb(trace.graph) == 54
    assert trace.layers == (0, 1, 1, 1, 1, 2, 3)


@pytest.mark.parametrize(
    "text",
    ["4,2,2,2,2", "3,3,2,2,2,2"],
    ids=["glued-cycles-profile", "theta-profile"],
)
def test_rejects_sequences_without_a_leaf(text):
    with pytest.raises(DomainError):
        construct_extremal(DegreeSequence.parse(text))


def test_rejects_condition_ii_violation():
    # excess 1 but d2 = 2
    with pytest.raises(DomainError):
        construct_extremal(DegreeSequence.parse("5,2,2,2,2,1"))


def test_rejects_unrealizable_sequence():
    with pytest.raises(DomainError):
        construct_extremal(DegreeSequence((1, 1, 1, 1)))


def test_aborts_when_triangle_slot_cannot_pay_its_degree():
    # (4,4,4,4,1,1,1,1) is graphic with excess 2 and fails only the plateau
    # condition, but vertex 5 would need degree 2 inside the apex block.
    seq = DegreeSequence((4, 4, 4, 4, 1, 1, 1, 1))
    rep = check_optimality_conditions(seq)
    assert rep.holds_i and rep.holds_ii and rep.holds_iv and not rep.holds_iii
    with pytest.raises(ConstructionError):
        construct_extremal(seq)


def test_bicyclic_wrapper_requirements():
    with pytest.raises(DomainError):
        construct_extremal_bicyclic(DegreeSequence((3, 2, 2, 1, 1, 1)))  # tree
    with pytest.raises(DomainError):
        construct_extremal_bicyclic(DegreeSequence.parse("5,2,2,2,2,1"))  # d2 = 2
    with pytest.raises(DomainError):
        construct_extremal_bicyclic(DegreeSequence.parse("4,2,2,2,2"))  # no leaf


@pytest.mark.parametrize("text,expected", [("3,3,3,3,1,1", 51), ("4,3,2,2,2,2,1", 54)])
def test_bicyclic_construction_matches_oracle(text, expected):
    seq = DegreeSequence.parse(text)
    trace = construct_extremal_bicyclic(seq)
    assert second_zagreb(trace.graph) == expected
    assert search_max_m2(seq).max_m2 == expected


def _admissible(n, excesses=range(-1, 9)):
    for c in excesses:
        for seq in connected_realizable_sequences(n, c):
            if check_optimality_conditions(seq).verdict:
                yield seq


BUDGET_MESSAGE = (
    "degree budget exceeds the vertex supply; aborting instead of emitting a "
    "disconnected graph"
)


def test_construction_contract_over_small_sweep():
    # Every connected-realizable sequence with n <= 11 and c in {-1, ..., 5}
    # is rejected in exactly one of two ways or built: DomainError when (ii)
    # or (iv) fails; ConstructionError with the budget message exactly when
    # c >= 0 and an apex vertex v3..v_{c+3} is a leaf (d_{c+3} = 1);
    # otherwise, (iii) warning or not, a simple connected layered realization.
    from zagrebmax.graphs import _bfs_layers

    built = budget = 0
    for n in range(2, 12):
        for c in range(-1, 6):
            for seq in connected_realizable_sequences(n, c):
                rep = check_optimality_conditions(seq)
                if not (rep.holds_ii and rep.holds_iv):
                    with pytest.raises(DomainError) as info:
                        construct_extremal(seq)
                    assert type(info.value) is DomainError, seq.to_text()
                    continue
                if c >= 0 and seq.degrees[c + 2] == 1:
                    with pytest.raises(ConstructionError) as info:
                        construct_extremal(seq)
                    assert str(info.value) == BUDGET_MESSAGE, seq.to_text()
                    budget += 1
                    continue
                trace = construct_extremal(seq)
                built += 1
                g = trace.graph
                assert degree_sequence_of(g).degrees == seq.degrees
                assert is_connected(g)
                assert g.m == g.n + c
                assert verify_bfs_ordering(g, trace.ordering) is None
                # recorded layers are true root distances
                assert list(trace.layers) == _bfs_layers(g, 1)[1:]
                assert trace.triangles == tuple((1, 2, j) for j in range(3, c + 4))
                for a, b, d in trace.triangles:
                    assert g.has_edge(a, b) and g.has_edge(b, d) and g.has_edge(a, d)
                assert bool(trace.warnings) == (not rep.holds_iii)
    assert (built, budget) == (797, 130)


def test_excess_three_generalizes():
    # the triangle loop is generic in the excess, not special-cased at 2
    seq = DegreeSequence((5, 5, 3, 2, 2, 2, 2, 2, 1))
    assert check_optimality_conditions(seq).verdict
    trace = construct_extremal(seq)
    assert trace.triangles == ((1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6))
    assert second_zagreb(trace.graph) == 127 == search_max_m2(seq).max_m2


def _admissible_match_oracle(n):
    """Assert the construction attains the oracle's maximum on every
    admissible sequence of order n; return how many there are."""
    count = 0
    for seq in _admissible(n):
        got = second_zagreb(construct_extremal(seq).graph)
        assert got == search_max_m2(seq, cap=n).max_m2, seq.to_text()
        count += 1
    return count


def test_admissible_sequences_match_oracle_at_n9_to_n12():
    # extends the n <= 8 acceptance sweep four orders further
    assert [_admissible_match_oracle(n) for n in range(9, 13)] == [111, 180, 274, 411]


@pytest.mark.slow
def test_admissible_sequences_match_oracle_at_n13_n14():
    assert [_admissible_match_oracle(n) for n in (13, 14)] == [587, 830]


def _condition_iii_census(n, excesses):
    """(warned, beaten): the constructions of order n built with the (iii)
    warning, and how many of them the oracle beats."""
    warned = beaten = 0
    for c in excesses:
        for seq in connected_realizable_sequences(n, c):
            try:
                trace = construct_extremal(seq)
            except DomainError:
                continue
            if not trace.warnings:
                continue
            warned += 1
            got = second_zagreb(trace.graph)
            best = search_max_m2(seq, cap=n).max_m2
            assert best >= got, seq.to_text()
            if best > got:
                beaten += 1
    return warned, beaten


def test_census_of_condition_iii_failures():
    # When only (iii) fails, the construction is still built, with a
    # warning.  The paper proves optimality only under (i)-(iv); per n, over
    # c in -1..3, count the warned constructions and those the oracle beats.
    census = [_condition_iii_census(n, range(-1, 4)) for n in range(7, 13)]
    assert census == [(1, 1), (4, 3), (11, 8), (24, 18), (45, 34), (78, 62)]
    # the gap is not always 1
    seq = DegreeSequence.parse("4,4,3,3,2,2,1,1")
    assert second_zagreb(construct_extremal(seq).graph) == 91
    assert search_max_m2(seq).max_m2 == 93


@pytest.mark.slow
def test_census_of_condition_iii_failures_at_n13_n14():
    low = [_condition_iii_census(n, range(-1, 4)) for n in (13, 14)]
    high = [_condition_iii_census(n, range(4, 9)) for n in (13, 14)]
    assert low == [(126, 102), (195, 159)]
    assert high == [(99, 57), (198, 122)]


# --- ordering verification ----------------------------------------------------


def test_ordering_of_construction_holds():
    trace = construct_extremal(DegreeSequence.parse("4,4,3,3,2,1,1"))
    assert verify_bfs_ordering(trace.graph, trace.ordering) is None


def test_layer_violation_detected_first():
    p3 = SimpleGraph(3, [(1, 2), (2, 3)])
    report = verify_bfs_ordering(p3, (1, 3, 2))
    assert report == "layer_monotone"


def test_degree_violation():
    p3 = SimpleGraph(3, [(1, 2), (2, 3)])
    report = verify_bfs_ordering(p3, (1, 2, 3))
    assert report == "degree_monotone"


def test_parent_order_violation():
    g = SimpleGraph(5, [(1, 2), (1, 3), (2, 4), (3, 5)])
    # orderly by layers and degrees, but v5 (child of 3) precedes v4 (child of 2)
    report = verify_bfs_ordering(g, (1, 2, 3, 5, 4))
    assert report == "parent_order"


def test_alternate_thirteen_vertex_labeling_is_not_bfs():
    # In the drawn labeling, vertex 5 sits two steps from the root while
    # vertex 6 is adjacent to it, so layer monotonicity fails; no relabeling
    # of this graph is breadth-first (each degree-4 root leaves some leaf
    # closer than some degree-4 vertex).
    report = verify_bfs_ordering(THIRTEEN_VERTEX_ALTERNATE, range(1, 14))
    assert report == "layer_monotone"


def test_layered_thirteen_vertex_labeling_is_bfs():
    report = verify_bfs_ordering(THIRTEEN_VERTEX_LAYERED, range(1, 14))
    assert report is None


def test_verify_rejects_bad_inputs():
    p3 = SimpleGraph(3, [(1, 2), (2, 3)])
    with pytest.raises(DomainError):
        verify_bfs_ordering(p3, (1, 1, 2))
    for first in (1.0, "1"):
        with pytest.raises(DomainError, match="is not an integer"):
            verify_bfs_ordering(p3, (first, 2, 3))
    # a bool stays an int, as in SimpleGraph
    assert verify_bfs_ordering(p3, (True, 2, 3)) == "degree_monotone"
    disconnected = SimpleGraph(4, [(1, 2), (3, 4)])
    with pytest.raises(DomainError):
        verify_bfs_ordering(disconnected, (1, 2, 3, 4))
