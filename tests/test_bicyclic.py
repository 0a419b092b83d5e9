"""Tests for the bicyclic family builders and the closed-form maxima."""

import pytest
from hypothesis import given, settings, strategies as st

from zagrebmax import (
    DegreeSequence,
    DomainError,
    bicyclic_max_m2,
    build_glued_cycles_with_paths,
    build_path_joined_cycles,
    build_theta,
    build_vertex_glued_cycles,
    degree_sequence_of,
    is_connected,
    search_max_m2,
    second_zagreb,
)
from zagrebmax.sequences import connected_realizable_sequences
from helpers import build_glued_cycles_with_paths_reference, outcome


# --- builders ---------------------------------------------------------------


@pytest.mark.parametrize("p,q,m2", [(3, 3, 40), (3, 4, 44), (4, 4, 48)])
def test_vertex_glued_cycles_values(p, q, m2):
    g = build_vertex_glued_cycles(p, q)
    assert g.n == p + q - 1 and g.m == g.n + 1
    assert degree_sequence_of(g).degrees == (4,) + (2,) * (g.n - 1)
    assert second_zagreb(g) == m2 == 4 * g.n + 20


def test_glued_cycles_formula_up_to_order_12():
    for p in range(3, 10):
        for q in range(p, 13 - p + 1):
            g = build_vertex_glued_cycles(p, q)
            if g.n > 12:
                continue
            assert second_zagreb(g) == 4 * g.n + 20


def test_path_joined_cycles_values():
    g = build_path_joined_cycles(3, 1, 3)
    assert g.n == 6 and second_zagreb(g) == 41 == 4 * g.n + 17
    g = build_path_joined_cycles(3, 2, 3)
    assert g.n == 7 and second_zagreb(g) == 44 == 4 * g.n + 16
    for p, r, q in [(3, 2, 4), (4, 3, 3), (3, 4, 5)]:
        g = build_path_joined_cycles(p, r, q)
        assert second_zagreb(g) == 4 * g.n + 16
        assert degree_sequence_of(g).degrees == (3, 3) + (2,) * (g.n - 2)


def test_theta_values():
    for k, l in [(2, 2), (3, 2), (4, 3), (5, 4)]:
        g = build_theta(k, l, 1)
        assert second_zagreb(g) == 4 * g.n + 17
    for k, l, m in [(2, 2, 2), (3, 3, 2), (4, 3, 2), (4, 4, 3)]:
        g = build_theta(k, l, m)
        assert second_zagreb(g) == 4 * g.n + 16
        assert degree_sequence_of(g).degrees == (3, 3) + (2,) * (g.n - 2)


def test_glued_cycles_with_paths_profile():
    g = build_glued_cycles_with_paths(3, 3, [2, 2])
    assert g.n == 9
    assert degree_sequence_of(g).degrees == (6,) + (2,) * 6 + (1, 1)
    assert is_connected(g) and g.m == g.n + 1


@pytest.mark.parametrize(
    "build,args",
    [
        (build_vertex_glued_cycles, (2, 3)),
        (build_path_joined_cycles, (3, 0, 3)),
        (build_path_joined_cycles, (3, 1, 2)),
        (build_theta, (3, 1, 1)),
        (build_theta, (2, 3, 3)),  # m > min(k,l)
        (build_glued_cycles_with_paths, (3, 3, [])),
        (build_glued_cycles_with_paths, (3, 3, [0])),
        # a non-integer length is an error, not a TypeError
        (build_vertex_glued_cycles, (3.5, 3)),
        (build_path_joined_cycles, (3, "1", 3)),
        (build_theta, (3.0, 2, 1)),
        (build_glued_cycles_with_paths, (3, 3, [1.5])),
    ],
)
def test_builder_rejections(build, args):
    with pytest.raises(DomainError):
        build(*args)


@settings(max_examples=300)
@given(
    st.integers(2, 6),
    st.integers(2, 6),
    st.lists(st.one_of(st.integers(0, 7), st.integers(1, 3)), max_size=8),
)
def test_pendant_path_builder_matches_per_path_reference(p, q, lengths):
    # the same graph, or the same error, as the builder that made a list
    # per path
    assert outcome(lambda: build_glued_cycles_with_paths(p, q, lengths)) == outcome(
        lambda: build_glued_cycles_with_paths_reference(p, q, lengths)
    )


def test_pendant_path_lengths_do_not_matter_beyond_two():
    # same order and leaf count, all pendant paths >= 2: identical index
    def compositions(total, parts):
        if parts == 1:
            if total >= 2:
                yield (total,)
            return
        for first in range(2, total - 2 * (parts - 1) + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    for n, s in [(11, 2), (12, 3)]:
        values = set()
        for lengths in compositions(n - 5, s):
            g = build_glued_cycles_with_paths(3, 3, lengths)
            assert g.n == n
            values.add(second_zagreb(g))
        assert len(values) == 1
        assert values.pop() == 4 * n + 2 * s * s + 10 * s + 20


# --- the dispatch -------------------------------------------------------------


def test_case1_value_and_witness():
    res = bicyclic_max_m2(DegreeSequence.parse("3,3,2,2,2,2"))
    assert res.case_id == 1 and res.value == 41
    assert res.label() == "B(3,1,3)"
    res5 = bicyclic_max_m2(DegreeSequence((3, 3, 2, 2, 2)))
    assert res5.case_id == 1 and res5.value == 37
    assert res5.label() == "B(P_3,P_2,P_1)"


def test_case2_value_and_witness():
    res = bicyclic_max_m2(DegreeSequence((4, 2, 2, 2, 2)))
    assert res.case_id == 2 and res.value == 40
    assert res.label() == "B(3,3)"


def test_case3_spot_value():
    res = bicyclic_max_m2(DegreeSequence.parse("6,2^6,1^2"))
    assert res.case_id == 3 and res.value == 84
    assert res.label() == "B(3,3;2,2)"


def test_case4_spot_value():
    res = bicyclic_max_m2(DegreeSequence.parse("7,2^4,1^3"))
    assert res.case_id == 4 and res.value == 85
    assert res.label() == "B(3,3;1,1,1)"


def test_case5_uses_layered_construction():
    res = bicyclic_max_m2(DegreeSequence.parse("4,3,2,2,2,2,1"))
    assert res.case_id == 5 and res.value == 54
    assert res.family == "layered_bfs"


def test_rejects_non_bicyclic():
    with pytest.raises(DomainError):
        bicyclic_max_m2(DegreeSequence((2, 2, 1, 1)))  # tree
    with pytest.raises(DomainError):
        bicyclic_max_m2(DegreeSequence.parse("4,4,3,3,2,1,1"))  # excess 2


def test_case_boundary_is_inclusive():
    # s = (n-5)/2 exactly: dispatched to the all-paths-length>=2 case
    res = bicyclic_max_m2(DegreeSequence.parse("5,2^5,1"))  # n=7, s=1
    assert res.case_id == 3
    assert res.value == 4 * 7 + 2 + 10 + 20


def test_witness_always_realizes_the_sequence():
    for n in range(4, 9):
        for seq in connected_realizable_sequences(n, 1):
            res = bicyclic_max_m2(seq)
            g = res.graph
            assert degree_sequence_of(g).degrees == seq.degrees
            assert is_connected(g) and g.m == g.n + 1
            assert second_zagreb(g) == res.value


def test_agrees_with_oracle_up_to_n12():
    for n in range(4, 13):
        for seq in connected_realizable_sequences(n, 1):
            want = search_max_m2(seq, cap=n).max_m2
            assert bicyclic_max_m2(seq).value == want, seq.to_text()
