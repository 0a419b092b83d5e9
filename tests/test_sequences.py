"""Tests for degree-sequence validation, classification, and majorization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zagrebmax import (
    DegreeSequence,
    DomainError,
    MajorizationOrder,
    ParseError,
    check_optimality_conditions,
    classify,
    connected_realizable_sequences,
    is_connected_realizable,
    is_graphic,
    majorization_chain,
    majorization_compare,
)
from zagrebmax import sequences as sq
from helpers import all_pairs, assert_valid_chain, eg_quadratic


# --- parsing and construction ---------------------------------------------


def test_parse_comma_form():
    seq = DegreeSequence.parse("4,4,3,3,2,1,1")
    assert seq.degrees == (4, 4, 3, 3, 2, 1, 1)
    assert seq.n == 7 and not seq.resorted


def test_parse_run_length_form():
    seq = DegreeSequence.parse("4^5,1^8")
    assert seq.degrees == (4,) * 5 + (1,) * 8
    assert DegreeSequence.parse("4^2,3,1^3").degrees == (4, 4, 3, 1, 1, 1)


def test_serialize_plain_comma_form():
    assert DegreeSequence.parse("4^5,1^8").to_text() == "4,4,4,4,4,1,1,1,1,1,1,1,1"


@pytest.mark.parametrize("text", ["x,y", "4^", "", "4^^2", "3,", "1 2"])
def test_parse_failures(text):
    with pytest.raises(ParseError):
        DegreeSequence.parse(text)


def test_unsorted_input_is_sorted_with_flag():
    seq = DegreeSequence((1, 2, 2, 1))
    assert seq.degrees == (2, 2, 1, 1)
    assert seq.resorted
    assert not DegreeSequence((2, 2, 1, 1)).resorted


@pytest.mark.parametrize(
    "degrees", [(0, 1, 1), (3, 1), (2, 2, 1), ()], ids=["zero", "too-big", "odd-sum", "empty"]
)
def test_invalid_sequences_rejected(degrees):
    with pytest.raises(DomainError):
        DegreeSequence(degrees)


# --- graphicness -----------------------------------------------------------


def test_is_graphic_examples():
    assert is_graphic(DegreeSequence((3, 3, 3, 3)))
    assert is_graphic(DegreeSequence((1, 1)))
    assert not is_graphic(DegreeSequence((3, 3, 1, 1)))


def test_is_graphic_total_on_raw_lists():
    assert is_graphic([2, 1, 1, 0])
    assert not is_graphic([2, 1])  # odd sum
    assert not is_graphic([-1, 1])
    assert is_graphic([])


def test_is_graphic_agrees_with_exhaustive_scan_up_to_n7():
    # One vectorized pass over all 2^21 labeled graphs on 7 vertices gives
    # every realizable degree multiset; smaller n follow the same way.
    for n in range(2, 8):
        pairs = all_pairs(n)
        m = len(pairs)
        masks = np.arange(1 << m, dtype=np.int64)
        bits = (masks[:, None] >> np.arange(m)) & 1
        incidence = np.zeros((m, n), dtype=np.int8)
        for idx, (u, v) in enumerate(pairs):
            incidence[idx, u - 1] = 1
            incidence[idx, v - 1] = 1
        degs = bits.astype(np.int8) @ incidence
        degs = -np.sort(-degs, axis=1)
        realizable = {tuple(int(x) for x in row) for row in np.unique(degs, axis=0)}

        def candidates(length, cap):
            def rec(slots, hi):
                if slots == 0:
                    yield ()
                    return
                for v in range(hi, -1, -1):
                    for rest in rec(slots - 1, v):
                        yield (v,) + rest

            yield from rec(length, cap)

        for cand in candidates(n, n - 1):
            assert is_graphic(cand) == (cand in realizable), cand


@st.composite
def _degree_lists(draw, min_value):
    """Integer lists up to n = 60: either free draws, or the degrees of a
    random graph nudged at a few positions, which land near the
    Erdos-Gallai boundary."""
    n = draw(st.integers(0, 60))
    if draw(st.booleans()):
        hi = draw(st.integers(max(min_value, 0), max(n, 1)))
        return draw(st.lists(st.integers(min_value, hi), min_size=n, max_size=n))
    deg = [0] * n
    if n >= 2:
        edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4 * n))
        for u, v in {(min(e), max(e)) for e in edges if e[0] != e[1]}:
            deg[u] += 1
            deg[v] += 1
    if n:
        for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            deg[i] = max(min_value, deg[i] + draw(st.sampled_from([-1, 1])))
    return draw(st.permutations(deg))


@settings(max_examples=400)
@given(_degree_lists(min_value=-2))
def test_is_graphic_matches_quadratic_reference(degs):
    # raw, unsorted input with zeros, negatives, odd sums and the empty list
    assert is_graphic(degs) == eg_quadratic(degs)


@settings(max_examples=400)
@given(_degree_lists(min_value=0))
def test_linear_check_matches_reference_on_sorted_even_tails(degs):
    # the oracle's residual tails: non-increasing, zeros allowed, even sum
    d = sorted(degs, reverse=True)
    if sum(d) % 2:
        d[0] += 1
    assert sq._erdos_gallai(d) == eg_quadratic(d)


def test_cached_verdict_leaves_equality_and_hash_alone():
    seq = DegreeSequence.parse("4^5,1^8")
    assert is_graphic(seq)
    fresh = DegreeSequence.parse("4^5,1^8")
    assert seq == fresh and hash(seq) == hash(fresh)
    assert repr(seq) == repr(fresh)


# --- connected realizability and classification ----------------------------


def test_is_connected_realizable_examples():
    assert is_connected_realizable(DegreeSequence((2, 2, 1, 1)))
    assert not is_connected_realizable(DegreeSequence((1, 1, 1, 1)))
    assert is_connected_realizable(DegreeSequence.parse("4,4,3,3,2,1,1"))


def test_classify_examples():
    cls = classify(DegreeSequence((2, 1, 1)))
    assert (cls.excess, cls.kind) == (-1, "tree")
    cls = classify(DegreeSequence((4, 2, 2, 2, 2)))
    assert (cls.excess, cls.kind, cls.leaf_count, cls.degree2_count) == (1, "bicyclic", 0, 4)
    cls = classify(DegreeSequence.parse("4,4,3,3,2,1,1"))
    assert (cls.excess, cls.kind, cls.leaf_count, cls.degree2_count) == (2, "multicyclic", 2, 1)


def test_classify_rejects_unrealizable():
    with pytest.raises(DomainError):
        classify(DegreeSequence((1, 1, 1, 1)))


def test_optimality_conditions():
    rep = check_optimality_conditions(DegreeSequence.parse("4,4,3,3,2,1,1"))
    assert rep.excess == 2
    assert rep.holds_i and rep.holds_ii and rep.holds_iv
    assert not rep.holds_iii and not rep.verdict

    rep = check_optimality_conditions(DegreeSequence.parse("4^5,1^8"))
    assert rep.excess == 1 and rep.verdict

    rep = check_optimality_conditions(DegreeSequence((3, 1, 1, 1)))
    assert rep.excess == -1 and rep.verdict


def test_condition_i_fails_below_tree_excess():
    rep = check_optimality_conditions(DegreeSequence((1, 1, 1, 1)))
    assert not rep.holds_i and not rep.verdict


# --- majorization ----------------------------------------------------------


def test_majorization_compare_examples():
    a = DegreeSequence((3, 3, 2, 2, 2))
    b = DegreeSequence((4, 2, 2, 2, 2))
    assert majorization_compare(a, b) == MajorizationOrder.A_BELOW_B
    assert majorization_compare(b, a) == MajorizationOrder.B_BELOW_A
    assert majorization_compare(b, b) == MajorizationOrder.EQUAL
    # prefix sums cross: 3 < 4 but 9 > 8; raw sequences are accepted because
    # (4,2,2,2) exceeds the simple-graph degree bound
    assert majorization_compare((3, 3, 3, 1), (4, 2, 2, 2)) == MajorizationOrder.INCOMPARABLE
    assert (
        majorization_compare(DegreeSequence((3, 3, 3, 2, 1)), DegreeSequence((4, 2, 2, 2, 2)))
        == MajorizationOrder.INCOMPARABLE
    )
    assert majorization_compare((2, 2), (2, 2, 2)) == MajorizationOrder.INCOMPARABLE
    assert majorization_compare((3, 1), (2, 2)) == MajorizationOrder.B_BELOW_A


_POOL = [
    seq
    for n in (5, 6, 7)
    for c in (-1, 0, 1, 2)
    for seq in connected_realizable_sequences(n, c)
]


@given(st.sampled_from(_POOL), st.sampled_from(_POOL), st.sampled_from(_POOL))
def test_majorization_is_a_partial_order(a, b, c):
    assert majorization_compare(a, a) == MajorizationOrder.EQUAL
    ab = majorization_compare(a, b)
    if ab == MajorizationOrder.A_BELOW_B:
        assert majorization_compare(b, a) == MajorizationOrder.B_BELOW_A
        if majorization_compare(b, c) == MajorizationOrder.A_BELOW_B:
            assert majorization_compare(a, c) == MajorizationOrder.A_BELOW_B
        assert a.degrees != b.degrees


def test_chain_single_transfer():
    chain = majorization_chain(
        DegreeSequence((3, 3, 2, 2, 2)), DegreeSequence((4, 2, 2, 2, 2))
    )
    assert [s.to_text() for s in chain.steps] == ["3,3,2,2,2", "4,2,2,2,2"]


def test_chain_identity():
    seq = DegreeSequence((4, 2, 2, 2, 2))
    chain = majorization_chain(seq, seq)
    assert len(chain) == 1 and chain.steps[0].degrees == seq.degrees


def test_chain_regular_to_spread():
    a = DegreeSequence((2, 2, 2, 2, 2, 2))
    b = DegreeSequence((4, 3, 2, 1, 1, 1))
    chain = majorization_chain(a, b)
    assert_valid_chain(chain, a, b)


def test_chain_rejects_nongraphic_endpoint():
    # (4,4,1,1,1,1) passes the structural checks but is not graphic, so the
    # chain operation's precondition fails.
    a = DegreeSequence((2, 2, 2, 2, 2, 2))
    b = DegreeSequence((4, 4, 1, 1, 1, 1))
    assert not is_graphic(b)
    with pytest.raises(DomainError):
        majorization_chain(a, b)


def test_chain_rejects_wrong_direction():
    with pytest.raises(DomainError):
        majorization_chain(
            DegreeSequence((4, 2, 2, 2, 2)), DegreeSequence((3, 3, 2, 2, 2))
        )


def test_chain_valid_for_all_comparable_pairs_n6():
    seqs = [s for c in (-1, 0, 1, 2) for s in connected_realizable_sequences(6, c)]
    checked = 0
    for a in seqs:
        for b in seqs:
            if majorization_compare(a, b) == MajorizationOrder.A_BELOW_B:
                assert_valid_chain(majorization_chain(a, b), a, b)
                checked += 1
    assert checked > 20


def test_bicyclic_chain_stays_bicyclic():
    # Unit transfers preserve the degree sum, hence the excess: every
    # intermediate of a bicyclic pair is bicyclic.
    a = DegreeSequence((3, 3, 3, 3, 2, 1, 1))
    b = DegreeSequence((5, 3, 2, 2, 2, 1, 1))
    assert majorization_compare(a, b) == MajorizationOrder.A_BELOW_B
    for step in majorization_chain(a, b).steps:
        assert classify(step).kind == "bicyclic"


def test_connected_realizable_sequences_listing():
    seqs = connected_realizable_sequences(5, -1)
    assert [s.degrees for s in seqs] == [
        (2, 2, 2, 1, 1),
        (3, 2, 1, 1, 1),
        (4, 1, 1, 1, 1),
    ]
    assert connected_realizable_sequences(3, -2) == []
