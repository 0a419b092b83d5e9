"""Tests for degree-sequence validation, classification, and majorization."""

import contextlib
import dataclasses
import io
import random
from collections import defaultdict
from itertools import accumulate, combinations_with_replacement

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zagrebmax import (
    CapExceededError,
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
from zagrebmax import cli
from zagrebmax import sequences as sq
from helpers import (
    DegreeSequenceReference,
    all_pairs,
    assert_valid_chain,
    eg_quadratic,
    majorization_chain_reference,
    outcome,
    random_connected_graph,
)


# --- parsing and construction ---------------------------------------------


def test_parse_comma_form():
    seq = DegreeSequence.parse("4,4,3,3,2,1,1")
    assert seq.degrees == (4, 4, 3, 3, 2, 1, 1)
    assert seq.n == 7 and not seq.resorted
    assert len(seq) == seq.n and tuple(seq) == seq.degrees


def test_parse_run_length_form():
    seq = DegreeSequence.parse("4^5,1^8")
    assert seq.degrees == (4,) * 5 + (1,) * 8
    assert len(seq) == seq.n == 13 and tuple(seq) == seq.degrees
    assert DegreeSequence.parse("4^2,3,1^3").degrees == (4, 4, 3, 1, 1, 1)


def test_serialize_plain_comma_form():
    assert DegreeSequence.parse("4^5,1^8").to_text() == "4,4,4,4,4,1,1,1,1,1,1,1,1"


@settings(max_examples=300)
@given(
    st.one_of(
        st.lists(st.integers(1, 12), min_size=13, max_size=40),
        st.tuples(st.integers(0, 2**32), st.integers(12, 3000)).map(
            lambda t: random.Random(t[0]).choices([1, 2, 3, 10, 11], k=t[1])
        ),
    )
)
def test_serialize_matches_per_degree_formatting(degrees):
    # each run of equal degrees is formatted once; the text is the same as
    # formatting every degree
    if sum(degrees) % 2:
        degrees.append(1)
    expected = ",".join(map(str, sorted(degrees, reverse=True)))
    assert DegreeSequence(degrees).to_text() == expected


@pytest.mark.parametrize("text", ["x,y", "4^", "", "4^^2", "3,", "1 2"])
def test_parse_failures(text):
    with pytest.raises(ParseError):
        DegreeSequence.parse(text)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("٣,٣,١,١", None),  # Arabic-Indic digits are decimal but not ASCII
        ("2^٣", None),
        (" 2 ,1, 1 ", (2, 1, 1)),
        ("²,1,1", None),  # superscript two is a digit but not decimal
        ("4^0", None),
        ("4^", None),
        ("^4", None),
        ("4^5^6", None),
        ("+4", None),
        ("4_0", None),
        ("4 ^5", None),
        ("３,２,２,１", None),  # full-width digits
        ("3,2,2,١", None),
        (" ３ ,1,1", None),
    ],
)
def test_parse_token_grammar(text, expected):
    if expected is None:
        with pytest.raises(ParseError):
            DegreeSequence.parse(text)
    else:
        assert DegreeSequence.parse(text).degrees == expected


# tokens of every kind the grammar accepts or rejects: digit runs (most, so
# many texts are plain lists), runs with a repeat count, signs,
# underscores, empty tokens, padding, digits that are not ASCII, and tokens
# past int()'s digit limit or a count past sys.maxsize
_TOKEN = st.one_of(
    st.integers(0, 12).map(str),
    st.integers(0, 12).map(str),
    st.tuples(st.integers(0, 6), st.integers(0, 5)).map(lambda t: f"{t[0]}^{t[1]}"),
    st.text(alphabet="0123456789^ +_\t", max_size=4),
    st.text(alphabet="12３２٣١", min_size=1, max_size=2),
    st.sampled_from(["", " ", "9" * 5000, "1^99999999999999999999", "\u30003"]),
)
_PAD = st.sampled_from(["", "", "", " ", "\t", "\u3000"])


@st.composite
def _degree_texts(draw):
    tokens = draw(st.lists(st.tuples(_PAD, _TOKEN, _PAD), min_size=1, max_size=8))
    return ",".join(a + t + b for a, t, b in tokens)


@st.composite
def _recurring_token_texts(draw):
    # each distinct token is read once: texts over a pool of one to three
    # tokens, so good and bad tokens, padded spellings and runs recur
    pool = draw(st.lists(st.tuples(_PAD, _TOKEN, _PAD).map("".join), min_size=1, max_size=3))
    return ",".join(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8)))


# plain digit runs only: short lists, now and then with a token past the
# digit limit, and long lists over a few values; both with spellings that
# have leading zeros, so two tokens can name one degree
_PLAIN_TOKEN = st.one_of(
    st.integers(0, 12).map(str), st.sampled_from(["01", "007", "00", "02", "0012"])
)


@st.composite
def _long_plain_texts(draw):
    values = draw(st.lists(_PLAIN_TOKEN, min_size=1, max_size=5))
    # a seeded draw: hypothesis draws list items one by one, which at this
    # length costs more than the parse
    rng = random.Random(draw(st.integers(0, 2**32)))
    return ",".join(rng.choices(values, k=draw(st.integers(1, 3000))))


_PLAIN_TEXTS = st.one_of(
    st.lists(st.one_of(_PLAIN_TOKEN, st.just("9" * 5000)), min_size=1, max_size=12).map(
        ",".join
    ),
    _long_plain_texts(),
)


def _parse_reference(text):
    """The element-by-element parser with the ASCII rule applied: the first
    token that is not ASCII is a bad token unless an earlier token fails."""
    tokens = text.split(",")
    first = next((i for i, t in enumerate(tokens) if not t.strip().isascii()), None)
    if first is None:
        return outcome(lambda: _as_pair(DegreeSequenceReference.parse(text)))
    if first:
        before = outcome(lambda: DegreeSequenceReference.parse(",".join(tokens[:first])))
        if before[0] is ParseError:
            return before
    return ParseError, f"bad degree token {tokens[first].strip()!r}"


def _as_pair(seq):
    return seq.degrees, seq.resorted


@settings(max_examples=600)
@given(st.one_of(_degree_texts(), _recurring_token_texts(), _PLAIN_TEXTS))
@example("2,1,2,1")  # a good token that recurs
@example("2,x,1,x")  # a bad token that recurs after a good one
@example("2, 2 ,1,1,2")  # padded and unpadded forms of one value
@example("2^2,1,2^2,1")  # a run that recurs
# the dense half graph: 1,999 distinct tokens at n = 2,000
@example(",".join(map(str, [*range(1999, 999, -1), *range(1000, 0, -1)])))
@example(",".join([" 4 "] * 3334 + ["\t1\t"] * 6666))  # 10^4 padded tokens
def test_parse_matches_element_by_element_reference(text):
    assert outcome(lambda: _as_pair(DegreeSequence.parse(text))) == _parse_reference(text)


@settings(max_examples=400)
@given(
    st.lists(
        st.one_of(
            st.integers(-2, 9),
            st.integers(-2, 9),
            st.booleans(),
            st.floats(allow_nan=False),
            st.text(alphabet="12a", max_size=2),
            st.none(),
            st.just(np.int64(3)),
        ),
        max_size=8,
    ),
    st.sampled_from([list, tuple, iter]),
)
def test_constructor_matches_element_by_element_reference(items, container):
    # the same degrees and resorted flag, or the same exception naming the
    # same value; a one-shot iterator is read once
    got = outcome(lambda: _as_pair(DegreeSequence(container(items))))
    assert got == outcome(lambda: _as_pair(DegreeSequenceReference(container(items))))


@pytest.mark.parametrize(
    "call",
    [
        lambda: DegreeSequence((1.9, 1.9)),
        lambda: DegreeSequence(("2", "1", "1")),
        lambda: is_graphic([1.5, 1.5]),
    ],
    ids=["float", "str", "is_graphic-float"],
)
def test_non_integer_degrees_are_rejected_not_truncated(call):
    with pytest.raises(DomainError, match="is not an integer"):
        call()


def test_numpy_integer_degrees_are_accepted():
    seq = DegreeSequence(np.array([1, 2, 1]))
    assert seq.degrees == (2, 1, 1) and all(type(d) is int for d in seq.degrees)
    assert is_graphic(np.array([1, 1], dtype=np.int32))


def test_unsorted_input_is_sorted_with_flag():
    seq = DegreeSequence((1, 2, 2, 1))
    assert seq.degrees == (2, 2, 1, 1)
    assert seq.resorted
    assert not DegreeSequence((2, 2, 1, 1)).resorted


@pytest.mark.parametrize(
    "make", [DegreeSequence, lambda d: DegreeSequence.parse(",".join(map(str, d)))],
    ids=["constructor", "parse"],
)
@pytest.mark.parametrize(
    "degrees, resorted",
    [((2, 2, 1, 1), False), ((1, 2, 2, 1), True), ((2, 1, 2, 1), True), ((2, 2, 2), False)],
)
def test_resorted_is_set_only_by_the_class_and_only_for_unsorted_input(
    make, degrees, resorted
):
    with pytest.raises(TypeError):
        DegreeSequence(degrees, resorted=resorted)
    seq = make(degrees)
    assert seq.degrees == tuple(sorted(degrees, reverse=True))
    assert seq.resorted is resorted


@pytest.mark.parametrize(
    "degrees", [(0, 1, 1), (3, 1), (2, 2, 1), ()], ids=["zero", "too-big", "odd-sum", "empty"]
)
def test_invalid_sequences_rejected(degrees):
    with pytest.raises(DomainError):
        DegreeSequence(degrees)


@pytest.mark.parametrize(
    "call, message",
    [
        # 2^60 twos pass the run check; on 64-bit CPython the list fails its
        # size check before any allocation
        (
            lambda: DegreeSequence.parse("2^1152921504606846976"),
            "n = 1152921504606846976: the degree list does not fit in memory",
        ),
        # the enumeration recurses once per degree
        (
            lambda: connected_realizable_sequences(1500, -1),
            "n = 1500: the sequence enumeration recurses once per degree, "
            "past Python's recursion limit",
        ),
    ],
    ids=["list-past-memory", "enumeration-past-recursion-limit"],
)
def test_valid_input_too_large_to_hold_or_enumerate_is_a_cap_error(call, message):
    with pytest.raises(CapExceededError) as info:
        call()
    assert str(info.value) == message


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
def test_conjugate_check_matches_reference_on_sorted_even_lists(degs):
    # what is_graphic passes on from raw input: sorted non-increasing, zeros
    # allowed, even sum
    d = sorted(degs, reverse=True)
    if sum(d) % 2:
        d[0] += 1
    assert sq._erdos_gallai(d) == eg_quadratic(d)


def test_conjugate_check_matches_reference_on_every_small_tuple():
    # every non-increasing even-sum tuple of n entries from 0..n, so d_1 >= n
    # and zeros are covered
    for n in range(1, 9):
        for d in combinations_with_replacement(range(n, -1, -1), n):
            if sum(d) % 2 == 0:
                assert sq._erdos_gallai(d) == eg_quadratic(d), d


def test_conjugate_check_reads_only_the_durfee_square():
    # 4^33334,1^66666 has Durfee number 4: at most five steps of one
    # bisection each, where a scan of the list reads every entry
    reads = 0

    class CountingTuple(tuple):
        def __getitem__(self, i):
            nonlocal reads
            reads += 1
            return tuple.__getitem__(self, i)

    n = 100_000
    assert sq._erdos_gallai(CountingTuple((4,) * 33_334 + (1,) * 66_666))
    assert reads <= (4 + 1) * ((n - 1).bit_length() + 1)


def test_a_sequence_runs_erdos_gallai_once_when_it_is_made(monkeypatch):
    calls = []
    original = sq._erdos_gallai

    def counting(d):
        calls.append(len(d))
        return original(d)

    monkeypatch.setattr(sq, "_erdos_gallai", counting)
    seq = DegreeSequence.parse("4^5,1^8")
    assert calls == [13]
    # every later read takes the verdict the constructor set
    assert is_graphic(seq) and is_connected_realizable(seq)
    assert classify(seq).kind == "bicyclic"
    assert calls == [13]
    # a sequence that is not graphic is still made, with its verdict
    bad = DegreeSequence((3, 3, 1, 1))
    assert not is_graphic(bad) and not is_connected_realizable(bad)
    assert calls == [13, 4]


def test_cached_verdict_leaves_equality_and_hash_alone():
    seq = DegreeSequence.parse("4^5,1^8")
    assert is_graphic(seq)
    fresh = DegreeSequence.parse("4^5,1^8")
    assert seq == fresh and hash(seq) == hash(fresh)
    assert repr(seq) == repr(fresh)
    # the kept degree sum is no field either
    assert seq.total == 28
    assert [f.name for f in dataclasses.fields(seq)] == ["degrees", "resorted"]


@pytest.mark.parametrize("command", ["validate", "construct"])
def test_a_request_sums_its_degree_list_once(monkeypatch, command):
    # in the constructor; every later reader takes its total, and Erdos-Gallai
    # needs none
    text = ",".join(["4"] * 666 + ["1"] * 1334)
    sums = []

    def counting_sum(values, *start):
        values = list(values)
        sums.append(len(values))
        return sum(values, *start)

    monkeypatch.setattr(sq, "sum", counting_sum, raising=False)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command, text]) == 0
    assert sums.count(2000) == 1


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
    # a DegreeSequence against degrees given raw, as a tuple or as a list out
    # of order: a tuple never equals a list, so both are read the same way
    for raw in ((3, 3, 2, 2, 2), [2, 3, 2, 3, 2]):
        assert majorization_compare(a, raw) == MajorizationOrder.EQUAL
        assert majorization_compare(raw, a) == MajorizationOrder.EQUAL
        assert majorization_compare(raw, b) == MajorizationOrder.A_BELOW_B
        assert majorization_compare(b, raw) == MajorizationOrder.B_BELOW_A


def _compare_two_way(a, b):
    """Dominance order by testing the prefix sums in both directions."""
    da, db = sorted(a, reverse=True), sorted(b, reverse=True)
    if len(da) != len(db) or sum(da) != sum(db):
        return MajorizationOrder.INCOMPARABLE
    if da == db:
        return MajorizationOrder.EQUAL
    pa, pb = list(accumulate(da)), list(accumulate(db))
    if all(x <= y for x, y in zip(pa, pb)):
        return MajorizationOrder.A_BELOW_B
    if all(y <= x for x, y in zip(pa, pb)):
        return MajorizationOrder.B_BELOW_A
    return MajorizationOrder.INCOMPARABLE


def test_one_way_comparison_matches_the_two_way_reference():
    # every non-increasing sequence with entries 0..n for n <= 6, grouped by
    # length and sum: each ordered pair within a group (equal ones included),
    # a sample of pairs across groups, and a sample of pairs with shuffled entries
    groups = defaultdict(list)
    for n in range(1, 7):
        for seq in combinations_with_replacement(range(n, -1, -1), n):
            groups[n, sum(seq)].append(seq)
    seqs = [seq for group in groups.values() for seq in group]
    assert len(seqs) == 1274
    pairs = [(a, b) for group in groups.values() for a in group for b in group]
    assert len(pairs) == 41938
    rng = random.Random(0)
    across = [tuple(rng.sample(seqs, 2)) for _ in range(2000)]
    assert sum(len(a) != len(b) or sum(a) != sum(b) for a, b in across) > 1500
    shuffled = [
        (rng.sample(a, len(a)), rng.sample(b, len(b))) for a, b in rng.sample(pairs, 2000)
    ]
    for a, b in pairs + across + shuffled:
        assert majorization_compare(a, b) == _compare_two_way(a, b), (a, b)


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
    assert [s.to_text() for s in chain] == ["3,3,2,2,2", "4,2,2,2,2"]


def test_chain_identity():
    seq = DegreeSequence((4, 2, 2, 2, 2))
    chain = majorization_chain(seq, seq)
    assert len(chain) == 1 and chain[0].degrees == seq.degrees


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


def _steps(chain):
    return [s.degrees for s in chain]


def test_chain_steps_match_reference_on_every_small_pair():
    # every ordered pair a <= b in dominance among the connected-realizable
    # sequences of one order and excess: the documented step rule, step by step
    pairs = 0
    for n in range(2, 9):
        for c in range(-1, 5):
            seqs = connected_realizable_sequences(n, c)
            for a in seqs:
                for b in seqs:
                    if majorization_compare(a, b) in (
                        MajorizationOrder.EQUAL,
                        MajorizationOrder.A_BELOW_B,
                    ):
                        want = _steps(majorization_chain_reference(a, b))
                        assert _steps(majorization_chain(a, b)) == want, (a, b)
                        pairs += 1
    assert pairs == 4512


def _dominating_pair(rng, n):
    """A graphic sequence a on n vertices and a b above it in dominance, drawn
    by moving single units from later to earlier positions of a while the
    result stays non-increasing and graphic."""
    g = random_connected_graph(rng, n, rng.randrange(n, 3 * n))
    a = sorted(g.degrees()[1:], reverse=True)
    b = list(a)
    for _ in range(n):
        # a unit may leave the last entry of a run (not a 1) for the first
        # entry of an earlier run: b stays non-increasing and positive
        i = rng.choice([i for i in range(n) if i == 0 or b[i] < b[i - 1]])
        ends = [j for j in range(i + 1, n) if b[j] > (b[j + 1] if j + 1 < n else 1)]
        if not ends:
            continue
        j = rng.choice(ends)
        b[i] += 1
        b[j] -= 1
        if not is_graphic(b):
            b[i] -= 1
            b[j] += 1
    return DegreeSequence(a), DegreeSequence(b)


def test_chain_steps_match_reference_on_far_pairs():
    rng = random.Random(2)
    steps = 0
    for _ in range(24):
        a, b = _dominating_pair(rng, rng.randrange(50, 251))
        assert majorization_compare(a, b) in (
            MajorizationOrder.EQUAL,
            MajorizationOrder.A_BELOW_B,
        )
        want = _steps(majorization_chain_reference(a, b))
        assert _steps(majorization_chain(a, b)) == want
        steps += len(want) - 1
    assert steps > 1000


def test_bicyclic_chain_stays_bicyclic():
    # Unit transfers preserve the degree sum, hence the excess: every
    # intermediate of a bicyclic pair is bicyclic.
    a = DegreeSequence((3, 3, 3, 3, 2, 1, 1))
    b = DegreeSequence((5, 3, 2, 2, 2, 1, 1))
    assert majorization_compare(a, b) == MajorizationOrder.A_BELOW_B
    for step in majorization_chain(a, b):
        assert classify(step).kind == "bicyclic"


def test_connected_realizable_sequences_listing():
    seqs = connected_realizable_sequences(5, -1)
    assert [s.degrees for s in seqs] == [
        (2, 2, 2, 1, 1),
        (3, 2, 1, 1, 1),
        (4, 1, 1, 1, 1),
    ]
    assert connected_realizable_sequences(3, -2) == []
    # complete and strictly ascending against an independent enumeration
    for n in range(1, 10):
        for c in range(-1, 7):
            listed = [s.degrees for s in connected_realizable_sequences(n, c)]
            assert all(map(tuple.__lt__, listed, listed[1:])), (n, c)
            reference = sorted(
                t
                for t in combinations_with_replacement(range(n - 1, 0, -1), n)
                if sum(t) == 2 * (n + c) and eg_quadratic(t)
            )
            assert listed == reference, (n, c)


@pytest.mark.parametrize(
    "args,message",
    [((5.0, 0), "vertex count 5.0"), ((5, "0"), "excess '0'")],
    ids=["float-n", "str-excess"],
)
def test_connected_realizable_sequences_rejects_non_integers(args, message):
    with pytest.raises(DomainError, match=f"{message} is not an integer"):
        connected_realizable_sequences(*args)
