"""Tests for the graph type, the index, and graph I/O."""

import hashlib
import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zagrebmax import (
    CapExceededError,
    DegreeSequence,
    DomainError,
    ParseError,
    SimpleGraph,
    canonical_form,
    classify,
    construct_extremal,
    degree_sequence_of,
    is_connected,
    is_isomorphic,
    parse_edge_list,
    second_zagreb,
    serialize_edge_list,
    to_dot,
)
from helpers import (
    SEVEN_VERTEX_BETTER,
    SEVEN_VERTEX_GREEDY,
    SimpleGraphReference,
    all_pairs,
    canonical_form_by_permutations,
    canonical_form_unpruned,
    first_edge_fault_scan,
    outcome,
    relabel,
)


def cycle(n):
    return SimpleGraph(n, [(i, i % n + 1) for i in range(1, n + 1)])


def path(n):
    return SimpleGraph(n, [(i, i + 1) for i in range(1, n)])


# --- SimpleGraph basics -----------------------------------------------------


def test_construction_and_queries():
    g = SimpleGraph(4, [(3, 1), (1, 2), (2, 3)])
    assert g.edges == ((1, 2), (1, 3), (2, 3))
    assert g.neighbors(1) == (2, 3) and g.neighbors(4) == ()
    assert g.degree(2) == 2
    assert g.has_edge(3, 2) and not g.has_edge(1, 4)


def test_neighbors_ascending_whatever_the_edge_order():
    edges = [(1, 5), (2, 5), (3, 5), (4, 5), (5, 6), (5, 7), (1, 7), (2, 6), (3, 4)]
    shuffled = edges[:]
    random.Random(7).shuffle(shuffled)
    for order in (edges, edges[::-1], shuffled, [(v, u) for u, v in reversed(edges)]):
        g = SimpleGraph(7, order)
        for v in range(1, 8):
            assert list(g.neighbors(v)) == sorted(g.neighbors(v))
        assert g.neighbors(5) == (1, 2, 3, 4, 6, 7)


@pytest.mark.parametrize(
    "n,edges",
    [
        (3, [(1, 1)]),
        (3, [(1, 2), (2, 1)]),
        (3, [(1, 4)]),
        (0, []),
        (3, [(1.0, 2)]),
        (2.5, [(1, 2)]),
        ("3", [(1, 2)]),
    ],
    ids=["loop", "duplicate", "range", "empty", "non-integer", "float-n", "str-n"],
)
def test_construction_rejections(n, edges):
    with pytest.raises(DomainError):
        SimpleGraph(n, edges)


def test_vertex_count_is_converted_to_int():
    # a bool is an int subclass: True counts one vertex, and the range
    # message says so
    with pytest.raises(DomainError, match=r"out of range 1\.\.1$"):
        SimpleGraph(True, [(1, 2)])
    g = SimpleGraph(np.int64(3), [(1, 2)])
    assert type(g.n) is int and g.n == 3


# vertex labels: mostly in range, some just outside it, and now and then a
# bool, a float, a string or a numpy integer
_LABEL = st.one_of(
    st.integers(1, 7),
    st.integers(1, 7),
    st.integers(1, 7),
    st.integers(-1, 9),
    st.booleans(),
    st.floats(0, 8),
    st.sampled_from(["1", np.int64(2)]),
)


@st.composite
def _edge_lists(draw):
    """Edges of a random graph on 1..n, in sorted runs or shuffled, either
    way round, with a few odd labels, loops and duplicates mixed in."""
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = [e for e in pairs if draw(st.booleans())]
    layout = draw(st.sampled_from(["sorted", "runs", "shuffled"]))
    if layout == "runs":
        cut = draw(st.integers(0, len(edges)))
        edges = edges[cut:] + edges[:cut]
    elif layout == "shuffled":
        edges = draw(st.permutations(edges))
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    for _ in range(draw(st.integers(0, 2))):
        odd = draw(
            st.one_of(
                st.tuples(_LABEL, _LABEL),
                st.integers(1, n).map(lambda v: (v, v)),
                st.sampled_from(edges or [(1, 2)]).map(lambda e: e[::-1]),
            )
        )
        edges.insert(draw(st.integers(0, len(edges))), odd)
    count = draw(st.one_of(st.just(n), st.just(n), st.sampled_from([0, True, 3.0, "4"])))
    return count, edges


def _graph_fields(g):
    return g.n, g.edges, g.degrees(), g._adjacency()


@settings(max_examples=600)
@given(_edge_lists())
# the first fault in input order is the one named, whichever kinds follow
@example((3, [(1, 2), (2, 1), (1, 4)]))  # repeat, then out of range
@example((3, [(1, 2), (1, 2), (1.0, 3)]))  # repeat, then a float label
@example((3, [(2, 3), (3, 2), (True, 2)]))  # a bool label after a repeat
@example((3, [(True, 2), (1, 2)]))  # a bool label repeats an int one
@example((4, [(1, 4), (3, 2), (4, 1)]))  # a reversed repeat
@example((3, [(1, 2), (2, 1), (1, 2, 3)]))  # a non-pair after a repeat
@example((3, [(1, 3), (3, 1), 5]))  # a non-iterable item after a repeat
@example((3, [(1, 2), (1, 2, 3), (1, 2)]))  # a non-pair before the repeat
def test_constructor_matches_element_by_element_reference(case):
    # the same edges, degrees and adjacency, or the same exception naming
    # the first offending edge in input order; a one-shot iterator is read
    # once
    n, edges = case
    for feed in (list, iter):
        got = outcome(lambda: _graph_fields(SimpleGraph(n, feed(edges))))
        want = outcome(lambda: _graph_fields(SimpleGraphReference(n, feed(edges))))
        assert got == want


@pytest.mark.parametrize(
    "fault,message",
    [
        ((2, 1), "duplicate edge (1,2)"),
        ((3, 3), "loop at vertex 3"),
        ((1, 1002), "edge (1,1002) out of range 1..1001"),
        ((1, 2.0), "vertex 2.0 is not an integer"),
        ((1, 2, 3), "too many values to unpack (expected 2)"),
    ],
    ids=["repeat", "loop", "range", "float", "triple"],
)
def test_lazy_source_is_read_only_up_to_its_first_fault(fault, message):
    # a source of 1,000 items whose second is the fault: the read ends there
    read = 0

    def edges():
        nonlocal read
        for item in [(1, 2), fault, *((v, v + 1) for v in range(3, 1001))]:
            read += 1
            yield item

    with pytest.raises((DomainError, ValueError)) as info:
        SimpleGraph(1001, edges())
    assert str(info.value) == message
    assert read == 2


def test_source_that_fails_after_a_repeat_reports_the_repeat():
    def edges():
        yield (1, 2)
        yield (1, 2)
        raise RuntimeError("source read past its repeat")

    with pytest.raises(DomainError, match=r"^duplicate edge \(1,2\)$"):
        SimpleGraph(3, edges())


def _edges_and_degrees(n, edges):
    g = SimpleGraph(n, edges)
    return g.edges, g.degrees()


def test_constructor_matches_first_fault_scan_on_every_short_list():
    # every list of at most 4 items from 13, 30,941 in all: pairs in and out
    # of range, a repeat either way round, a loop, odd labels and non-pairs
    alphabet = [
        (1, 2), (2, 1), (2, 3), (1, 3), (1, 1), (0, 2), (3, 4),
        (1, 2.0), ("a", 2), (1, 2, 3), 5, None, (True, 2),
    ]
    cases = 0
    for size in range(5):
        for edges in itertools.product(alphabet, repeat=size):
            got = outcome(lambda: _edges_and_degrees(3, edges))
            want = outcome(lambda: first_edge_fault_scan(3, edges))
            assert got == want, edges
            cases += 1
    assert cases == 30_941


@pytest.mark.parametrize(
    "call,n",
    [
        (lambda: SimpleGraph(2**60, []), 2**60),
        (lambda: parse_edge_list("1152921504606846976 0\n"), 2**60),
        (lambda: SimpleGraph(2**64, []), 2**64),
        (lambda: parse_edge_list("18446744073709551616 0\n"), 2**64),
    ],
    ids=["constructor", "edge-list", "constructor-past-maxsize", "edge-list-past-maxsize"],
)
def test_vertex_count_whose_degree_counts_cannot_be_held_is_a_cap_error(call, n):
    # on 64-bit CPython a list of 2^60 + 1 counts fails its size check
    # before any allocation, and a length past sys.maxsize cannot even be
    # asked for (OverflowError)
    with pytest.raises(CapExceededError) as info:
        call()
    assert str(info.value) == f"n = {n}: the graph's degree counts do not fit in memory"


@pytest.mark.parametrize("n", [2**60, 2**64])
def test_degree_counts_are_allocated_before_an_edge_is_read(n):
    # the builders hand SimpleGraph lazy edges and rely on this order: an
    # order it cannot hold is refused before any edge is made
    started = []

    def edges():
        started.append(True)
        yield (1, 2)

    with pytest.raises(CapExceededError, match=f"^n = {n}: "):
        SimpleGraph(n, edges())
    assert started == []


def test_queries_reject_labels_outside_the_graph():
    # a negative label must not wrap round to the end of the adjacency
    # tuple (vertex 3 here), nor a label above n raise IndexError
    g = SimpleGraph(3, [(2, 3)])
    for query in (
        lambda: g.has_edge(-1, 2),
        lambda: g.neighbors(-1),
        lambda: g.has_edge(4, 5),
        lambda: g.degree(0),
        lambda: g.has_edge(1.0, 2),
    ):
        with pytest.raises(DomainError):
            query()


def test_replace_edges_validates():
    g = path(3)
    with pytest.raises(DomainError):
        g.replace_edges(remove=[(1, 3)])
    with pytest.raises(DomainError):
        g.replace_edges(add=[(1, 2)])
    # a float or a string is an error, not matched against the integer edge
    # it equals; a bool stays an int, as in SimpleGraph
    with pytest.raises(DomainError, match=r"vertex 3\.0 is not an integer"):
        g.replace_edges(remove=[(2, 3.0)])
    with pytest.raises(DomainError, match="vertex '3' is not an integer"):
        g.replace_edges(add=[(1, "3")])
    assert g.replace_edges(remove=[(True, 2)]).edges == ((2, 3),)
    g2 = g.replace_edges(remove=[(2, 3)], add=[(1, 3)])
    assert g2.edges == ((1, 2), (1, 3))
    assert g.edges == ((1, 2), (2, 3))  # original untouched


# --- the index --------------------------------------------------------------


def test_second_zagreb_triangle():
    assert second_zagreb(cycle(3)) == 12


@pytest.mark.parametrize("n", range(3, 9))
def test_second_zagreb_cycles(n):
    assert second_zagreb(cycle(n)) == 4 * n


def test_second_zagreb_seven_vertex_pair():
    assert second_zagreb(SEVEN_VERTEX_GREEDY) == 86
    assert second_zagreb(SEVEN_VERTEX_BETTER) == 87


def test_second_zagreb_neighbor_sum_formulation():
    graphs = [cycle(5), path(6), SEVEN_VERTEX_GREEDY, SEVEN_VERTEX_BETTER]
    for g in graphs:
        doubled = sum(
            g.degree(v) * sum(g.degree(u) for u in g.neighbors(v))
            for v in range(1, g.n + 1)
        )
        assert doubled == 2 * second_zagreb(g)


def test_second_zagreb_relabel_invariance():
    rng = random.Random(20240817)
    for g in (SEVEN_VERTEX_GREEDY, cycle(6), path(5)):
        base = second_zagreb(g)
        labels = list(range(1, g.n + 1))
        for _ in range(100):
            rng.shuffle(labels)
            mapping = {v: labels[v - 1] for v in range(1, g.n + 1)}
            assert second_zagreb(relabel(g, mapping)) == base


def test_relabel_rejects_non_integer_labels():
    g = SimpleGraph(2, [(1, 2)])
    with pytest.raises(DomainError, match="not an integer"):
        relabel(g, {1: "a", 2: 1})
    with pytest.raises(DomainError, match="not an integer"):
        relabel(g, {1.0: 2, 2: 1})
    with pytest.raises(DomainError, match="permutation"):
        relabel(g, {1: 1, 2: 1})
    assert relabel(g, {1: 2, 2: 1}) == g


# --- degree sequences of graphs ----------------------------------------------


def test_degree_sequence_of():
    star = SimpleGraph(5, [(1, j) for j in range(2, 6)])
    assert degree_sequence_of(star).degrees == (4, 1, 1, 1, 1)
    bowtie = SimpleGraph(5, [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)])
    assert degree_sequence_of(bowtie).degrees == (4, 2, 2, 2, 2)
    assert degree_sequence_of(SEVEN_VERTEX_GREEDY).degrees == (4, 4, 3, 3, 2, 1, 1)


def test_degree_sequence_rejects_isolated_vertex():
    with pytest.raises(DomainError):
        degree_sequence_of(SimpleGraph(3, [(1, 2)]))


def test_edge_count_matches_excess():
    for g in (SEVEN_VERTEX_GREEDY, cycle(6), path(5)):
        c = classify(degree_sequence_of(g)).excess
        assert g.m == g.n + c


# --- connectivity -------------------------------------------------------------


def test_is_connected():
    assert is_connected(path(4))
    two_triangles = SimpleGraph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert not is_connected(two_triangles)
    trace = construct_extremal(DegreeSequence((3, 2, 2, 1, 1, 1)))
    assert is_connected(trace.graph)


# --- text formats --------------------------------------------------------------


def test_parse_and_serialize_round_trip():
    text = "3 3\n1 2\n2 3\n1 3\n"
    g = parse_edge_list(text)
    assert g.edges == ((1, 2), (1, 3), (2, 3))
    assert serialize_edge_list(g) == "3 3\n1 2\n1 3\n2 3\n"
    assert parse_edge_list(serialize_edge_list(g)) == g


def test_serialize_is_canonical():
    g1 = SimpleGraph(4, [(3, 4), (1, 2), (2, 3)])
    g2 = SimpleGraph(4, [(2, 3), (2, 1), (4, 3)])
    assert serialize_edge_list(g1) == serialize_edge_list(g2)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n1 2",
        "3 2\n1 2",
        "3 1\n1 2\n2 3",
        "3 1\n1 1",
        "3 2\n1 2\n1 2",
        "3 1\n1 9",
        "3 1\n1 x",
    ],
    ids=["empty", "bad-header", "missing-edge", "extra-edge", "loop", "dup", "range", "non-int"],
)
def test_parse_failures(text):
    with pytest.raises(ParseError):
        parse_edge_list(text)


@pytest.mark.parametrize("token", ["+2", "1_0", "0x1", "３"])
def test_edge_list_fields_are_decimal_digits(token):
    # int() reads "+2" as 2, "1_0" as 10 and a full-width "３" as 3; the
    # format takes the ASCII digits only
    for text in (f"10 1\n{token} 3", f"{token} 1\n1 2", f"10 {token}\n1 2"):
        with pytest.raises(ParseError, match="decimal"):
            parse_edge_list(text)


def test_to_dot_triangle():
    lines = to_dot(cycle(3)).strip().split("\n")
    assert lines[0] == "graph g {" and lines[-1] == "}"
    node_lines = [ln for ln in lines if ln.endswith(";") and "--" not in ln]
    edge_lines = [ln for ln in lines if "--" in ln]
    assert len(node_lines) == 3 and len(edge_lines) == 3


# --- canonical forms ------------------------------------------------------------


# 3-regular on 10 vertices with two automorphisms: its search tree has 14
# leaves and 7 distinct relabeled edge lists, so a form that did not take
# the least of them would depend on the labeling
CUBIC_TEN = SimpleGraph(
    10,
    [
        (1, 2), (1, 3), (1, 4), (2, 4), (2, 6), (3, 7), (3, 10), (4, 9),
        (5, 7), (5, 9), (5, 10), (6, 8), (6, 10), (7, 8), (8, 9),
    ],
)


def complete(n):
    return SimpleGraph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


PETERSEN = SimpleGraph(
    10,
    [(i, i % 5 + 1) for i in range(1, 6)]
    + [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
    + [(i, i + 5) for i in range(1, 6)],
)

# 4x4 rook graph: cells of a 4x4 board, adjacent when they share a row or a column
ROOK_4X4 = SimpleGraph(
    16,
    [
        (u, v)
        for u in range(1, 17)
        for v in range(u + 1, 17)
        if (u - 1) // 4 == (v - 1) // 4 or (u - 1) % 4 == (v - 1) % 4
    ],
)

MATCHING_10 = SimpleGraph(20, [(2 * i - 1, 2 * i) for i in range(1, 11)])


def test_canonical_form_invariant_under_relabeling():
    # the last five have large automorphism groups, where twin and
    # leaf-automorphism pruning skip most of the search tree
    rng = random.Random(7)
    for g in (
        SEVEN_VERTEX_BETTER, cycle(9), CUBIC_TEN,
        complete(8), PETERSEN, cycle(12), ROOK_4X4, MATCHING_10,
    ):
        form = canonical_form(g)
        labels = list(range(1, g.n + 1))
        for _ in range(25):
            rng.shuffle(labels)
            permuted = relabel(g, {v: labels[v - 1] for v in range(1, g.n + 1)})
            assert canonical_form(permuted) == form


def test_canonical_form_partitions_like_the_permutation_scan_up_to_n5():
    # every labeled graph on n <= 5 vertices: two graphs share a form iff
    # they share the reference form
    for n in range(1, 6):
        pairs = all_pairs(n)
        keys = set()
        for mask in range(1 << len(pairs)):
            g = SimpleGraph(n, [e for bit, e in enumerate(pairs) if mask >> bit & 1])
            keys.add((canonical_form(g), canonical_form_by_permutations(g)))
        assert len({new for new, _ in keys}) == len({ref for _, ref in keys}) == len(keys)


def test_canonical_form_partitions_like_the_unpruned_search_at_n6():
    # all 32,768 labeled graphs on 6 vertices, 156 classes.  The digest pins
    # the forms themselves, of those graphs and of 1,000 seeded random graphs
    # on 7-12 vertices, so a faster search must return the same edge tuples
    pairs = all_pairs(6)
    keys = set()
    digest = hashlib.sha256()
    for mask in range(1 << len(pairs)):
        g = SimpleGraph(6, [e for bit, e in enumerate(pairs) if mask >> bit & 1])
        form = canonical_form(g)
        keys.add((form, canonical_form_unpruned(g)))
        digest.update(f"{form}\n".encode())
    assert len({new for new, _ in keys}) == len({old for _, old in keys}) == len(keys) == 156
    rng = random.Random(2014)
    for _ in range(1000):
        n = rng.randint(7, 12)
        density = rng.random()
        g = SimpleGraph(n, [e for e in all_pairs(n) if rng.random() < density])
        digest.update(f"{canonical_form(g)}\n".encode())
    assert digest.hexdigest() == "4b1dc8e60cfd153f6c09c670df31210b245b10a01a92cff0e07e10b4c64df95f"


def test_canonical_form_pins_the_forms_of_symmetric_families():
    # symmetric graphs whose children split cells (the matching, Petersen,
    # the rook graph, the cycle) or split none (K_8 and the stars, up to
    # 800 levels deep): the digest pins their forms, so a change to how a
    # child is refined must return the same edge tuples
    digest = hashlib.sha256()
    for g in (
        MATCHING_10, PETERSEN, ROOK_4X4, cycle(12), complete(8),
        *(SimpleGraph(k + 1, [(1, v) for v in range(2, k + 2)]) for k in (30, 400, 800)),
    ):
        digest.update(f"{canonical_form(g)}\n".encode())
    assert digest.hexdigest() == "43b615b6de026605de281a46b2c5f51e330944e683e8532fecce85fa60ca12cf"


def test_canonical_form_separates_non_isomorphic():
    # same degree sequence (2,2,2,2,2,2), different graphs
    hexagon = cycle(6)
    two_triangles = SimpleGraph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert canonical_form(hexagon) != canonical_form(two_triangles)
    assert not is_isomorphic(hexagon, two_triangles)
    assert is_isomorphic(cycle(5), relabel(cycle(5), {1: 3, 2: 5, 3: 1, 4: 2, 5: 4}))
    # the form holds no vertex count, so it separates graphs only on the
    # same number of vertices: an isolated vertex more leaves it unchanged
    one_edge, one_edge_and_isolated = SimpleGraph(3, [(1, 2)]), SimpleGraph(4, [(1, 2)])
    assert canonical_form(one_edge) == canonical_form(one_edge_and_isolated) == ((1, 2),)
    assert not is_isomorphic(one_edge, one_edge_and_isolated)


def test_canonical_form_permutation_cap():
    # the cap counts the nodes of the pruned search: 65 on this perfect
    # matching (the unpruned search needs over 10^6)
    with pytest.raises(CapExceededError, match="cap of 32 nodes"):
        canonical_form(MATCHING_10, perm_cap=32)
    canonical_form(MATCHING_10, perm_cap=100)
    # a triangle with tails of one and two edges at two corners is
    # discrete after refinement at the root, which is still one node
    tailed = SimpleGraph(6, [(1, 2), (1, 3), (2, 3), (1, 4), (2, 5), (5, 6)])
    assert canonical_form(tailed, perm_cap=1) == (
        (1, 2), (1, 4), (1, 6), (2, 3), (2, 4), (3, 5),
    )
    with pytest.raises(CapExceededError, match="cap of 0 nodes"):
        canonical_form(tailed, perm_cap=0)


@pytest.mark.parametrize(
    "g,nodes",
    [
        (SimpleGraph(40, [(2 * i - 1, 2 * i) for i in range(1, 21)]), 230),
        (SimpleGraph(31, [(1, v) for v in range(2, 32)]), 30),
        (complete(14), 14),
        (
            SimpleGraph(
                12,
                [(u, v) for u, v in all_pairs(12) if (u - 1) // 4 != (v - 1) // 4],
            ),
            25,
        ),
        (cycle(30), 6),
        (PETERSEN, 10),
        (ROOK_4X4, 15),
        (CUBIC_TEN, 12),
        (MATCHING_10, 65),
        (  # the cube Q3: 0..7 (shifted to 1..8) adjacent when one bit apart
            SimpleGraph(
                8, [(u + 1, (u ^ 1 << b) + 1) for u in range(8) for b in range(3) if u < u ^ 1 << b]
            ),
            10,
        ),
        (SimpleGraph(6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)]), 9),
        (  # the triangular prism
            SimpleGraph(
                6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (1, 4), (2, 5), (3, 6)]
            ),
            8,
        ),
        (cycle(12), 6),
        (complete(8), 8),
        (SimpleGraph(401, [(1, v) for v in range(2, 402)]), 400),
    ],
    ids=[
        "matching20", "star30", "K14", "K444", "C30",
        "Petersen", "rook4x4", "cubic10", "matching10", "Q3", "K33", "prism",
        "C12", "K8", "star400",
    ],
)
def test_canonical_form_search_tree_size(g, nodes):
    # the exact number of nodes the pruned search enters, so a change to
    # the twin or equal-leaf pruning that grows or shrinks the tree shows
    canonical_form(g, perm_cap=nodes)
    with pytest.raises(CapExceededError, match=f"cap of {nodes - 1} nodes"):
        canonical_form(g, perm_cap=nodes - 1)


@pytest.mark.slow
def test_canonical_form_past_the_recursion_limit_is_a_cap_error():
    # individualizing one leaf of K_{1,k} leaves the other k - 1 in one cell,
    # so the search goes k levels deep: past Python's recursion limit at
    # k = 1,100, where it refuses as it does past perm_cap
    star = SimpleGraph(1101, [(1, v) for v in range(2, 1102)])
    with pytest.raises(CapExceededError, match="^n = 1101: .* recursion limit$"):
        canonical_form(star)


@pytest.mark.parametrize("cap", ["10", 2.5])
def test_canonical_form_rejects_non_integer_cap(cap):
    message = re.escape(f"perm_cap {cap!r} is not an integer")
    with pytest.raises(DomainError, match=message):
        canonical_form(cycle(5), perm_cap=cap)


@pytest.mark.parametrize(
    "g",
    [complete(8), PETERSEN, SimpleGraph(16, [(1, v) for v in range(2, 17)])],
    ids=["K8", "petersen", "star15"],
)
def test_canonical_form_prunes_symmetric_graphs(g):
    # the unpruned search enters 69,281 nodes on K_8 and 221 on Petersen and
    # walks towards 15! leaves on the star; the star's leaves are open twins
    canonical_form(g, perm_cap=64)
