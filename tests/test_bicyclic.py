"""Tests for the bicyclic family builders and the closed-form maxima."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import zagrebmax
from zagrebmax import (
    DegreeSequence,
    DomainError,
    bicyclic_max_m2,
    build_glued_cycles_with_paths,
    build_path_joined_cycles,
    build_theta,
    build_vertex_glued_cycles,
    construct_extremal,
    degree_sequence_of,
    is_connected,
    is_connected_realizable,
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


_HUGE = sys.maxsize + 1


@pytest.mark.parametrize(
    "call,n",
    [
        (f"build_vertex_glued_cycles({_HUGE}, 3)", _HUGE + 2),
        (f"build_path_joined_cycles(3, {_HUGE}, 3)", _HUGE + 5),
        (f"build_theta({_HUGE}, 2, 1)", _HUGE + 2),
        (f"build_glued_cycles_with_paths(3, 3, [{sys.maxsize}])", _HUGE + 4),
        ("build_vertex_glued_cycles(10**12, 3)", 10**12 + 2),
        ("build_theta(10**12, 2, 1)", 10**12 + 2),
        ("build_glued_cycles_with_paths(3, 3, [10**12])", 10**12 + 5),
    ],
    ids=[
        "glued", "path-joined", "theta", "pendant-paths",
        "glued-1e12", "theta-1e12", "pendant-paths-1e12",
    ],
)
def test_builder_order_that_cannot_be_held_is_a_cap_error(call, n):
    # SimpleGraph refuses the order before the builder's walk is read; a
    # builder that made its walk first would raise OverflowError or run out
    # of memory, so the child's address space is capped at 1 GiB
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    code = (
        "import zagrebmax\n"
        "try:\n"
        f"    zagrebmax.{call}\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(zagrebmax.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        preexec_fn=cap, capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        f"CapExceededError n = {n}: the graph's degree counts do not fit in memory\n"
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


def _agrees_with_oracle(orders):
    for n in orders:
        for seq in connected_realizable_sequences(n, 1):
            want = search_max_m2(seq, cap=n).max_m2
            assert bicyclic_max_m2(seq).value == want, seq.to_text()


def test_agrees_with_oracle_up_to_n16():
    _agrees_with_oracle(range(4, 17))


@pytest.mark.slow
def test_agrees_with_oracle_at_n17_n18():
    _agrees_with_oracle((17, 18))


def _workload_draw(rng, n, case):
    """A bicyclic sequence of the given case at order n, drawn from the
    profiles the ``scale`` benchmark workload sends."""
    if case == 1:
        return DegreeSequence((3, 3) + (2,) * (n - 2))
    if case == 2:
        return DegreeSequence((4,) + (2,) * (n - 1))
    if case in (3, 4):
        # profile (s+4, 2^(n-1-s), 1^s); case 3 iff 2s <= n-5
        lo, hi = (1, (n - 5) // 2) if case == 3 else ((n - 5) // 2 + 1, n - 5)
        s = rng.randint(lo, hi)
        return DegreeSequence((s + 4,) + (2,) * (n - 1 - s) + (1,) * s)
    while True:
        # all ones, the floors d1, d2 >= 3 and d3, d4 >= 2, then the
        # remaining n - 4 of the degree sum 2(n+1) spread at random
        deg = [3, 3, 2, 2] + [1] * (n - 4)
        for _ in range(n - 4):
            deg[rng.randrange(n)] += 1
        seq = DegreeSequence(deg)
        if seq.degrees[1] >= 3 and seq.degrees[-1] == 1 and is_connected_realizable(seq):
            return seq


def _pendant_paths_witness(p, q, *lengths):
    return build_glued_cycles_with_paths(p, q, lengths)


def _pendant_paths_notation(p, q, *lengths):
    return f"B({p},{q};{','.join(map(str, lengths))})"


# case: (its witness family, the family's builder, its notation), each
# applied to the result's params
_WITNESS_OF_CASE = {
    1: ("two_cycles_path", build_path_joined_cycles, "B({},{},{})".format),
    2: ("two_cycles_shared_vertex", build_vertex_glued_cycles, "B({},{})".format),
    3: ("shared_vertex_with_paths", _pendant_paths_witness, _pendant_paths_notation),
    4: ("shared_vertex_with_paths", _pendant_paths_witness, _pendant_paths_notation),
}


def test_witnesses_at_workload_sizes():
    rng = random.Random(2015)
    for case in range(1, 6):
        for n in (100, 2000, rng.randint(101, 1999)):
            seq = _workload_draw(rng, n, case)
            res = bicyclic_max_m2(seq)
            g = res.graph
            assert res.case_id == case, seq.to_text()
            assert degree_sequence_of(g).degrees == seq.degrees
            assert is_connected(g) and g.n == n and g.m == n + 1
            assert second_zagreb(g) == res.value
            if case == 5:
                assert (res.family, res.params) == ("layered_bfs", ())
                assert res.label() == "layered-bfs"
                assert g == construct_extremal(seq).graph
            else:
                family, build, notation = _WITNESS_OF_CASE[case]
                assert res.family == family and build(*res.params) == g
                assert res.label() == notation(*res.params)
