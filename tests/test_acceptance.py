"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from itertools import combinations

from zagrebmax import (
    DegreeSequence,
    apply_edge_swap,
    bicyclic_max_m2,
    canonical_form,
    construct_extremal,
    construct_extremal_bicyclic,
    degree_sequence_of,
    enumerate_realizations,
    is_connected,
    search_max_m2,
    second_zagreb,
)
from zagrebmax.sequences import (
    MajorizationOrder,
    check_optimality_conditions,
    connected_realizable_sequences,
    is_graphic,
    majorization_compare,
)
from helpers import (
    SEVEN_VERTEX_BETTER,
    SEVEN_VERTEX_GREEDY,
    THIRTEEN_VERTEX_ALTERNATE,
    THIRTEEN_VERTEX_LAYERED,
    brute_force_buckets,
    valid_swaps,
)


def _verdict(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_counterexample_instance():
    start = time.perf_counter()
    seq = DegreeSequence.parse("4,4,3,3,2,1,1")
    constructed = second_zagreb(construct_extremal(seq).graph)
    oracle = search_max_m2(seq)
    elapsed = time.perf_counter() - start
    ok = constructed == 86 and oracle.max_m2 >= 87 and elapsed < 5.0
    _verdict(
        1,
        ok,
        f"construction 86 vs oracle {oracle.max_m2} (>= 87) in {elapsed:.2f}s "
        f"(degree-plateau condition is necessary)",
    )


def test_criterion_2_theta_profile_values():
    start = time.perf_counter()
    ok = True
    details = []
    for n in range(5, 10):
        seq = DegreeSequence((3, 3) + (2,) * (n - 2))
        oracle = search_max_m2(seq).max_m2
        res = bicyclic_max_m2(seq)
        good = (
            oracle == 4 * n + 17
            and res.value == oracle
            and res.witness.family in ("two_cycles_path", "theta")
        )
        ok = ok and good
        details.append(f"n={n}:{oracle}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _verdict(2, ok, f"(3,3,2^(n-2)) maxima 4n+17: {' '.join(details)} in {elapsed:.1f}s")


def test_criterion_3_glued_cycles_profile_values():
    ok = True
    details = []
    for n in range(5, 10):
        seq = DegreeSequence((4,) + (2,) * (n - 1))
        oracle = search_max_m2(seq).max_m2
        ok = ok and oracle == 4 * n + 20
        details.append(f"n={n}:{oracle}")
    _verdict(3, ok, f"(4,2^(n-1)) maxima 4n+20: {' '.join(details)}")


def test_criterion_4_pendant_path_profiles():
    checked = 0
    ok = True
    spot = {}
    for s in range(1, 5):
        for k in range(4, 9):
            n = 1 + k + s
            if n > 9:
                continue
            degrees = (s + 4,) + (2,) * k + (1,) * s
            if degrees[0] > n - 1:
                continue
            seq = DegreeSequence(degrees)
            if 2 * s <= n - 5:
                expected = 4 * n + 2 * s * s + 10 * s + 20
            else:
                expected = s * n + 6 * n + s + 10
            oracle = search_max_m2(seq).max_m2
            closed = bicyclic_max_m2(seq).value
            ok = ok and oracle == expected == closed
            spot[(n, s)] = oracle
            checked += 1
    ok = ok and spot[(9, 2)] == 84 and spot[(8, 3)] == 85
    _verdict(
        4,
        ok,
        f"{checked} pendant-path profiles match the two closed forms; "
        f"spots n=9,s=2 -> {spot[(9, 2)]}, n=8,s=3 -> {spot[(8, 3)]}",
    )


def test_criterion_5_construction_optimal_under_conditions():
    total = 0
    mismatches = []
    for n in range(2, 9):
        for c in range(-1, 9):
            for seq in connected_realizable_sequences(n, c):
                if not check_optimality_conditions(seq).verdict:
                    continue
                total += 1
                got = second_zagreb(construct_extremal(seq).graph)
                want = search_max_m2(seq).max_m2
                if got != want:
                    mismatches.append((seq.to_text(), got, want))
    _verdict(
        5,
        not mismatches and total == 135,
        f"construction = oracle on all {total} admissible sequences with n <= 8 "
        f"and excess -1..8 "
        f"({len(mismatches)} mismatches)",
    )


def test_criterion_6_two_distinct_optima():
    seq = DegreeSequence.parse("4^5,1^8")
    built = second_zagreb(construct_extremal_bicyclic(seq).graph)
    m_a = second_zagreb(THIRTEEN_VERTEX_LAYERED)
    m_b = second_zagreb(THIRTEEN_VERTEX_ALTERNATE)
    distinct = canonical_form(THIRTEEN_VERTEX_LAYERED) != canonical_form(
        THIRTEEN_VERTEX_ALTERNATE
    )
    right_profile = (
        degree_sequence_of(THIRTEEN_VERTEX_ALTERNATE).degrees == seq.degrees
        and degree_sequence_of(THIRTEEN_VERTEX_LAYERED).degrees == seq.degrees
    )
    ok = built == m_a == m_b == 128 and distinct and right_profile
    _verdict(
        6,
        ok,
        f"two non-isomorphic (4^5,1^8) optima both at {m_a} = construction value {built}",
    )


def test_criterion_7_majorization_monotonicity():
    violations = []
    pairs = 0
    for n in (6, 7, 8):
        seqs = connected_realizable_sequences(n, 1)
        maxima = {}
        for seq in seqs:
            value = bicyclic_max_m2(seq).value
            oracle = search_max_m2(seq).max_m2
            if value != oracle:
                violations.append((seq.to_text(), "oracle-disagrees", value, oracle))
            maxima[seq.degrees] = value
        for a, b in combinations(seqs, 2):
            order = majorization_compare(a, b)
            if order == MajorizationOrder.A_BELOW_B:
                lo, hi = a, b
            elif order == MajorizationOrder.B_BELOW_A:
                lo, hi = b, a
            else:
                continue
            pairs += 1
            if maxima[lo.degrees] >= maxima[hi.degrees]:
                violations.append((lo.to_text(), hi.to_text()))
    _verdict(
        7,
        not violations,
        f"maxima strictly increase along all {pairs} comparable bicyclic pairs, "
        f"n in 6..8, oracle-certified ({len(violations)} violations)",
    )


def test_criterion_8_swap_never_decreases_under_preconditions():
    rng = random.Random(2024)
    pool = []
    for text in ("3,3,2,2,2,2", "4,3,2,2,2,2,1", "3,3,2,2,1,1", "4,4,3,3,2,1,1"):
        pool.extend(enumerate_realizations(DegreeSequence.parse(text)))
    candidates = []
    for g in pool:
        before = second_zagreb(g)
        deg = g.degrees()
        for move, _ in valid_swaps(g):
            if deg[move.v1] >= deg[move.u2] and deg[move.v2] >= deg[move.u1]:
                candidates.append((g, before, move, deg))
    rng.shuffle(candidates)
    sample = candidates[:1500]
    ok = len(sample) >= 1000
    strict_seen = equal_seen = 0
    for g, before, move, deg in sample:
        after = second_zagreb(apply_edge_swap(g, move))
        both_strict = deg[move.v1] > deg[move.u2] and deg[move.v2] > deg[move.u1]
        if after < before:
            ok = False
            break
        if after > before:
            strict_seen += 1
            if not both_strict:
                ok = False
                break
        else:
            equal_seen += 1
            if both_strict:
                ok = False
                break
    _verdict(
        8,
        ok,
        f"{len(sample)} precondition-satisfying swaps: none decreased the index; "
        f"{strict_seen} strict (both inequalities strict), {equal_seen} equal",
    )


def test_criterion_9_enumeration_soundness_and_determinism():
    mismatch = 0
    checked = 0
    for n in range(2, 7):
        buckets = brute_force_buckets(n)

        def partitions(slots, hi):
            if slots == 0:
                yield ()
                return
            for v in range(hi, 0, -1):
                for rest in partitions(slots - 1, v):
                    yield (v,) + rest

        for degs in partitions(n, n - 1):
            if sum(degs) % 2:
                continue
            seq = DegreeSequence(degs)
            total, connected = buckets.get(degs, (0, 0))
            if not is_graphic(seq):
                if total != 0:
                    mismatch += 1
                continue
            checked += 1
            got_total = sum(1 for _ in enumerate_realizations(seq, connected_only=False))
            got_conn = sum(1 for _ in enumerate_realizations(seq, connected_only=True))
            if got_total != total or got_conn != connected:
                mismatch += 1
    deterministic = True
    for text in ("3,3,2,2,2,2", "4,2,2,2,2"):
        seq = DegreeSequence.parse(text)
        results = {
            (r.max_m2, r.nodes, r.witness.edges)
            for r in (search_max_m2(seq) for _ in range(2))
        }
        deterministic = deterministic and len(results) == 1
    ok = mismatch == 0 and deterministic
    _verdict(
        9,
        ok,
        f"enumeration counts match the full adjacency scan for {checked} graphic "
        f"sequences with n <= 6; oracle identical across repeated runs",
    )
