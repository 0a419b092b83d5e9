"""Shared fixtures and brute-force reference implementations for the tests.

The two seven-vertex graphs realize (4,4,3,3,2,1,1): the first is what the
layered construction emits, the second beats it by one, showing the
construction is not extremal when the degree plateau condition fails.
The two thirteen-vertex graphs realize (4^5,1^8) and are non-isomorphic
optima with the same index.
"""

from itertools import combinations

from zagrebmax import (
    DegreeSequence,
    SimpleGraph,
    is_graphic,
    majorization_compare,
    MajorizationOrder,
)

SEVEN_VERTEX_GREEDY = SimpleGraph(
    7, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 6), (4, 7)]
)
SEVEN_VERTEX_BETTER = SimpleGraph(
    7, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 6), (3, 4), (5, 7)]
)

THIRTEEN_VERTEX_LAYERED = SimpleGraph(
    13,
    [
        (1, 2), (1, 3), (1, 4), (1, 5),
        (2, 3), (2, 4), (2, 6),
        (3, 7), (3, 8),
        (4, 9), (4, 10),
        (5, 11), (5, 12), (5, 13),
    ],
)
THIRTEEN_VERTEX_ALTERNATE = SimpleGraph(
    13,
    [
        (1, 2), (1, 3), (1, 4), (1, 6),
        (2, 4), (2, 5), (2, 7),
        (3, 5), (3, 8), (3, 9),
        (4, 10), (4, 11),
        (5, 12), (5, 13),
    ],
)


def all_pairs(n):
    return list(combinations(range(1, n + 1), 2))


def brute_force_buckets(n):
    """Scan all 2^C(n,2) labeled graphs on n vertices.

    Returns {(sorted-desc degree tuple): [total, connected]} counts.
    """
    pairs = all_pairs(n)
    m = len(pairs)
    buckets = {}
    for mask in range(1 << m):
        deg = [0] * (n + 1)
        adj = [[] for _ in range(n + 1)]
        for bit in range(m):
            if mask >> bit & 1:
                u, v = pairs[bit]
                deg[u] += 1
                deg[v] += 1
                adj[u].append(v)
                adj[v].append(u)
        key = tuple(sorted(deg[1:], reverse=True))
        entry = buckets.setdefault(key, [0, 0])
        entry[0] += 1
        seen = {1}
        stack = [1]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) == n:
            entry[1] += 1
    return buckets


def eg_quadratic(seq):
    """Reference Erdos-Gallai scan in O(n^2): re-sums d[:k] and min(k, d_j)
    for every k.  Same total-function contract as ``is_graphic``."""
    d = sorted((int(x) for x in seq), reverse=True)
    if not d:
        return True
    if d[-1] < 0 or sum(d) % 2 != 0:
        return False
    n = len(d)
    for k in range(1, n + 1):
        lhs = sum(d[:k])
        rhs = k * (k - 1) + sum(min(k, x) for x in d[k:])
        if lhs > rhs:
            return False
    return True


def assert_valid_chain(chain, a: DegreeSequence, b: DegreeSequence):
    """Every adjacency in the chain must be a single sorted graphic unit transfer."""
    steps = chain.steps
    assert steps[0].degrees == a.degrees
    assert steps[-1].degrees == b.degrees
    for cur, nxt in zip(steps, steps[1:]):
        assert sum(cur.degrees) == sum(nxt.degrees)
        diffs = [
            (i, y - x) for i, (x, y) in enumerate(zip(cur.degrees, nxt.degrees)) if x != y
        ]
        assert len(diffs) == 2
        (p, dp), (q, dq) = diffs
        assert p < q and dp == 1 and dq == -1
        assert nxt.degrees == tuple(sorted(nxt.degrees, reverse=True))
        assert is_graphic(nxt)
        assert majorization_compare(cur, nxt) in (
            MajorizationOrder.A_BELOW_B,
            MajorizationOrder.EQUAL,
        )


def valid_swaps(g):
    """All structurally valid edge swaps of g as (move-tuple, gain)."""
    from zagrebmax import EdgeSwap

    deg = g.degrees()
    out = []
    for (a, b), (c, e) in combinations(g.edges, 2):
        if a in (c, e) or b in (c, e):
            continue
        for v1, u1, v2, u2 in ((a, b, c, e), (a, b, e, c)):
            if g.has_edge(v1, v2) or g.has_edge(u1, u2):
                continue
            gain = (deg[v1] - deg[u2]) * (deg[v2] - deg[u1])
            out.append((EdgeSwap(v1, u1, v2, u2), gain))
    return out
