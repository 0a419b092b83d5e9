"""Exhaustive realization search and index-monotone transformation moves.

The enumerator walks adjacency rows in label order: at the first vertex
with unmet degree it places that vertex's remaining edges to later vertices
one at a time, pruning, in connected mode, rows that seal off a component
early.  A branch whose residual degrees no graph realizes yields nothing:
each of its paths stops at a row with more unmet degree than candidates, if
nothing cuts it sooner.  This is exact: every labeled realization appears
exactly once, in a deterministic order.

``search_max_m2`` certifies the exact maximum of the index over all
connected realizations by branch-and-bound over the same walk, skipping
every branch whose upper bound cannot beat the best realization found so
far.  Because the index is invariant under relabeling, the search fixes the
canonical degree assignment d(v_i) = d_i.  It finds the maximum without
counting realizations; ``enumerate_realizations`` streams every labeled
graph whose sorted degree multiset equals the sequence, across all
assignments (only the canonical one when reducing up to isomorphism).

The search and the isomorphism-reduced enumeration also skip interchangeable
vertices (the vertex-transposition case of orderly generation: Read, 1978;
McKay, 1998).  At row i, before i's edges are placed, two later candidates
j < k are twins when they have the same residual degree and the same
adjacency so far; their target degrees then agree too.  Neither has an edge
to a row >= i yet, so the transposition (j k) fixes every placed edge, the
degree assignment, connectivity and the index.  A row that takes k without
j therefore has an isomorphic copy with the same index whose edge list is
lexicographically smaller, so the walk places an edge to k only once the
edge to the twin before k is placed.  The lexicographically smallest graph
of every isomorphism class never breaks this rule, so it is still walked,
in the same order: the branch-and-bound still ends at the lexicographically
smallest maximum, and the reduced enumeration still yields the first
labeled representative of each class.  Plain enumeration counts labeled
graphs and walks every one.

The reduced enumeration applies the same transpositions to whole leaves: a
leaf that swapping two vertices of equal degree maps to a lexicographically
smaller edge list is not the first of its class and is dropped before any
graph is built.  The rest are told apart by canonical form only where two
of them share a joint degree matrix, so a class met once costs no form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional, Sequence

from .errors import CapExceededError, DomainError
from .graphs import SimpleGraph, canonical_form, is_connected
from .sequences import DegreeSequence, _as_int, is_connected_realizable, is_graphic

DEFAULT_CAP = 10
# `_Walk.pairing` for a child with no connected completion: low enough that
# no placed index plus it beats an incumbent
_CUT = -1 << 62


@dataclass(frozen=True)
class OracleResult:
    max_m2: int
    witness: SimpleGraph
    nodes: int


@dataclass(frozen=True)
class EdgeSwap:
    """Remove v1-u1 and v2-u2, add v1-v2 and u1-u2 (degrees unchanged)."""

    v1: int
    u1: int
    v2: int
    u2: int


@dataclass(frozen=True)
class NeighborTransfer:
    """Re-attach the listed neighbors of v to u instead."""

    u: int
    v: int
    moved: tuple[int, ...]


@dataclass
class _Walk:
    """Yield each labeled realization of d(v_i) = targets[i] (0-based) once,
    as a lexicographically sorted tuple of 0-based edges, in lexicographic
    order.  With ``connected_only`` a full row is dropped as soon as the
    component of its row vertex is finished short of all vertices; a child
    whose residual degrees are not graphic is entered and yields nothing.
    A leaf needs no connectivity test of its own.  The targets are positive,
    so a leaf is reached through a row, and that row leaves no vertex with
    unmet degree: the prune has already dropped it unless the component of
    its row vertex is every vertex.  ``nodes`` counts the search nodes
    entered.  A walk is iterated once: an abandoned one leaves ``res``,
    ``adj`` and ``edges`` in the middle of a row.

    With ``bound`` the walk is a branch-and-bound for the largest index
    (``targets`` must be non-increasing): a child is entered only if the
    index of its placed edges plus the best pairing of the remaining stubs
    exceeds ``m2``, the index of the last leaf yielded.  That pairing lists
    each vertex's target degree once per remaining stub, in descending
    order, and sums w0*w1 + w2*w3 + ...; by the rearrangement inequality no
    completion does better.  Each leaf yielded then beats every earlier one,
    so the last is the lexicographically smallest maximum.

    With ``connected_only`` and n > 2 the pairing also knows that no two
    leaves (target 1) are adjacent, since such an edge would be a component
    of its own.  The leaves come last in the non-increasing targets, so
    ``pairing`` scans back from the last non-leaf vertex, gives each
    remaining leaf stub the smallest remaining non-leaf stub, and pairs the
    rest as above.  No completion does better: if a leaf takes a stub of
    weight a while a smaller stub b is paired with c >= 1, swapping a and b
    changes the sum by (a - b)(c - 1) >= 0.  A child with more leaf stubs
    than non-leaf stubs has no connected completion and is cut.  Without
    the guard the bound would drop 2K2 from a disconnected walk on 1^4, and
    K2 itself is two adjacent leaves.

    With ``twins`` the walk skips interchangeable vertices.  At row i the
    candidates j < k are twins when ``res[j] == res[k]`` and
    ``adj[j] == adj[k]`` before the row (target = residual + placed degree,
    so the targets agree), and the row places an edge to k only if the edge
    to the twin before k is already placed.  The transposition (j k) fixes
    every earlier edge, so a graph that takes k without j has a
    lexicographically smaller isomorphic copy with the same index on this
    walk.  The lexicographically smallest graph of each isomorphism class is
    therefore still yielded, in the same order, and so is the
    lexicographically smallest maximum; the other labeled graphs are not, so
    counting needs ``twins`` off.
    """

    targets: Sequence[int]
    connected_only: bool
    bound: bool = False
    twins: bool = False

    def __post_init__(self) -> None:
        self.res = list(self.targets)
        self.adj = [0] * len(self.targets)
        self.edges: list[tuple[int, int]] = []
        self.m2 = -1
        self.nodes = 0
        n = len(self.targets)
        # the leaves, targets 1, come last in a non-increasing bound walk
        self.leaf_start = n
        if self.bound and self.connected_only and n > 2:
            self.leaf_start = n - self.targets.count(1)

    def __iter__(self) -> Iterator[tuple[tuple[int, int], ...]]:
        try:
            yield from self.row(0, 0)
        except RecursionError:
            raise CapExceededError(
                f"n = {len(self.targets)}: the search recurses once per row, "
                "past Python's recursion limit"
            ) from None

    def sealed(self, v: int) -> bool:
        """Whether v's component has no vertex with unmet degree and is not
        every vertex."""
        res, adj = self.res, self.adj
        comp = frontier = 1 << v
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                u = low.bit_length() - 1
                if res[u]:
                    return False
                nxt |= adj[u]
                frontier ^= low
            frontier = nxt & ~comp
            comp |= frontier
        return comp != (1 << len(res)) - 1

    def pairing(self, start: int) -> int:
        # from the back: the leaf stubs past leaf_start take the smallest
        # stubs, and the rest pair up from the smallest, the same pairs as
        # from the largest since the stub count is even
        res, targets = self.res, self.targets
        end = self.leaf_start
        owed = sum(res[end:]) if end < len(res) else 0
        total = carry = 0
        for v in range(end - 1, start - 1, -1):
            r = res[v]
            if r:
                t = targets[v]
                if owed:
                    if owed >= r:
                        total += r * t
                        owed -= r
                        continue
                    total += owed * t
                    r -= owed
                    owed = 0
                if carry:
                    total += carry * t
                    r -= 1
                    carry = 0
                total += (r >> 1) * t * t
                if r & 1:
                    carry = t
        return _CUT if owed else total

    def pick(self, i: int, cand: list[int], pred: list[int], p: int, m2: int) -> Iterator[int]:
        """Place i's remaining edges to cand[p:] one at a time, and yield the
        index so far at each full row.  pred[r] is the twin before cand[r],
        or -1; cand[r] is taken only once that twin is adjacent to i."""
        res, adj, edges, targets = self.res, self.adj, self.edges, self.targets
        bit_i = 1 << i
        t_i = targets[i]
        for r in range(p, len(cand) - res[i] + 1):
            q = pred[r]
            if q >= 0 and not adj[i] >> q & 1:
                continue
            j = cand[r]
            res[i] -= 1
            res[j] -= 1
            adj[i] |= 1 << j
            adj[j] |= bit_i
            edges.append((i, j))
            placed = m2 + t_i * targets[j]
            if res[i]:
                yield from self.pick(i, cand, pred, r + 1, placed)
            else:
                yield placed
            edges.pop()
            adj[i] ^= 1 << j
            adj[j] ^= bit_i
            res[j] += 1
            res[i] += 1

    def row(self, i: int, m2: int) -> Iterator[tuple[tuple[int, int], ...]]:
        res = self.res
        n = len(res)
        self.nodes += 1
        while i < n and res[i] == 0:
            i += 1
        if i == n:
            self.m2 = m2
            yield tuple(self.edges)
            return
        cand = [j for j in range(i + 1, n) if res[j] > 0]
        pred = [-1] * len(cand)
        if self.twins:
            last: dict[tuple[int, int], int] = {}
            for r, j in enumerate(cand):
                key = (res[j], self.adj[j])
                pred[r] = last.get(key, -1)
                last[key] = j
        # recursing from this loop, not through pick, keeps the stack at
        # one frame per row plus one row's edges
        for placed in self.pick(i, cand, pred, 0, m2):
            if self.bound and placed + self.pairing(i + 1) <= self.m2:
                continue
            if self.connected_only and self.sealed(i):
                continue
            yield from self.row(i + 1, placed)


def _distinct_assignments(degrees: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Distinct permutations of the degree multiset, descending lex order:
    the standard previous-permutation step, from the non-increasing order."""
    a = sorted(degrees, reverse=True)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] <= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] >= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = reversed(a[i + 1 :])


def _check_cap(seq: DegreeSequence, cap: int) -> None:
    cap = _as_int(cap, "enumeration cap")
    if seq.n > cap:
        raise CapExceededError(f"n = {seq.n} exceeds the enumeration cap {cap}")


def enumerate_realizations(
    seq: DegreeSequence,
    connected_only: bool = True,
    cap: int = DEFAULT_CAP,
    isomorphism_reduce: bool = False,
) -> Iterator[SimpleGraph]:
    """Stream every labeled simple graph whose sorted degree multiset equals
    ``seq``, optionally restricted to connected graphs.  Deterministic order;
    each graph appears exactly once.

    With ``isomorphism_reduce`` only the first representative of each
    isomorphism class is yielded.  Every class has a labeling with
    d(v_i) = d_i, the first assignment walked, so only that assignment is
    walked, with twin pruning (see ``_Walk``); the later assignments would
    yield only repeats.  The walk is in lexicographic order, so the first
    representative of a class is its lexicographically smallest labeling on
    that assignment.  A leaf that a transposition of two equal-degree
    vertices maps to a smaller edge list is therefore not first, and is
    dropped before any graph is built (``_swap_is_smaller``).  The others
    are bucketed by their joint degree matrix, the sorted (d(u), d(v)) of
    their edges, which isomorphic graphs share: the first graph of a bucket
    is new, and canonical forms are taken only once a bucket holds a second.
    More than ``cap`` vertices raise ``CapExceededError``; only the CLI
    reads ``ZAGREBMAX_ORACLE_CAP``."""
    _check_cap(seq, cap)
    if not is_graphic(seq):
        raise DomainError(f"({seq.to_text()}) is not graphic")
    n, targets = seq.n, seq.degrees
    if not isomorphism_reduce:
        for assignment in _distinct_assignments(targets):
            for edges in _Walk(assignment, connected_only):
                yield SimpleGraph(n, [(u + 1, v + 1) for u, v in edges])
        return
    swaps = _swap_pairs(targets)
    # joint degree matrix -> the one graph yielded with it, or the canonical
    # forms of all of them once a second graph has it
    lone: dict[tuple, SimpleGraph] = {}
    forms: dict[tuple, set] = {}
    walk = _Walk(targets, connected_only, twins=True)
    for edges in walk:
        if _swap_is_smaller(walk.adj, swaps):
            continue
        g = SimpleGraph(n, [(u + 1, v + 1) for u, v in edges])
        key = tuple(sorted([(targets[u], targets[v]) for u, v in edges]))
        seen = forms.get(key)
        if seen is None:
            if key not in lone:
                lone[key] = g
                yield g
                continue
            seen = forms[key] = {canonical_form(lone.pop(key))}
        form = canonical_form(g)
        if form not in seen:
            seen.add(form)
            yield g


def _swap_pairs(targets: Sequence[int]) -> list[tuple[int, int, int]]:
    """(j, k, mask) for each pair j < k of equal targets, where mask clears
    bits j and k."""
    return [
        (j, k, ~(1 << j | 1 << k))
        for j, k in combinations(range(len(targets)), 2)
        if targets[j] == targets[k]
    ]


def _swap_is_smaller(adj: Sequence[int], swaps: list[tuple[int, int, int]]) -> bool:
    """Whether a transposition (j k) from ``swaps`` maps the graph with
    adjacency bitmasks ``adj`` to a lexicographically smaller sorted edge
    list.

    Compare the rows u = 0, 1, ... of the graph and of its image (each row
    u lists u's neighbours above u); the first row that differs decides,
    and the list holding that row's lowest differing vertex is smaller.  A
    row u < j differs only where u is adjacent to exactly one of j and k,
    and then the image is smaller when u is k's neighbour, whose edge the
    image moves to j.  If no u < j is, row j of the image is k's row with j
    taken for k, and it differs from j's row at each vertex above j, other
    than k, adjacent to exactly one of them; again the image is smaller when
    the lowest is k's neighbour.  So the lowest vertex other than j and k
    adjacent to exactly one of them decides, and with none the
    transposition is an automorphism."""
    for j, k, mask in swaps:
        x = (adj[j] ^ adj[k]) & mask
        if x & -x & adj[k]:
            return True
    return False


def search_max_m2(seq: DegreeSequence, cap: int = DEFAULT_CAP) -> OracleResult:
    """Certify the exact maximum second Zagreb index over all connected
    realizations, with one witness graph: the lexicographically smallest
    maximal edge list.

    A depth-first branch-and-bound over the rows that the enumerator walks,
    with twin pruning; ``nodes`` in the result counts the search nodes it
    entered.  The result holds no timing, so equal inputs give equal
    results; the CLI times the call.  More than ``cap`` vertices raise
    ``CapExceededError``; only the CLI reads ``ZAGREBMAX_ORACLE_CAP``.
    """
    _check_cap(seq, cap)
    if not is_connected_realizable(seq):
        raise DomainError(
            f"({seq.to_text()}) has no connected realization; search space is empty"
        )
    walk = _Walk(seq.degrees, True, bound=True, twins=True)
    best_edges: Optional[tuple[tuple[int, int], ...]] = None
    for best_edges in walk:
        pass
    if best_edges is None:
        raise DomainError(
            f"internal: ({seq.to_text()}) passed realizability but produced no graph"
        )
    witness = SimpleGraph(seq.n, [(u + 1, v + 1) for u, v in best_edges])
    return OracleResult(max_m2=walk.m2, witness=witness, nodes=walk.nodes)


def apply_edge_swap(g: SimpleGraph, move: EdgeSwap) -> SimpleGraph:
    """Perform the two-edge exchange; the degree multiset is preserved.

    The index changes by exactly (d(v1)-d(u2)) * (d(v2)-d(u1)), so it cannot
    decrease when d(v1) >= d(u2) and d(v2) >= d(u1), strictly increasing iff
    both inequalities are strict.

    Raises ``DomainError`` unless the four endpoints are distinct, v1-u1 and
    v2-u2 are edges, and v1-v2 and u1-u2 are not.  The edge tests are those
    of ``SimpleGraph.replace_edges``, whose message names the offending edge
    (``cannot remove absent edge (1,3)``).
    """
    v1, u1, v2, u2 = move.v1, move.u1, move.v2, move.u2
    vertices = {v1, u1, v2, u2}
    if len(vertices) != 4:
        raise DomainError(f"swap endpoints must be four distinct vertices: {move}")
    return g.replace_edges(remove=[(v1, u1), (v2, u2)], add=[(v1, v2), (u1, u2)])


def apply_neighbor_transfer(g: SimpleGraph, move: NeighborTransfer) -> SimpleGraph:
    """Re-attach the listed neighbors of v to u; degrees change only at u
    (+k) and v (-k).  The empty transfer returns the graph unchanged.

    Raises ``DomainError`` unless u and v are distinct vertices of g and the
    moved vertices are distinct, differ from u and v, are neighbors of v and
    are not neighbors of u.  The last two tests are those of
    ``SimpleGraph.replace_edges``, whose message names the offending edge
    (``cannot remove absent edge (3,5)``); a moved vertex outside 1..n is
    never a neighbor of v and fails there too."""
    u, v, moved = _as_int(move.u, "vertex"), _as_int(move.v, "vertex"), move.moved
    if u == v or not (1 <= u <= g.n and 1 <= v <= g.n):
        raise DomainError(f"transfer needs two distinct vertices, got ({u},{v})")
    if len(set(moved)) != len(moved):
        raise DomainError("transfer list contains duplicates")
    for w in moved:
        if w == u or w == v:
            raise DomainError(f"cannot transfer endpoint {w}")
    if not moved:
        return g
    return g.replace_edges(
        remove=[(v, w) for w in moved], add=[(u, w) for w in moved]
    )


def _gaining_swaps(g: SimpleGraph, deg: list[int]) -> Iterator[EdgeSwap]:
    """Each swap of two edges of g with four distinct endpoints, a positive
    gain (d(v1)-d(u2)) * (d(v2)-d(u1)) and both new edges absent, in
    canonical order: sorted edge pairs, then the two pairings.  The labels
    come from g's own edges, so absence is read off its adjacency directly."""
    adj = g._adjacency()
    for (a, b), (c, e) in combinations(g.edges, 2):
        if a in (c, e) or b in (c, e):
            continue
        for v1, u1, v2, u2 in ((a, b, c, e), (a, b, e, c)):
            gain = (deg[v1] - deg[u2]) * (deg[v2] - deg[u1])
            if gain > 0 and v2 not in adj[v1] and u2 not in adj[u1]:
                yield EdgeSwap(v1, u1, v2, u2)


def hill_climb(g: SimpleGraph) -> tuple[SimpleGraph, list[EdgeSwap]]:
    """First-improvement hill climb over edge swaps.

    Accepts the first swap from ``_gaining_swaps`` whose result is
    connected, skipping those that would disconnect the graph even when the
    index would rise, then restarts the scan on the new graph after each
    accepted move.  The generator alone fixes the order.
    """
    if not is_connected(g):
        raise DomainError("hill climb requires a connected graph")
    applied: list[EdgeSwap] = []
    deg = g.degrees()
    while True:
        for move in _gaining_swaps(g, deg):
            candidate = apply_edge_swap(g, move)
            if is_connected(candidate):
                g = candidate
                applied.append(move)
                break
        else:
            return g, applied
