"""Exhaustive realization search and index-monotone transformation moves.

The enumerator walks adjacency rows in label order: at the first vertex
with unmet degree it chooses that vertex's remaining neighbors among the
later vertices, pruning branches whose residual degrees fail the
Erdos-Gallai test and, in connected mode, branches that seal off a
component early.  This is exact: every labeled realization appears exactly
once, in a deterministic order.

``search_max_m2`` certifies the exact maximum of the index over all
connected realizations.  Because the index is invariant under relabeling,
the search fixes the canonical degree assignment d(v_i) = d_i; the
reported realization count is the count for that assignment.
``enumerate_realizations`` instead streams every labeled graph whose
sorted degree multiset equals the sequence, across all assignments.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional, Sequence

from .errors import CapExceededError, DomainError, ParseError
from .graphs import SimpleGraph, canonical_form, is_connected
from .sequences import (
    DegreeSequence,
    _erdos_gallai,
    is_connected_realizable,
    is_graphic,
)

DEFAULT_CAP = 10
CAP_ENV_VAR = "ZAGREBMAX_ORACLE_CAP"


def default_cap() -> int:
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CAP
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"{CAP_ENV_VAR}={raw!r} is not an integer") from None


@dataclass(frozen=True)
class OracleResult:
    max_m2: int
    witness: SimpleGraph
    realization_count: int
    elapsed: float


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


def _iter_edges(
    targets: Sequence[int],
    connected_only: bool,
    first_choice: Optional[tuple[int, ...]] = None,
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield each labeled realization of d(v_i) = targets[i] (0-based) once,
    as a lexicographically sorted tuple of 0-based edges."""
    n = len(targets)
    full = (1 << n) - 1
    res = list(targets)
    adj = [0] * n
    edges: list[tuple[int, int]] = []

    def component(v: int) -> int:
        comp = 1 << v
        frontier = comp
        while frontier:
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                nxt |= adj[low.bit_length() - 1]
                f ^= low
            frontier = nxt & ~comp
            comp |= frontier
        return comp

    def rec(i: int) -> Iterator[tuple[tuple[int, int], ...]]:
        while i < n and res[i] == 0:
            i += 1
        if i == n:
            if connected_only and component(0) != full:
                return
            yield tuple(edges)
            return
        need = res[i]
        cand = [j for j in range(i + 1, n) if res[j] > 0]
        if need > len(cand):
            return
        bit_i = 1 << i
        if i == 0 and first_choice is not None:
            choices: Iterator[tuple[int, ...]] = iter([first_choice])
        else:
            choices = combinations(cand, need)
        for combo in choices:
            res[i] = 0
            for j in combo:
                res[j] -= 1
            tail = sorted(res[i + 1 :], reverse=True)
            good = _erdos_gallai(tail)
            if good:
                for j in combo:
                    adj[i] |= 1 << j
                    adj[j] |= bit_i
                if connected_only:
                    comp = component(i)
                    if comp != full:
                        live = 0
                        for v in range(n):
                            if res[v] > 0:
                                live |= 1 << v
                        if comp & live == 0:
                            good = False
                if good:
                    edges.extend((i, j) for j in combo)
                    yield from rec(i + 1)
                    del edges[len(edges) - need :]
                for j in combo:
                    adj[i] ^= 1 << j
                    adj[j] ^= bit_i
            for j in combo:
                res[j] += 1
            res[i] = need

    yield from rec(0)


def _distinct_assignments(degrees: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Distinct permutations of the degree multiset, descending lex order."""
    values = sorted(set(degrees), reverse=True)
    counts = {v: degrees.count(v) for v in values}
    n = len(degrees)
    acc: list[int] = []

    def rec() -> Iterator[tuple[int, ...]]:
        if len(acc) == n:
            yield tuple(acc)
            return
        for v in values:
            if counts[v] > 0:
                counts[v] -= 1
                acc.append(v)
                yield from rec()
                acc.pop()
                counts[v] += 1

    yield from rec()


def enumerate_realizations(
    seq: DegreeSequence,
    connected_only: bool = True,
    cap: Optional[int] = None,
    isomorphism_reduce: bool = False,
) -> Iterator[SimpleGraph]:
    """Stream every labeled simple graph whose sorted degree multiset equals
    ``seq``, optionally restricted to connected graphs.  Deterministic order;
    each graph appears exactly once.  With ``isomorphism_reduce`` only the
    first representative of each isomorphism class is yielded (slower: each
    graph is canonicalized)."""
    cap = default_cap() if cap is None else cap
    if seq.n > cap:
        raise CapExceededError(f"n = {seq.n} exceeds the enumeration cap {cap}")
    if not is_graphic(seq):
        raise DomainError(f"({seq.to_text()}) is not graphic")
    seen: set = set()
    for assignment in _distinct_assignments(seq.degrees):
        for edges in _iter_edges(assignment, connected_only):
            g = SimpleGraph(seq.n, [(u + 1, v + 1) for u, v in edges])
            if isomorphism_reduce:
                key = canonical_form(g)
                if key in seen:
                    continue
                seen.add(key)
            yield g


def _scan_subtree(
    targets: tuple[int, ...], first_choice: Optional[tuple[int, ...]]
) -> tuple[int, int, Optional[tuple[tuple[int, int], ...]]]:
    """(count, best_m2, best_edges) over one branch of the search tree."""
    count = 0
    best_m2 = -1
    best_edges: Optional[tuple[tuple[int, int], ...]] = None
    for edges in _iter_edges(targets, True, first_choice):
        count += 1
        m2 = 0
        for u, v in edges:
            m2 += targets[u] * targets[v]
        if m2 > best_m2 or (m2 == best_m2 and best_edges is not None and edges < best_edges):
            best_m2 = m2
            best_edges = edges
    return count, best_m2, best_edges


def search_max_m2(
    seq: DegreeSequence, cap: Optional[int] = None, workers: int = 1
) -> OracleResult:
    """Certify the exact maximum second Zagreb index over all connected
    realizations, with one witness graph.

    The search tree is partitioned by the root vertex's neighbor choice;
    ``workers`` only controls how the partitions are evaluated, the result
    is identical for any worker count (counts add, maxima reduce with a
    canonical edge-list tie-break).
    """
    cap = default_cap() if cap is None else cap
    if seq.n > cap:
        raise CapExceededError(f"n = {seq.n} exceeds the enumeration cap {cap}")
    if not is_connected_realizable(seq):
        raise DomainError(
            f"({seq.to_text()}) has no connected realization; search space is empty"
        )
    start = time.perf_counter()
    targets = seq.degrees
    n = seq.n
    tasks: list[Optional[tuple[int, ...]]]
    if n > 1:
        tasks = list(combinations(range(1, n), targets[0]))
    else:
        tasks = [None]

    if workers <= 1:
        partials = [_scan_subtree(targets, t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(lambda t: _scan_subtree(targets, t), tasks))

    count = 0
    best_m2 = -1
    best_edges: Optional[tuple[tuple[int, int], ...]] = None
    for c, m2, edges in partials:
        count += c
        if edges is None:
            continue
        if m2 > best_m2 or (m2 == best_m2 and edges < best_edges):
            best_m2 = m2
            best_edges = edges
    if best_edges is None:
        raise DomainError(
            f"internal: ({seq.to_text()}) passed realizability but produced no graph"
        )
    witness = SimpleGraph(n, [(u + 1, v + 1) for u, v in best_edges])
    return OracleResult(
        max_m2=best_m2,
        witness=witness,
        realization_count=count,
        elapsed=time.perf_counter() - start,
    )


def apply_edge_swap(g: SimpleGraph, move: EdgeSwap) -> SimpleGraph:
    """Perform the two-edge exchange; the degree multiset is preserved.

    The index changes by exactly (d(v1)-d(u2)) * (d(v2)-d(u1)), so it cannot
    decrease when d(v1) >= d(u2) and d(v2) >= d(u1), strictly increasing iff
    both inequalities are strict.
    """
    v1, u1, v2, u2 = move.v1, move.u1, move.v2, move.u2
    vertices = {v1, u1, v2, u2}
    if len(vertices) != 4:
        raise DomainError(f"swap endpoints must be four distinct vertices: {move}")
    if not (g.has_edge(v1, u1) and g.has_edge(v2, u2)):
        raise DomainError(f"swap requires edges ({v1},{u1}) and ({v2},{u2}) present")
    if g.has_edge(v1, v2) or g.has_edge(u1, u2):
        raise DomainError(f"swap requires ({v1},{v2}) and ({u1},{u2}) absent")
    return g.replace_edges(remove=[(v1, u1), (v2, u2)], add=[(v1, v2), (u1, u2)])


def apply_neighbor_transfer(g: SimpleGraph, move: NeighborTransfer) -> SimpleGraph:
    """Re-attach the listed neighbors of v to u; degrees change only at u
    (+k) and v (-k).  The empty transfer returns the graph unchanged."""
    u, v, moved = move.u, move.v, move.moved
    if u == v or not (1 <= u <= g.n and 1 <= v <= g.n):
        raise DomainError(f"transfer needs two distinct vertices, got ({u},{v})")
    if len(set(moved)) != len(moved):
        raise DomainError("transfer list contains duplicates")
    for w in moved:
        if w == u or w == v:
            raise DomainError(f"cannot transfer endpoint {w}")
        if not g.has_edge(v, w):
            raise DomainError(f"vertex {w} is not a neighbor of {v}")
        if g.has_edge(u, w):
            raise DomainError(f"vertex {w} is already a neighbor of {u}")
    if not moved:
        return g
    return g.replace_edges(
        remove=[(v, w) for w in moved], add=[(u, w) for w in moved]
    )


def hill_climb(g: SimpleGraph) -> tuple[SimpleGraph, list[EdgeSwap]]:
    """First-improvement hill climb over edge swaps.

    Scans candidate swaps in canonical order (sorted edge pairs, then the
    two pairings), accepting the first one that strictly increases the
    index and keeps the graph connected.  Swaps that would disconnect the
    graph are rejected even when the index would rise.
    """
    if not is_connected(g):
        raise DomainError("hill climb requires a connected graph")
    applied: list[EdgeSwap] = []
    improved = True
    while improved:
        improved = False
        deg = g.degrees()
        for (a, b), (c, e) in combinations(g.edges, 2):
            if a in (c, e) or b in (c, e):
                continue
            for v1, u1, v2, u2 in ((a, b, c, e), (a, b, e, c)):
                if g.has_edge(v1, v2) or g.has_edge(u1, u2):
                    continue
                gain = (deg[v1] - deg[u2]) * (deg[v2] - deg[u1])
                if gain <= 0:
                    continue
                move = EdgeSwap(v1, u1, v2, u2)
                candidate = apply_edge_swap(g, move)
                if not is_connected(candidate):
                    continue
                g = candidate
                applied.append(move)
                improved = True
                break
            if improved:
                break
    return g, applied


def local_search(g: SimpleGraph) -> SimpleGraph:
    """Hill-climb endpoint: same degree sequence, index never lower, and no
    improving connectivity-preserving swap remains."""
    return hill_climb(g)[0]
