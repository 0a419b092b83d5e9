"""Shared fixtures and brute-force reference implementations for the tests.

The two seven-vertex graphs realize (4,4,3,3,2,1,1): the first is what the
layered construction emits, the second beats it by one, showing the
construction is not extremal when the degree plateau condition fails.
The two thirteen-vertex graphs realize (4^5,1^8) and are non-isomorphic
optima with the same index.
"""

import math
from dataclasses import dataclass, field
from itertools import combinations, permutations
from typing import Iterable, Iterator, Optional, Sequence

from zagrebmax import (
    CapExceededError,
    ConstructionError,
    DegreeSequence,
    DomainError,
    ParseError,
    SimpleGraph,
    canonical_form,
    is_graphic,
    majorization_compare,
    MajorizationOrder,
)
from zagrebmax.bicyclic import _glued_cycle_edges
from zagrebmax.constructor import ConstructionTrace
from zagrebmax.oracle import _distinct_assignments
from zagrebmax.sequences import (
    _as_int,
    check_optimality_conditions,
    is_connected_realizable,
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


def brute_force_maxima(n):
    """Scan all 2^C(n,2) labeled graphs on n vertices, independently of the
    enumerator.

    Keeps the connected graphs whose degree vector d(1), ..., d(n) is
    non-increasing and returns {degree tuple: (largest M2, smallest maximal
    edge tuple)}, edges 1-based and in lexicographic order.
    """
    pairs = all_pairs(n)
    best = {}
    for mask in range(1 << len(pairs)):
        edges = tuple(e for bit, e in enumerate(pairs) if mask >> bit & 1)
        deg = [0] * (n + 1)
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        key = tuple(deg[1:])
        if any(x < y for x, y in zip(key, key[1:])):
            continue
        seen = {1}
        grew = True
        while grew:
            grew = False
            for u, v in edges:
                if (u in seen) != (v in seen):
                    seen.update((u, v))
                    grew = True
        if len(seen) < n:
            continue
        m2 = sum(deg[u] * deg[v] for u, v in edges)
        old = best.get(key)
        if old is None or m2 > old[0] or (m2 == old[0] and edges < old[1]):
            best[key] = (m2, edges)
    return best


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
    steps = chain
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


def _refine_colors_reference(g):
    """Iterated neighborhood color refinement from the degree coloring; color
    ids are assigned by sorted signature."""
    degs = g.degrees()
    ranking = {d: i for i, d in enumerate(sorted(set(degs[1:]), reverse=True))}
    colors = [0] * (g.n + 1)
    for v in range(1, g.n + 1):
        colors[v] = ranking[degs[v]]
    ncolors = len(ranking)
    while True:
        sigs = {
            v: (colors[v], tuple(sorted(colors[u] for u in g.neighbors(v))))
            for v in range(1, g.n + 1)
        }
        remap = {sig: i for i, sig in enumerate(sorted(set(sigs.values())))}
        new = [0] * (g.n + 1)
        for v in range(1, g.n + 1):
            new[v] = remap[sigs[v]]
        if len(remap) == ncolors:
            return new
        colors = new
        ncolors = len(remap)


def _refine_unpruned(g: SimpleGraph, colors: list[int]) -> list[int]:
    """Refine a vertex coloring until every vertex of a color sees the same
    multiset of neighbor colors.  Color ids are canonical (assigned by sorted
    signature, which leads with the old color), so they agree across
    isomorphic colored graphs and keep the order of the cells they split."""
    ncolors = len(set(colors[1:]))
    while True:
        sigs = [
            (colors[v], tuple(sorted([colors[u] for u in g._adjacency()[v]])))
            for v in range(1, g.n + 1)
        ]
        remap = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colors = [0] + [remap[sig] for sig in sigs]
        if len(remap) == ncolors:
            return colors
        ncolors = len(remap)


def canonical_form_unpruned(
    g: SimpleGraph, perm_cap: int = 2_000_000
) -> tuple[tuple[int, int], ...]:
    """Canonical edge tuple: equal for two graphs iff they are isomorphic.

    Individualization-refinement (McKay & Piperno, "Practical graph
    isomorphism, II", 2014): color-refine the vertices by degree, take the
    first cell with more than one vertex (by color id), give each of its
    vertices in turn a color of its own, refine again and recurse.  Every
    choice is made on canonical colors, so the set of discrete leaves is the
    same for isomorphic graphs; the least relabeled edge list over those
    leaves is the form.  ``perm_cap`` bounds the search nodes entered;
    beyond it the search refuses.
    """
    best: tuple[tuple[int, int], ...] | None = None
    nodes = 0

    def search(colors: list[int]) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > perm_cap:
            raise CapExceededError(
                f"canonical form search exceeds its cap of {perm_cap} nodes"
            )
        sizes = [0] * g.n
        for c in colors[1:]:
            sizes[c] += 1
        target = next((c for c, size in enumerate(sizes) if size > 1), None)
        if target is None:
            cand = tuple(
                sorted(
                    (colors[u] + 1, colors[v] + 1)
                    if colors[u] < colors[v]
                    else (colors[v] + 1, colors[u] + 1)
                    for u, v in g.edges
                )
            )
            if best is None or cand < best:
                best = cand
            return
        cell = [v for v in range(1, g.n + 1) if colors[v] == target]
        for v in cell:
            split = [2 * c + (c == target) for c in colors]
            split[v] = 2 * target
            search(_refine_unpruned(g, split))

    search(_refine_unpruned(g, [-d for d in g.degrees()]))
    assert best is not None
    return best


def canonical_form_by_permutations(g, perm_cap=2_000_000):
    """Reference canonical form: color-refine once, then take the least
    relabeled edge list over every ordering that respects the stable color
    partition (the product of the cell factorials; refuses above
    ``perm_cap``)."""
    colors = _refine_colors_reference(g)
    cells = {}
    for v in range(1, g.n + 1):
        cells.setdefault(colors[v], []).append(v)
    ordered_cells = [cells[c] for c in sorted(cells)]
    total = math.prod(math.factorial(len(cell)) for cell in ordered_cells)
    if total > perm_cap:
        raise CapExceededError(
            f"canonical form would scan {total} orderings (cap {perm_cap})"
        )
    best = None
    position = [0] * (g.n + 1)

    def assign(cell_idx):
        nonlocal best
        if cell_idx == len(ordered_cells):
            cand = tuple(
                sorted(
                    (position[u], position[v])
                    if position[u] < position[v]
                    else (position[v], position[u])
                    for u, v in g.edges
                )
            )
            if best is None or cand < best:
                best = cand
            return
        cell = ordered_cells[cell_idx]
        start = 1 + sum(len(c) for c in ordered_cells[:cell_idx])
        for perm in permutations(cell):
            for offset, v in enumerate(perm):
                position[v] = start + offset
            assign(cell_idx + 1)

    assign(0)
    return best


# --- the realization walk by whole combinations, kept as the reference ------
#
# The realization walk (oracle._Walk) and its twin-class subset generator as
# they were before the walk placed each edge of a row on its own, when it was
# a generator function with a separate incumbent; the only change is the names.


@dataclass
class Incumbent:
    """Branch-and-bound state: the best M2 found so far and the nodes entered."""

    m2: int = -1
    nodes: int = 0


def twin_combinations(
    cand: list[int], need: int, pred: list[int]
) -> Iterator[tuple[int, ...]]:
    """The ``need``-subsets of ``cand`` that take from each twin class only a
    prefix, in lexicographic order.  ``pred[p]`` is the position in ``cand``
    of the previous member of p's class, or -1: p may be taken only when
    that member was.  Choosing the next position r skips every position
    before it, so a skipped member closes its class."""
    m = len(cand)
    taken = [False] * m
    chosen: list[int] = []

    def pick(p: int, k: int) -> Iterator[tuple[int, ...]]:
        for r in range(p, m - k + 1):
            q = pred[r]
            if q < 0 or taken[q]:
                taken[r] = True
                chosen.append(cand[r])
                if k == 1:
                    yield tuple(chosen)
                else:
                    yield from pick(r + 1, k - 1)
                chosen.pop()
                taken[r] = False

    return pick(0, need)


def iter_edges_by_combinations(
    targets: Sequence[int],
    connected_only: bool,
    incumbent: Optional[Incumbent] = None,
    twins: bool = False,
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield each labeled realization of d(v_i) = targets[i] (0-based) once,
    as a lexicographically sorted tuple of 0-based edges, in lexicographic
    order.  With ``connected_only`` a child is dropped as soon as the
    component of its row vertex is finished short of all vertices; a child
    whose residual degrees are not graphic is entered and yields nothing.
    A leaf needs no connectivity test of its own.  The targets are positive,
    so a leaf is reached through a placement, and that placement leaves no
    vertex with unmet degree: the prune has already dropped it unless the
    component of its row vertex is every vertex.

    With an ``incumbent`` the walk is a branch-and-bound for the largest
    index (``targets`` must be non-increasing): a child is entered only if
    the index of its placed edges plus the best pairing of the remaining
    stubs exceeds ``incumbent.m2``.  That pairing lists each vertex's target
    degree once per remaining stub, in descending order, and sums
    w0*w1 + w2*w3 + ...; by the rearrangement inequality no completion does
    better.  With ``connected_only`` and n > 2 each leaf stub (target 1)
    first takes one of the smallest non-leaf stubs, and a child with more
    leaf stubs than non-leaf stubs is cut.  Each leaf yielded then beats
    every earlier one, so the last is the lexicographically smallest
    maximum.

    With ``twins`` the walk skips interchangeable vertices.  At row i the
    candidates j < k are twins when ``res[j] == res[k]`` and
    ``adj[j] == adj[k]`` (target = residual + placed degree, so the targets
    agree), and a combination may take k only if it also takes j.  The
    transposition (j k) fixes every edge placed so far, so a graph that
    takes k without j has a lexicographically smaller isomorphic copy with
    the same index on this walk.  The lexicographically smallest graph of
    each isomorphism class is therefore still yielded, in the same order,
    and so is the lexicographically smallest maximum; the other labeled
    graphs are not, so counting needs ``twins`` off.
    """
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

    def pairing(start: int) -> int:
        stubs = sorted(
            (targets[v] for v in range(start, n) for _ in range(res[v])), reverse=True
        )
        total = 0
        if connected_only and n > 2:
            # no two leaves adjacent: each leaf stub takes one of the
            # smallest non-leaf stubs
            leaves = stubs.count(1)
            inner = stubs[: len(stubs) - leaves]
            if leaves > len(inner):
                return -1 << 62
            total = sum(inner[len(inner) - leaves :])
            stubs = inner[: len(inner) - leaves]
        return total + sum(stubs[k] * stubs[k + 1] for k in range(0, len(stubs) - 1, 2))

    def rec(i: int, m2: int) -> Iterator[tuple[tuple[int, int], ...]]:
        if incumbent is not None:
            incumbent.nodes += 1
        while i < n and res[i] == 0:
            i += 1
        if i == n:
            if incumbent is not None:
                incumbent.m2 = m2
            yield tuple(edges)
            return
        need = res[i]
        cand = [j for j in range(i + 1, n) if res[j] > 0]
        bit_i = 1 << i
        t_i = targets[i]
        placed = 0
        if twins:
            last: dict[tuple[int, int], int] = {}
            pred = []
            for p, j in enumerate(cand):
                key = (res[j], adj[j])
                pred.append(last.get(key, -1))
                last[key] = p
            combos = twin_combinations(cand, need, pred)
        else:
            combos = combinations(cand, need)
        for combo in combos:
            res[i] = 0
            for j in combo:
                res[j] -= 1
            good = True
            if incumbent is not None:
                placed = m2 + t_i * sum(targets[j] for j in combo)
                good = placed + pairing(i + 1) > incumbent.m2
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
                    yield from rec(i + 1, placed)
                    del edges[len(edges) - need :]
                for j in combo:
                    adj[i] ^= 1 << j
                    adj[j] ^= bit_i
            for j in combo:
                res[j] += 1
            res[i] = need

    yield from rec(0, 0)


def iso_reduced_over_all_assignments(seq, connected_only=True):
    """Reference isomorphism-reduced enumeration: walk every distinct degree
    assignment and keep the first graph of each class by the reference
    canonical form."""
    seen = set()
    out = []
    for assignment in _distinct_assignments(seq.degrees):
        for edges in iter_edges_by_combinations(assignment, connected_only):
            g = SimpleGraph(seq.n, [(u + 1, v + 1) for u, v in edges])
            key = canonical_form_by_permutations(g)
            if key not in seen:
                seen.add(key)
                out.append(g)
    return out


def search_unpruned(seq):
    """Reference branch-and-bound: the same walk and bound as
    ``search_max_m2`` without twin pruning.  Returns (largest M2, smallest
    maximal edge tuple with 1-based labels, nodes entered)."""
    incumbent = Incumbent()
    best = None
    for best in iter_edges_by_combinations(seq.degrees, True, incumbent):
        pass
    return incumbent.m2, tuple((u + 1, v + 1) for u, v in best), incumbent.nodes


def iso_reduced_unpruned(seq, connected_only=True):
    """Reference isomorphism-reduced enumeration: the canonical assignment
    walked without twin pruning, keeping the first graph of each canonical
    form.  Returns the edge tuples in walk order."""
    seen = set()
    out = []
    for edges in iter_edges_by_combinations(seq.degrees, connected_only):
        g = SimpleGraph(seq.n, [(u + 1, v + 1) for u, v in edges])
        key = canonical_form(g)
        if key not in seen:
            seen.add(key)
            out.append(g.edges)
    return out


# --- element-by-element conversions, kept as the reference for the bulk ones --
#
# DegreeSequence.parse, DegreeSequence.__post_init__ and SimpleGraph.__init__
# as they were before they converted whole lists at once; the only changes
# are the class names and two accessors that read the reference graph under
# SimpleGraph's names.  The reference parser still takes any Unicode decimal
# digit.


@dataclass(frozen=True)
class DegreeSequenceReference:
    degrees: tuple[int, ...]
    resorted: bool = field(default=False, compare=False)

    def __post_init__(self):
        degs = tuple(_as_int(d, "degree") for d in self.degrees)
        if not degs:
            raise DomainError("degree sequence must be non-empty")
        canonical = tuple(sorted(degs, reverse=True))
        if canonical != degs:
            object.__setattr__(self, "degrees", canonical)
            object.__setattr__(self, "resorted", True)
        else:
            object.__setattr__(self, "degrees", degs)
        n = len(canonical)
        if canonical[-1] < 1:
            raise DomainError(f"degrees must be positive, got {canonical[-1]}")
        if canonical[0] > n - 1:
            raise DomainError(
                f"degree {canonical[0]} exceeds n-1 = {n - 1}; no simple graph can realize it"
            )
        if sum(canonical) % 2 != 0:
            raise DomainError("degree sum must be even")

    @classmethod
    def parse(cls, text: str) -> "DegreeSequenceReference":
        """Parse ``"4,4,3,1"`` or run-length shorthand ``"4^2,3,1"``."""
        degs: list[int] = []
        for raw in text.split(","):
            token = raw.strip()
            value, caret, repeat = token.partition("^")
            if not value.isdecimal() or (caret and not repeat.isdecimal()):
                raise ParseError(f"bad degree token {token!r}")
            try:
                degree = int(value)
                count = int(repeat) if caret else 1
                run = [degree] * count
            except (ValueError, OverflowError):
                # CPython's digit limit on int(), or a count past sys.maxsize
                raise ParseError(f"degree token {token!r} is too large") from None
            if count < 1:
                raise ParseError(f"bad repeat count in {token!r}")
            degs.extend(run)
        return cls(tuple(degs))


class SimpleGraphReference:
    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if type(n) is not int:
            n = _as_int(n, "vertex count")
        if n < 1:
            raise DomainError("graph needs at least one vertex")
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                u, v = _as_int(u, "vertex"), _as_int(v, "vertex")
            if not (1 <= u <= n and 1 <= v <= n):
                raise DomainError(f"edge ({u},{v}) out of range 1..{n}")
            if u == v:
                raise DomainError(f"loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise DomainError(f"duplicate edge ({e[0]},{e[1]})")
            seen.add(e)
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(seen))
        adj: list[list[int]] = [[] for _ in range(n + 1)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        # filled from the sorted edge tuple, so each list is already ascending
        self._adj = tuple(tuple(nbrs) for nbrs in adj)

    def _adjacency(self):
        return self._adj

    def degrees(self):
        return list(map(len, self._adj))


# --- per-edge and per-path builders, kept as the reference for the run-based
# ones: construct_extremal and build_glued_cycles_with_paths as they were


def construct_extremal_reference(seq: DegreeSequence) -> ConstructionTrace:
    if not is_connected_realizable(seq):
        raise DomainError(f"({seq.to_text()}) has no connected realization")
    report = check_optimality_conditions(seq)
    c = report.excess
    if not report.holds_ii:
        raise DomainError(
            f"condition (ii) fails: d2 = {seq.degrees[1]} < c+2 = {c + 2}"
        )
    if not report.holds_iv:
        raise DomainError(f"condition (iv) fails: smallest degree is {seq.degrees[-1]}, not 1")
    warnings: tuple[str, ...] = ()
    if not report.holds_iii:
        warnings = ("condition (iii) violated; optimality not guaranteed",)
    d = seq.degrees
    n = seq.n
    if c >= 0 and d[c + 2] == 1:
        raise ConstructionError(
            "degree budget exceeds the vertex supply; aborting instead of "
            "emitting a disconnected graph"
        )
    deg = [0] * (n + 1)
    edges: list[tuple[int, int]] = []

    def add_edge(u: int, v: int):
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1

    triangles = tuple((1, 2, j) for j in range(3, c + 4))
    for j in range(3, c + 4):
        add_edge(2, j)
    layer = [0] * (n + 1)
    next_child = 2
    for i in range(1, n + 1):
        for _ in range(d[i - 1] - deg[i]):
            add_edge(i, next_child)
            layer[next_child] = layer[i] + 1
            next_child += 1

    return ConstructionTrace(
        graph=SimpleGraph(n, edges),
        ordering=tuple(range(1, n + 1)),
        layers=tuple(layer[1:]),
        triangles=triangles,
        warnings=warnings,
    )


def build_glued_cycles_with_paths_reference(p, q, lengths) -> SimpleGraph:
    p, q = _as_int(p, "cycle length"), _as_int(q, "cycle length")
    lengths = [_as_int(x, "path length") for x in lengths]
    if not lengths:
        raise DomainError("need at least one pendant path")
    if any(x < 1 for x in lengths):
        raise DomainError(f"path lengths must be >= 1, got {lengths}")
    edges = _glued_cycle_edges(p, q)
    nxt = p + q
    n = nxt - 1 + sum(lengths)
    for length in lengths:
        path = [1] + list(range(nxt, nxt + length))
        nxt += length
        edges += list(zip(path, path[1:]))
    return SimpleGraph(n, edges)


def outcome(make):
    """What ``make()`` gives: ("ok", value) or (exception type, message)."""
    try:
        return "ok", make()
    except Exception as exc:  # any exception: its type and message are the outcome
        return type(exc), str(exc)
