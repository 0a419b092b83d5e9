"""Simple undirected graphs on vertices 1..n and the second Zagreb index.

Graph values are immutable after construction; every "mutating" operation
elsewhere in the package builds a new graph.  The edge-list text format
(header ``"n m"`` then one ``"u v"`` line per edge, ascending, LF-separated)
is the only graph file format.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping

from .errors import CapExceededError, DomainError, ParseError
from .sequences import DegreeSequence, _as_int, _is_digits


class SimpleGraph:
    """Undirected simple graph with integer vertex labels 1..n.

    The value is its vertex count and sorted edge tuple.  Degrees are
    counted at construction; the adjacency lists are built on first use
    (``_adjacency``), a cache behind the immutable value, so a graph that
    is only asked for degrees and edges never builds them."""

    __slots__ = ("n", "edges", "_deg", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if type(n) is not int:
            n = _as_int(n, "vertex count")
        if n < 1:
            raise DomainError("graph needs at least one vertex")
        edges = list(edges)  # read a one-shot iterator once
        deg = [0] * (n + 1)
        # the edges in input order; builders emit them sorted or in a few
        # sorted runs, which timsort merges in about linear time
        normalised: list[tuple[int, int]] = []
        append = normalised.append
        try:
            for u, v in edges:
                if type(u) is not int or type(v) is not int:
                    u, v = _as_int(u, "vertex"), _as_int(v, "vertex")
                if 1 <= u < v <= n:
                    append((u, v))
                elif 1 <= v < u <= n:
                    append((v, u))
                else:
                    break
                deg[u] += 1
                deg[v] += 1
        except (DomainError, TypeError, ValueError):
            # a label or a pair that is not one: raised again below, unless
            # a repeat comes first
            pass
        if len(normalised) < len(edges) or len(set(normalised)) < len(edges):
            _check_edges(n, edges)
        normalised.sort()
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(normalised)
        self._deg = deg
        self._adj: tuple[tuple[int, ...], ...] | None = None

    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbors of each vertex, ascending (entry 0 empty)."""
        adj = self._adj
        if adj is None:
            lists: list[list[int]] = [[] for _ in range(self.n + 1)]
            for u, v in self.edges:
                lists[u].append(v)
                lists[v].append(u)
            # filled from the sorted edges, so each list is already ascending
            adj = self._adj = tuple(map(tuple, lists))
        return adj

    @property
    def m(self) -> int:
        return len(self.edges)

    def _vertex(self, v: int) -> int:
        v = _as_int(v, "vertex")
        if not 1 <= v <= self.n:
            raise DomainError(f"vertex {v} out of range 1..{self.n}")
        return v

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adjacency()[self._vertex(v)]

    def degree(self, v: int) -> int:
        return self._deg[self._vertex(v)]

    def degrees(self) -> list[int]:
        """Degree of each vertex, indexed by label (entry 0 unused)."""
        return self._deg.copy()

    def has_edge(self, u: int, v: int) -> bool:
        u, v = self._vertex(u), self._vertex(v)
        return v in self._adjacency()[u]

    def replace_edges(
        self,
        remove: Iterable[tuple[int, int]] = (),
        add: Iterable[tuple[int, int]] = (),
    ) -> "SimpleGraph":
        """New graph with the given edges removed then added."""
        current = set(self.edges)
        for u, v in remove:
            u, v = _as_int(u, "vertex"), _as_int(v, "vertex")
            e = (u, v) if u < v else (v, u)
            if e not in current:
                raise DomainError(f"cannot remove absent edge ({e[0]},{e[1]})")
            current.remove(e)
        for u, v in add:
            u, v = _as_int(u, "vertex"), _as_int(v, "vertex")
            e = (u, v) if u < v else (v, u)
            if e in current:
                raise DomainError(f"cannot add present edge ({e[0]},{e[1]})")
            current.add(e)
        return SimpleGraph(self.n, current)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimpleGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, m={self.m})"


def _check_edges(n: int, edges: list) -> None:
    """Raise the first fault of ``edges`` in input order: a label that is
    not an integer, a pair out of range, a loop or a repeat."""
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


def second_zagreb(g: SimpleGraph) -> int:
    """Sum over all edges of the product of the endpoint degrees."""
    deg = g.degrees()
    return sum(deg[u] * deg[v] for u, v in g.edges)


def degree_sequence_of(g: SimpleGraph) -> DegreeSequence:
    deg = g.degrees()[1:]
    if min(deg) == 0:
        isolated = deg.index(0) + 1
        raise DomainError(f"vertex {isolated} is isolated; degree sequences need d >= 1")
    return DegreeSequence(tuple(sorted(deg, reverse=True)))


def _bfs_layers(g: SimpleGraph, root: int) -> list[int]:
    """Distance of each vertex from ``root`` (entry 0 unused, -1 if unreachable)."""
    dist = [-1] * (g.n + 1)
    dist[root] = 0
    adj = g._adjacency()
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def is_connected(g: SimpleGraph) -> bool:
    return -1 not in _bfs_layers(g, 1)[1:]


def relabel(g: SimpleGraph, mapping: Mapping[int, int]) -> SimpleGraph:
    """Apply a vertex permutation given as {old: new}."""
    old = sorted(_as_int(v, "vertex") for v in mapping)
    new = sorted(_as_int(v, "vertex") for v in mapping.values())
    if old != list(range(1, g.n + 1)) or new != old:
        raise DomainError("mapping must be a permutation of 1..n")
    return SimpleGraph(g.n, ((mapping[u], mapping[v]) for u, v in g.edges))


def _int_pair(line: str, what: str) -> tuple[int, int]:
    """The two decimal integers of a header or edge line."""
    parts = line.split()
    if len(parts) != 2 or not (_is_digits(parts[0]) and _is_digits(parts[1])):
        raise ParseError(f"bad {what} {line!r}; expected two decimal integers")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:  # past CPython's digit limit for int()
        raise ParseError(f"bad {what} {line!r}; integer too large") from exc


def _edge_list_fields(text: str) -> tuple[int, list[tuple[int, int]]]:
    """The header's n and the edge pairs of edge-list text, with every field
    checked but no graph built."""
    lines = [ln for ln in (raw.strip() for raw in text.split("\n")) if ln]
    if not lines:
        raise ParseError("empty graph text")
    n, m = _int_pair(lines[0], "header")
    if len(lines) - 1 != m:
        raise ParseError(f"header promises {m} edges, found {len(lines) - 1}")
    return n, [_int_pair(ln, "edge line") for ln in lines[1:]]


def _edge_list_graph(n: int, edges: list[tuple[int, int]]) -> SimpleGraph:
    try:
        return SimpleGraph(n, edges)
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


def parse_edge_list(text: str) -> SimpleGraph:
    """Parse the edge-list format: header ``"n m"``, then m lines ``"u v"``.
    Every field is a run of decimal digits; a sign, an underscore or a
    base prefix is a parse error."""
    return _edge_list_graph(*_edge_list_fields(text))


def serialize_edge_list(g: SimpleGraph) -> str:
    """Canonical edge-list text: ASCII, single spaces, LF newlines."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def to_dot(g: SimpleGraph) -> str:
    lines = ["graph g {"]
    lines.extend(f"  {v};" for v in range(1, g.n + 1))
    lines.extend(f"  {u} -- {v};" for u, v in g.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _refine(
    g: SimpleGraph, colors: list[int], ncolors: int, weight: list[int]
) -> tuple[list[int], int]:
    """Refine a vertex coloring with ids ``0..ncolors-1`` until every vertex
    of a color sees the same multiset of neighbor colors; return it and its
    number of colors.

    A vertex's signature is ``colors[v] * weight[n]`` minus the sum of
    ``weight[c] = (n + 1) ** c`` over its neighbors' colors c.  A vertex has
    fewer than n + 1 neighbors, so that sum writes the neighbor-color
    multiset in base n + 1, and signatures order by color first.  Color ids
    are assigned in sorted-signature order, so they are canonical (they
    agree across isomorphic colored graphs) and keep the order of the cells
    they split."""
    n = g.n
    top = weight[n]
    while ncolors < n:
        wc = [weight[c] for c in colors]
        sigs = [c * top for c in colors]
        for u, v in g.edges:
            sigs[u] -= wc[v]
            sigs[v] -= wc[u]
        del sigs[0]
        distinct = set(sigs)
        if len(distinct) == ncolors:
            break
        ncolors = len(distinct)
        rank = {sig: i for i, sig in enumerate(sorted(distinct))}
        colors = [0]
        colors.extend(map(rank.__getitem__, sigs))
    return colors, ncolors


def _twin_classes(g: SimpleGraph) -> list[int]:
    """For each vertex (entry 0 unused), the least vertex with the same open
    or the same closed neighborhood.  Swapping two such twins is an
    automorphism."""
    # one dict serves both kinds: N(u) = N[v] would put u in N(u)
    adj = g._adjacency()
    first: dict[tuple[int, ...], int] = {}
    twin = [0]
    for v in range(1, g.n + 1):
        a = first.setdefault(adj[v], v)
        b = first.setdefault(tuple(sorted(adj[v] + (v,))), v)
        twin.append(min(a, b))
    return twin


def canonical_form(
    g: SimpleGraph, perm_cap: int = 2_000_000
) -> tuple[tuple[int, int], ...]:
    """Canonical edge tuple: equal for two graphs iff they are isomorphic.

    Individualization-refinement (McKay & Piperno, "Practical graph
    isomorphism, II", 2014): color-refine the vertices, take the first cell
    with more than one vertex (by color id), give each of its vertices in
    turn a color of its own, refine again and recurse.  Every choice is made
    on canonical colors, so the set of discrete leaves is the same for
    isomorphic graphs; the least relabeled edge list over those leaves is
    the form.

    The search skips children that an automorphism maps onto a child
    already explored.  At a node whose individualized path is P, a child is
    skipped when it lies in the orbit of an explored sibling under the known
    automorphisms that fix P pointwise; the skipped subtree is the image of
    an explored one and holds the same relabeled edge lists.  Two rules
    supply those automorphisms:

    - twins: swapping two vertices with equal open or equal closed
      neighborhoods is an automorphism, and it fixes the path when neither
      is on it, so every vertex of a cell starts in the orbit of its twin
      class's label and only one vertex of each class is individualized;
    - equal leaves: a leaf whose relabeled edge list equals the best one so
      far maps onto the best leaf by an automorphism.  That automorphism
      maps the leaf's path onto the best leaf's path, so the search also
      leaves the rest of the subtree where the two paths part, as nauty's
      basic scheme does.

    ``perm_cap`` bounds the nodes the pruned search enters; beyond it, or
    past Python's recursion limit, the search refuses.
    """
    perm_cap = _as_int(perm_cap, "perm_cap")
    n = g.n
    edges = g.edges
    weight = [(n + 1) ** c for c in range(n + 1)]
    colors, ncolors = _refine(g, [0] * (n + 1), 1, weight)
    twin = _twin_classes(g) if ncolors < n else []
    # automorphisms read off equal leaves, as vertex maps (entry 0 unused)
    autos: list[list[int]] = []
    best: list[int] | None = None  # least edge keys u * n + v over the leaves
    best_vertex: list[int] = []  # the best leaf's color -> vertex
    best_path: list[int] = []
    nodes = 0

    def search(colors: list[int], ncolors: int, path: list[int]) -> int:
        """Search below ``path``; return the depth of the node at which the
        search goes on (``len(path)`` unless an automorphism found below
        makes the rest of an ancestor's current child redundant)."""
        nonlocal best, best_vertex, best_path, nodes
        nodes += 1
        if nodes > perm_cap:
            raise CapExceededError(
                f"canonical form search exceeds its cap of {perm_cap} nodes"
            )
        if ncolors == n:
            pos = colors
            cert = sorted(
                [
                    pos[u] * n + pos[v] if pos[u] < pos[v] else pos[v] * n + pos[u]
                    for u, v in edges
                ]
            )
            if best is None or cert < best:
                best, best_path = cert, path
                best_vertex = [0] * n
                for v in range(1, n + 1):
                    best_vertex[colors[v]] = v
            elif cert == best:
                autos.append([0] + [best_vertex[colors[v]] for v in range(1, n + 1)])
                # the automorphism maps this path onto the best one, so it
                # fixes their common prefix and maps the child taken after it
                # onto the best path's, whose subtree is explored: go back
                # to the node at the end of that prefix
                depth = 0
                while path[depth] == best_path[depth]:
                    depth += 1
                return depth
            return len(path)
        sizes = [0] * ncolors
        for v in range(1, n + 1):
            sizes[colors[v]] += 1
        target = next(c for c, size in enumerate(sizes) if size > 1)
        cell = [v for v in range(1, n + 1) if colors[v] == target]
        orbit = {v: twin[v] for v in cell}  # cell vertex -> orbit label
        explored: list[int] = []
        absorbed = 0
        for v in cell:
            if explored:
                for perm in autos[absorbed:]:
                    if all(perm[p] == p for p in path):
                        for u in cell:
                            a, b = orbit[u], orbit[perm[u]]
                            if a != b:
                                for w in cell:
                                    if orbit[w] == b:
                                        orbit[w] = a
                absorbed = len(autos)
                if any(orbit[w] == orbit[v] for w in explored):
                    continue
            explored.append(v)
            split = [c + (c >= target) for c in colors]
            split[v] = target
            resume = search(*_refine(g, split, ncolors + 1, weight), path + [v])
            if resume < len(path):
                return resume
        return len(path)

    try:
        search(colors, ncolors, [])
    except RecursionError:
        raise CapExceededError(
            f"n = {n}: the canonical form search recurses past Python's recursion limit"
        ) from None
    assert best is not None
    return tuple((key // n + 1, key % n + 1) for key in best)


def is_isomorphic(g1: SimpleGraph, g2: SimpleGraph) -> bool:
    if g1.n != g2.n or g1.m != g2.m:
        return False
    return canonical_form(g1) == canonical_form(g2)
