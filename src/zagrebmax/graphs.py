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
from .sequences import DegreeSequence, _as_int


class SimpleGraph:
    """Undirected simple graph with integer vertex labels 1..n."""

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

    @property
    def m(self) -> int:
        return len(self.edges)

    def _vertex(self, v: int) -> int:
        v = _as_int(v, "vertex")
        if not 1 <= v <= self.n:
            raise DomainError(f"vertex {v} out of range 1..{self.n}")
        return v

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[self._vertex(v)]

    def degree(self, v: int) -> int:
        return len(self._adj[self._vertex(v)])

    def degrees(self) -> list[int]:
        """Degree of each vertex, indexed by label (entry 0 unused)."""
        return [0] + [len(self._adj[v]) for v in range(1, self.n + 1)]

    def has_edge(self, u: int, v: int) -> bool:
        # the hill climb calls this in its inner loop: check plain ints inline
        if not (type(u) is int and type(v) is int and 0 < u <= self.n and 0 < v <= self.n):
            u, v = self._vertex(u), self._vertex(v)
        return v in self._adj[u]

    def replace_edges(
        self,
        remove: Iterable[tuple[int, int]] = (),
        add: Iterable[tuple[int, int]] = (),
    ) -> "SimpleGraph":
        """New graph with the given edges removed then added."""
        current = set(self.edges)
        for u, v in remove:
            e = (u, v) if u < v else (v, u)
            if e not in current:
                raise DomainError(f"cannot remove absent edge ({e[0]},{e[1]})")
            current.remove(e)
        for u, v in add:
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
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for u in g._adj[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def is_connected(g: SimpleGraph) -> bool:
    return -1 not in _bfs_layers(g, 1)[1:]


def relabel(g: SimpleGraph, mapping: Mapping[int, int]) -> SimpleGraph:
    """Apply a vertex permutation given as {old: new}."""
    if sorted(mapping) != list(range(1, g.n + 1)) or sorted(
        mapping.values()
    ) != list(range(1, g.n + 1)):
        raise DomainError("mapping must be a permutation of 1..n")
    return SimpleGraph(g.n, ((mapping[u], mapping[v]) for u, v in g.edges))


def parse_edge_list(text: str) -> SimpleGraph:
    """Parse the edge-list format: header ``"n m"``, then m lines ``"u v"``."""
    lines = [ln for ln in (raw.strip() for raw in text.split("\n")) if ln]
    if not lines:
        raise ParseError("empty graph text")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"bad header {lines[0]!r}; expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError(f"bad header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise ParseError(f"header promises {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"bad edge line {ln!r}") from exc
        edges.append((u, v))
    try:
        return SimpleGraph(n, edges)
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


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


def _refine(g: SimpleGraph, colors: list[int]) -> list[int]:
    """Refine a vertex coloring until every vertex of a color sees the same
    multiset of neighbor colors.  Color ids are canonical (assigned by sorted
    signature, which leads with the old color), so they agree across
    isomorphic colored graphs and keep the order of the cells they split."""
    ncolors = len(set(colors[1:]))
    while True:
        sigs = [
            (colors[v], tuple(sorted([colors[u] for u in g._adj[v]])))
            for v in range(1, g.n + 1)
        ]
        remap = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colors = [0] + [remap[sig] for sig in sigs]
        if len(remap) == ncolors:
            return colors
        ncolors = len(remap)


def canonical_form(
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
            search(_refine(g, split))

    search(_refine(g, [-d for d in g.degrees()]))
    assert best is not None
    return best


def is_isomorphic(g1: SimpleGraph, g2: SimpleGraph) -> bool:
    if g1.n != g2.n or g1.m != g2.m:
        return False
    return canonical_form(g1) == canonical_form(g2)
