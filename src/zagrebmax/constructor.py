"""Greedy layered construction of candidate-extremal graphs.

Given an admissible sequence with excess c, the construction roots the
largest degree at v1, fills the first layer with v2..v_{d1+1}, joins v2 to
v3..v_{c+3} (creating the c+1 apex triangles v1 v2 vj), and then satisfies
the remaining degree of every vertex, in label order, by appending fresh
consecutively-numbered children.  The identity ordering of the result is a
breadth-first ordering with non-increasing degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ConstructionError, DomainError
from .graphs import SimpleGraph, _bfs_layers
from .sequences import (
    KIND_BICYCLIC,
    DegreeSequence,
    check_optimality_conditions,
    classify,
    is_connected_realizable,
)

VIOLATION_LAYER = "layer_monotone"
VIOLATION_DEGREE = "degree_monotone"
VIOLATION_PARENT = "parent_order"


@dataclass(frozen=True)
class ConstructionTrace:
    """Construction output: the graph plus the ordering evidence."""

    graph: SimpleGraph
    ordering: tuple[int, ...]
    layers: tuple[int, ...]  # layers[v-1] = distance from the root v1
    triangles: tuple[tuple[int, int, int], ...]
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class BfsOrderingReport:
    violated: Optional[str]

    @property
    def holds(self) -> bool:
        return self.violated is None


def construct_extremal(seq: DegreeSequence) -> ConstructionTrace:
    """Build the layered candidate-extremal graph for ``seq``.

    Requires connected realizability plus conditions (i), (ii) and (iv) of
    the admissibility report; a violated condition (iii) is tolerated with
    a warning because the construction is still well-defined there, only
    its extremality guarantee is lost.
    """
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

    # A connected realization has c >= -1, so (i) holds, and d1 <= n-1 with
    # (ii) gives c+3 <= d1+1 <= n: the apex triangles fit in the first layer.
    # Every other edge goes to a fresh vertex, so no edge is placed twice.
    d = seq.degrees
    n = seq.n
    deg = [0] * (n + 1)
    edges: list[tuple[int, int]] = []

    def add_edge(u: int, v: int):
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1

    layer: list[int] = [-1] * (n + 1)
    layer[1] = 0
    first_layer_end = d[0] + 1
    for j in range(2, first_layer_end + 1):
        add_edge(1, j)
        layer[j] = 1
    triangles = tuple((1, 2, j) for j in range(3, c + 4))
    for j in range(3, c + 4):
        add_edge(2, j)

    next_child = first_layer_end + 1
    for i in range(1, n + 1):
        if layer[i] < 0:
            raise ConstructionError(
                f"degree budget ran out before vertex {i} was attached; "
                "the sequence admits no such layered graph"
            )
        have = deg[i]
        want = d[i - 1]
        if have > want:
            raise ConstructionError(
                f"vertex {i} needs degree {want} but the layout forces {have}"
            )
        for _ in range(want - have):
            if next_child > n:
                raise ConstructionError(
                    "degree budget exceeds the vertex supply; aborting instead of "
                    "emitting a disconnected graph"
                )
            add_edge(i, next_child)
            layer[next_child] = layer[i] + 1
            next_child += 1
    if next_child != n + 1:
        raise ConstructionError(
            f"{n + 1 - next_child} vertices left unplaced; the result would be disconnected"
        )

    return ConstructionTrace(
        graph=SimpleGraph(n, edges),
        ordering=tuple(range(1, n + 1)),
        layers=tuple(layer[1:]),
        triangles=triangles,
        warnings=warnings,
    )


def construct_extremal_bicyclic(seq: DegreeSequence) -> ConstructionTrace:
    """The excess-1 specialization: exactly two apex triangles."""
    cls = classify(seq)
    if cls.kind != KIND_BICYCLIC:
        raise DomainError(f"({seq.to_text()}) is {cls.kind}, not bicyclic")
    return construct_extremal(seq)


def verify_bfs_ordering(g: SimpleGraph, ordering: Sequence[int]) -> BfsOrderingReport:
    """Check a vertex ordering against the three breadth-first conditions.

    With h(v) the distance from the first vertex of the ordering, the
    conditions are: (1) h never decreases along the ordering, (2) degrees
    never increase, (3) whenever u precedes v, every up-neighbor of u
    weakly precedes every up-neighbor of v.  The first violated condition
    is reported.
    """
    order = tuple(ordering)
    if sorted(order) != list(range(1, g.n + 1)):
        raise DomainError("ordering must be a permutation of 1..n")
    h = _bfs_layers(g, order[0])
    if -1 in h[1:]:
        raise DomainError("ordering verification needs a connected graph")

    for a, b in zip(order, order[1:]):
        if h[a] > h[b]:
            return BfsOrderingReport(VIOLATION_LAYER)
    for a, b in zip(order, order[1:]):
        if g.degree(a) < g.degree(b):
            return BfsOrderingReport(VIOLATION_DEGREE)

    pos = {v: i for i, v in enumerate(order)}
    running_max = -1
    for v in order:
        parents = [pos[u] for u in g.neighbors(v) if h[u] == h[v] - 1]
        if parents:
            if running_max > min(parents):
                return BfsOrderingReport(VIOLATION_PARENT)
            running_max = max(running_max, max(parents))
    return BfsOrderingReport(None)
