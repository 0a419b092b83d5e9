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
from itertools import chain, repeat
from operator import lt, sub
from typing import Optional, Sequence

from .errors import ConstructionError, DomainError
from .graphs import SimpleGraph, _bfs_layers
from .sequences import (
    KIND_BICYCLIC,
    DegreeSequence,
    _as_int,
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


def construct_extremal(seq: DegreeSequence) -> ConstructionTrace:
    """Build the layered candidate-extremal graph for ``seq``.

    Builds exactly the connected-realizable sequences that meet conditions
    (ii) and (iv) and, when c >= 0, have d_{c+3} >= 2 (no apex vertex is a
    leaf); any other sequence raises before an edge is placed.  A violated
    condition (iii) is tolerated with a warning: the construction is still
    well-defined there, only its extremality guarantee is lost.  The apex
    and parent edges go to ``SimpleGraph`` as one lazy iterator, so the
    graph holds the only list of them.
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
    d = seq.degrees
    n = seq.n
    # (ii) and d1 <= n-1 give c+3 <= n, so the apex vertices v3..v_{c+3} exist.
    if c >= 0 and d[c + 2] == 1:
        raise ConstructionError(
            "degree budget exceeds the vertex supply; aborting instead of "
            "emitting a disconnected graph"
        )

    # Before its turn, v >= 2 holds its parent edge and its apex edges (c+1
    # at v2, one at v3..v_{c+3}), so it takes d_v - placed_v fresh children:
    # >= 0 by (ii) and the test above, n-1 in all (2(n+c) - (n-1) - 2(c+1)).
    # Each vertex is attached before its turn; else v1..v_{i-1} would be a
    # component of degree sum 2(i-1+c), the rest would average degree 2 with
    # a leaf, so d_i >= 3, and (ii) with i > d1+1 >= c+3 makes that sum larger.
    placed = [0, c + 2] + [2] * (c + 1)  # then 1 each; v1 holds none
    parent: list[int] = []  # parent[v-2] attaches v
    for i, k in enumerate(map(sub, d, chain(placed, repeat(1))), 1):
        parent += [i] * k
    if not all(map(lt, parent, range(2, n + 1))):
        raise ConstructionError("internal: a vertex is not attached before its turn")
    layer = [0, 0]
    for p in parent:
        layer.append(layer[p] + 1)
    triangles = tuple((1, 2, j) for j in range(3, c + 4))
    edges = chain(zip(repeat(2), range(3, c + 4)), zip(parent, range(2, n + 1)))

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


def verify_bfs_ordering(g: SimpleGraph, ordering: Sequence[int]) -> Optional[str]:
    """Check a vertex ordering against the three breadth-first conditions.

    With h(v) the distance from the first vertex of the ordering, the
    conditions are: (1) h never decreases along the ordering, (2) degrees
    never increase, (3) whenever u precedes v, every up-neighbor of u
    weakly precedes every up-neighbor of v.  Returns the name of the first
    violated condition (``VIOLATION_LAYER``, ``VIOLATION_DEGREE`` or
    ``VIOLATION_PARENT``), or None when the ordering satisfies all three.
    """
    order = tuple(_as_int(v, "vertex") for v in ordering)
    if sorted(order) != list(range(1, g.n + 1)):
        raise DomainError("ordering must be a permutation of 1..n")
    h = _bfs_layers(g, order[0])
    if -1 in h[1:]:
        raise DomainError("ordering verification needs a connected graph")

    for a, b in zip(order, order[1:]):
        if h[a] > h[b]:
            return VIOLATION_LAYER
    for a, b in zip(order, order[1:]):
        if g.degree(a) < g.degree(b):
            return VIOLATION_DEGREE

    pos = {v: i for i, v in enumerate(order)}
    running_max = -1
    for v in order:
        parents = [pos[u] for u in g.neighbors(v) if h[u] == h[v] - 1]
        if parents:
            if running_max > min(parents):
                return VIOLATION_PARENT
            running_max = max(running_max, max(parents))
    return None
