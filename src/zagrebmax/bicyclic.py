"""Canonical bicyclic families and the exact maximum index over them.

A bicyclic graph is connected with n vertices and n+1 edges.  Four
parameterized families cover the extremal cases: two cycles glued at a
vertex, two cycles joined by a path, the theta graph of three internally
disjoint paths, and the glued pair with pendant paths at the shared
vertex.  ``bicyclic_max_m2`` dispatches every bicyclic sequence to a
closed form or, when d2 >= 3 and a leaf exists, to the layered
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Sequence

from .constructor import construct_extremal
from .errors import DomainError
from .graphs import SimpleGraph, second_zagreb
from .sequences import KIND_BICYCLIC, DegreeSequence, _as_int, classify

FAMILY_GLUED = "two_cycles_shared_vertex"
FAMILY_PATH_JOINED = "two_cycles_path"
FAMILY_THETA = "theta"
FAMILY_GLUED_PATHS = "shared_vertex_with_paths"
FAMILY_LAYERED = "layered_bfs"


@dataclass(frozen=True)
class BicyclicMaxResult:
    """The maximum ``value`` and a witness graph of the given family.

    ``case_id`` is the case (1-5) of ``bicyclic_max_m2`` that applied, and
    ``params`` are the family's builder arguments (empty for the layered
    construction).
    """

    case_id: int
    value: int
    family: str
    params: tuple[int, ...]
    graph: SimpleGraph

    def label(self) -> str:
        """Human notation of the witness, e.g. B(3,4) or B(P_3,P_2,P_1)."""
        p = self.params
        if self.family == FAMILY_GLUED:
            return f"B({p[0]},{p[1]})"
        if self.family == FAMILY_PATH_JOINED:
            return f"B({p[0]},{p[1]},{p[2]})"
        if self.family == FAMILY_THETA:
            return f"B(P_{p[0]},P_{p[1]},P_{p[2]})"
        if self.family == FAMILY_GLUED_PATHS:
            lengths = ",".join(str(x) for x in p[2:])
            return f"B({p[0]},{p[1]};{lengths})"
        return "layered-bfs"


def _cycle_edges(vertices: Sequence[int]) -> list[tuple[int, int]]:
    return [
        (vertices[i], vertices[(i + 1) % len(vertices)]) for i in range(len(vertices))
    ]


def _glued_cycle_edges(p: int, q: int) -> list[tuple[int, int]]:
    """Edges of C_p and C_q sharing exactly the vertex 1, on 1..p+q-1."""
    if p < 3 or q < 3:
        raise DomainError(f"cycle lengths must be >= 3, got ({p},{q})")
    edges = _cycle_edges(list(range(1, p + 1)))
    edges += _cycle_edges([1] + list(range(p + 1, p + q)))
    return edges


def build_vertex_glued_cycles(p: int, q: int) -> SimpleGraph:
    """Two cycles C_p and C_q sharing exactly the vertex 1; order p+q-1."""
    p, q = _as_int(p, "cycle length"), _as_int(q, "cycle length")
    return SimpleGraph(p + q - 1, _glued_cycle_edges(p, q))


def build_path_joined_cycles(p: int, r: int, q: int) -> SimpleGraph:
    """C_p and C_q joined by a path of length r >= 1; order p+q+r-1."""
    p, q = _as_int(p, "cycle length"), _as_int(q, "cycle length")
    r = _as_int(r, "path length")
    if p < 3 or q < 3:
        raise DomainError(f"cycle lengths must be >= 3, got ({p},{q})")
    if r < 1:
        raise DomainError(f"joining path length must be >= 1, got {r}")
    n = p + q + r - 1
    edges = _cycle_edges(list(range(1, p + 1)))
    path = [1] + list(range(p + 1, p + r + 1))
    edges += list(zip(path, path[1:]))
    far = p + r
    edges += _cycle_edges([far] + list(range(far + 1, far + q)))
    return SimpleGraph(n, edges)


def build_theta(k: int, l: int, m: int) -> SimpleGraph:
    """Three internally disjoint paths of lengths k, l, m between two
    vertices; order k+l+m-1.  At most one length may be 1."""
    k, l, m = (_as_int(x, "path length") for x in (k, l, m))
    if not (1 <= m <= min(k, l)):
        raise DomainError(f"need 1 <= m <= min(k,l), got ({k},{l},{m})")
    if sum(1 for x in (k, l, m) if x == 1) > 1:
        raise DomainError(f"two unit paths would form a multi-edge: ({k},{l},{m})")
    n = k + l + m - 1
    x, y = 1, 2
    edges: list[tuple[int, int]] = []
    nxt = 3
    for length in (k, l, m):
        path = [x] + list(range(nxt, nxt + length - 1)) + [y]
        nxt += length - 1
        edges += list(zip(path, path[1:]))
    return SimpleGraph(n, edges)


def build_glued_cycles_with_paths(
    p: int, q: int, lengths: Sequence[int]
) -> SimpleGraph:
    """Vertex-glued cycles with pendant paths of the given lengths at the
    shared vertex; order p+q-1+sum(lengths)."""
    p, q = _as_int(p, "cycle length"), _as_int(q, "cycle length")
    lengths = [_as_int(x, "path length") for x in lengths]
    if not lengths:
        raise DomainError("need at least one pendant path")
    if any(x < 1 for x in lengths):
        raise DomainError(f"path lengths must be >= 1, got {lengths}")
    edges = _glued_cycle_edges(p, q)
    # path j runs over the labels firsts[j] .. firsts[j+1]-1, hung from 1 by
    # its first; (v, v+1) lies inside a path unless v+1 starts the next one
    firsts = list(accumulate(lengths, initial=p + q))
    n = firsts[-1] - 1
    starts = set(firsts)
    edges += zip(repeat(1), firsts[:-1])
    edges += [(v, v + 1) for v in range(p + q, n) if v + 1 not in starts]
    return SimpleGraph(n, edges)


def bicyclic_max_m2(seq: DegreeSequence) -> BicyclicMaxResult:
    """Exact maximum second Zagreb index over all bicyclic realizations.

    Case split on the smallest and second-largest degree:
      1. dn=2, d2>=3  (forces (3,3,2^{n-2})): 4n+17, path-joined/theta witness;
      2. dn=2, d2=2   (forces (4,2^{n-1})):   4n+20, glued-cycles witness;
      3. dn=1, d2=2, s <= (n-5)/2:  4n+2s^2+10s+20, pendant paths all >= 2;
      4. dn=1, d2=2, s >  (n-5)/2:  sn+6n+s+10, paths of length 2 and 1;
      5. dn=1, d2>=3: value of the layered construction.
    """
    cls = classify(seq)
    if cls.kind != KIND_BICYCLIC:
        raise DomainError(f"({seq.to_text()}) is {cls.kind}, not bicyclic")
    d = seq.degrees
    n = seq.n
    s = cls.leaf_count

    # Excess 1 with positive degrees fixes the profile from dn and d2 (see
    # above); the witness check at the end backs each closed form.
    if d[-1] == 2:
        if d[1] >= 3:
            value = 4 * n + 17
            if n >= 6:
                family, params = FAMILY_PATH_JOINED, (3, 1, n - 3)
                graph = build_path_joined_cycles(*params)
            else:
                # n <= 5 cannot host two disjoint cycles; the theta with a
                # direct edge attains the same index.
                family, params = FAMILY_THETA, (n - 2, 2, 1)
                graph = build_theta(*params)
            case_id = 1
        else:
            value = 4 * n + 20
            family, params = FAMILY_GLUED, (3, n - 2)
            graph = build_vertex_glued_cycles(*params)
            case_id = 2
    elif d[1] == 2:
        # Profile (d1, 2^k, 1^s); the handshake forces d1 = s + 4 and
        # graphicness forces k >= 4.
        if 2 * s <= n - 5:
            lengths = [n - 2 * s - 3] + [2] * (s - 1)
            value = 4 * n + 2 * s * s + 10 * s + 20
            case_id = 3
        else:
            lengths = [2] * (n - s - 5) + [1] * (2 * s - n + 5)
            value = s * n + 6 * n + s + 10
            case_id = 4
        family, params = FAMILY_GLUED_PATHS, (3, 3) + tuple(lengths)
        graph = build_glued_cycles_with_paths(3, 3, lengths)
    else:
        # At c = 1, conditions (ii) and (iv) are d2 >= 3 and dn = 1.
        family, params = FAMILY_LAYERED, ()
        graph = construct_extremal(seq).graph
        value = second_zagreb(graph)
        case_id = 5

    # an isolated vertex leaves a 0 here, which no sequence holds
    realized = tuple(sorted(graph.degrees()[1:], reverse=True))
    if realized != seq.degrees:
        raise DomainError(
            f"internal: witness realizes ({','.join(map(str, realized))}), "
            f"wanted ({seq.to_text()})"
        )
    if case_id != 5:  # case 5's value is already the witness's own index
        index = second_zagreb(graph)
        if index != value:
            raise DomainError(f"internal: witness index {index} != formula value {value}")
    return BicyclicMaxResult(case_id, value, family, params, graph)
