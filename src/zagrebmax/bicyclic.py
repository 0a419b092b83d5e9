"""Canonical bicyclic families and the exact maximum index over them.

A bicyclic graph is connected with n vertices and n+1 edges.  Four
parameterized families cover the extremal cases: two cycles glued at a
vertex, two cycles joined by a path, the theta graph of three internally
disjoint paths, and the glued pair with pendant paths at the shared
vertex.  ``bicyclic_max_m2`` dispatches every bicyclic sequence to a
closed form or, when d2 >= 3 and a leaf exists, to the layered
construction.

Each builder checks its parameters and hands ``SimpleGraph`` a lazy
iterator of edges read off its vertex walk, so the graph holds the only
list of them.  ``SimpleGraph`` allocates its degree counts before it reads
an edge, so it is the one guard on the order: an order it cannot hold
raises ``CapExceededError`` before any edge is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, pairwise, repeat
from typing import Iterator, Sequence

from .constructor import construct_extremal
from .errors import DomainError
from .graphs import SimpleGraph, second_zagreb
from .sequences import KIND_BICYCLIC, DegreeSequence, _as_int, classify

FAMILY_GLUED = "two_cycles_shared_vertex"
FAMILY_PATH_JOINED = "two_cycles_path"
FAMILY_THETA = "theta"
FAMILY_GLUED_PATHS = "shared_vertex_with_paths"
FAMILY_LAYERED = "layered_bfs"

# each family's notation over its params; the pendant paths format their own
_NOTATION = {
    FAMILY_GLUED: "B({},{})",
    FAMILY_PATH_JOINED: "B({},{},{})",
    FAMILY_THETA: "B(P_{},P_{},P_{})",
}


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
        """Human notation of the witness: B(p,q) for glued cycles, B(p,r,q)
        for path-joined ones, B(P_k,P_l,P_m) for the theta graph,
        B(p,q;l1,...,lt) for glued cycles with pendant paths, and
        layered-bfs for the layered construction."""
        p = self.params
        if self.family == FAMILY_GLUED_PATHS:
            return f"B({p[0]},{p[1]};{','.join(map(str, p[2:]))})"
        return _NOTATION.get(self.family, "layered-bfs").format(*p)


def _glued_cycles(p: int, q: int) -> Iterator[tuple[int, int]]:
    """Edges of C_p and C_q sharing exactly the vertex 1, on 1..p+q-1.

    The lengths are checked at the call; the edges are then read lazily off
    the closed walk round C_p and C_q, so the caller keeps no copy of them."""
    if p < 3 or q < 3:
        raise DomainError(f"cycle lengths must be >= 3, got ({p},{q})")
    return pairwise(chain(range(1, p + 1), (1,), range(p + 1, p + q), (1,)))


def build_vertex_glued_cycles(p: int, q: int) -> SimpleGraph:
    """Two cycles C_p and C_q sharing exactly the vertex 1; order p+q-1."""
    p, q = _as_int(p, "cycle length"), _as_int(q, "cycle length")
    return SimpleGraph(p + q - 1, _glued_cycles(p, q))


def build_path_joined_cycles(p: int, r: int, q: int) -> SimpleGraph:
    """C_p and C_q joined by a path of length r >= 1; order p+q+r-1."""
    p, q = _as_int(p, "cycle length"), _as_int(q, "cycle length")
    r = _as_int(r, "path length")
    if p < 3 or q < 3:
        raise DomainError(f"cycle lengths must be >= 3, got ({p},{q})")
    if r < 1:
        raise DomainError(f"joining path length must be >= 1, got {r}")
    n = p + q + r - 1
    # round C_p from 1, along the path to its far end p+r, round C_q from there
    return SimpleGraph(n, pairwise(chain(range(1, p + 1), (1,), range(p + 1, n + 1), (p + r,))))


def build_theta(k: int, l: int, m: int) -> SimpleGraph:
    """Three internally disjoint paths of lengths k, l, m between two
    vertices; order k+l+m-1.  At most one length may be 1."""
    k, l, m = (_as_int(x, "path length") for x in (k, l, m))
    if not (1 <= m <= min(k, l)):
        raise DomainError(f"need 1 <= m <= min(k,l), got ({k},{l},{m})")
    if sum(1 for x in (k, l, m) if x == 1) > 1:
        raise DomainError(f"two unit paths would form a multi-edge: ({k},{l},{m})")
    n = k + l + m - 1
    # out from 1 to 2 along the k-path, back along the l-path, out along the m-path
    loop = chain((1,), range(3, k + 2), (2,), reversed(range(k + 2, k + l + 1)))
    return SimpleGraph(n, pairwise(chain(loop, (1,), range(k + l + 1, n + 1), (2,))))


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
    # path j runs over the labels firsts[j] .. firsts[j+1]-1, hung from 1 by
    # its first; (v, v+1) lies inside a path unless v+1 starts the next one
    firsts = list(accumulate(lengths, initial=p + q))
    n = firsts[-1] - 1
    starts = set(firsts)
    inner = ((v, v + 1) for v in range(p + q, n) if v + 1 not in starts)
    return SimpleGraph(n, chain(_glued_cycles(p, q), zip(repeat(1), firsts[:-1]), inner))


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
