"""Answer checks that share no code with zagrebmax.

Every function here works on plain data (a vertex count, lists of edge
pairs, lists of degrees) so that a defect in the program under test cannot
hide itself by also breaking the checker.  Each check returns a list of
problems; an empty list means the answer is correct.
"""

from __future__ import annotations


def degrees(n: int, edges) -> list[int]:
    """Degree of each vertex 1..n (index 0 unused)."""
    deg = [0] * (n + 1)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def simple_problems(n: int, edges) -> list[str]:
    """Loops, repeated edges and labels outside 1..n."""
    seen = set()
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n):
            return [f"edge ({u},{v}) outside 1..{n}"]
        if u == v:
            return [f"loop at {u}"]
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return [f"repeated edge {key}"]
        seen.add(key)
    return []


def connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * (n + 1)
    seen[1] = True
    stack = [1]
    count = 1
    while stack:
        for w in adj[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == n


def m2(n: int, edges) -> int:
    """Second Zagreb index: sum of deg(u) * deg(v) over the edges."""
    deg = degrees(n, edges)
    return sum(deg[u] * deg[v] for u, v in edges)


def graphic(seq) -> bool:
    """Erdos-Gallai on any list of non-negative integers, O(n log n)."""
    d = sorted(seq, reverse=True)
    if not d or d[-1] < 0 or sum(d) % 2:
        return False
    n = len(d)
    # suffix[k] = sum of d[k:]; the tail sum of min(k, d_j) splits at the
    # first index whose degree drops below k.
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + d[i]
    lhs = 0
    split = n  # first index j with d[j] < k, searched from the right
    for k in range(1, n + 1):
        lhs += d[k - 1]
        while split > 0 and d[split - 1] < k:
            split -= 1
        big = max(split, k)  # indices k..big-1 contribute k each
        rhs = k * (k - 1) + k * (big - k) + suffix[big]
        if lhs > rhs:
            return False
    return True


def conditions(seq: list[int]) -> dict:
    """Admissibility conditions (i)-(iv) of the layered construction."""
    n = len(seq)
    c = sum(seq) // 2 - n
    if c <= 0:
        iii = True
    elif n < c + 3:
        iii = False
    else:
        plateau = seq[3 : c + 3]
        iii = all(x == plateau[0] for x in plateau) and seq[2] >= plateau[0]
    return {
        "excess": c,
        "i": c >= -1,
        "ii": n >= 2 and seq[1] >= c + 2,
        "iii": iii,
        "iv": seq[-1] == 1,
    }


def bicyclic_case(seq: list[int]) -> tuple[int, int | None]:
    """Case number 1-5 of a bicyclic sequence and, for cases 1-4, the
    closed-form maximum of the second Zagreb index."""
    n = len(seq)
    s = seq.count(1)
    if seq[-1] == 2:
        if seq[1] >= 3:
            return 1, 4 * n + 17
        return 2, 4 * n + 20
    if seq[1] == 2:
        if 2 * s <= n - 5:
            return 3, 4 * n + 2 * s * s + 10 * s + 20
        return 4, s * n + 6 * n + s + 10
    return 5, None


def graph_problems(seq: list[int], n: int, edges, what: str) -> list[str]:
    """A connected simple graph on n vertices whose sorted degrees are seq."""
    out = simple_problems(n, edges)
    if out:
        return [f"{what}: {out[0]}"]
    if n != len(seq):
        return [f"{what}: {n} vertices for a sequence of length {len(seq)}"]
    if sorted(degrees(n, edges)[1:], reverse=True) != seq:
        return [f"{what}: degrees do not realize the sequence"]
    if not connected(n, edges):
        return [f"{what}: not connected"]
    return []


def unit_transfer_problems(prev: list[int], cur: list[int]) -> list[str]:
    """cur is prev with one unit moved from a later position q to an
    earlier position p, still non-increasing and graphic."""
    if len(prev) != len(cur):
        return ["chain step changes the length"]
    diff = [i for i, (a, b) in enumerate(zip(prev, cur)) if a != b]
    if len(diff) != 2:
        return [f"chain step changes {len(diff)} positions"]
    p, q = diff
    if cur[p] != prev[p] + 1 or cur[q] != prev[q] - 1:
        return [f"chain step at ({p},{q}) is not a unit transfer upwards"]
    if any(cur[i] < cur[i + 1] for i in range(len(cur) - 1)):
        return ["chain step is not sorted"]
    if not graphic(cur):
        return ["chain step is not graphic"]
    return []


def swap_replay_problems(n: int, edges, moves, final_edges) -> list[str]:
    """Replay logged two-edge swaps; each must keep the degrees, raise M2
    strictly, and the last graph must equal the reported one."""
    current = {(u, v) if u < v else (v, u) for u, v in edges}
    deg = degrees(n, edges)
    for k, mv in enumerate(moves):
        removed = [(u, v) if u < v else (v, u) for u, v in mv["removed"]]
        added = [(u, v) if u < v else (v, u) for u, v in mv["added"]]
        ends = sorted(x for e in removed for x in e)
        if ends != sorted(x for e in added for x in e) or len(set(ends)) != 4:
            return [f"move {k} is not a swap on four distinct vertices"]
        if any(e not in current for e in removed) or any(e in current for e in added):
            return [f"move {k} removes an absent or adds a present edge"]
        gain = sum(deg[u] * deg[v] for u, v in added) - sum(
            deg[u] * deg[v] for u, v in removed
        )
        if gain <= 0:
            return [f"move {k} does not raise M2"]
        current.difference_update(removed)
        current.update(added)
    final = {(u, v) if u < v else (v, u) for u, v in final_edges}
    if final != current:
        return ["reported graph differs from the replayed swaps"]
    if not connected(n, sorted(final)):
        return ["climb ended on a disconnected graph"]
    return []


def layered_ok(seq: list[int]) -> bool:
    """Whether the layered construction can place every vertex: replay its
    bookkeeping of attached vertices (the root's layer, the c + 1 apex
    triangles at vertex 2, then fresh children in label order)."""
    n = len(seq)
    c = sum(seq) // 2 - n
    if c >= 0 and n < c + 3:
        return False
    have = [0] * (n + 1)
    attached = seq[0] + 1  # vertices 1..attached carry an edge
    if attached > n:
        return False
    have[1] = seq[0]
    for j in range(2, attached + 1):
        have[j] = 1
    if c >= 0:
        have[2] += c + 1
        for j in range(3, c + 4):
            have[j] += 1
    for i in range(2, n + 1):
        if i > attached or have[i] > seq[i - 1]:
            return False
        grow = seq[i - 1] - have[i]
        if attached + grow > n:
            return False
        for j in range(attached + 1, attached + grow + 1):
            have[j] = 1
        attached += grow
    return attached == n
