"""The four workloads: seeded inputs, one request, and its answer checks.

A workload is a list of requests built from ``--seed`` alone (one *pass*).
The harness in ``run.py`` sends the requests of a pass one at a time, as a
single client that waits for each answer, and repeats whole passes.  The
program only ever sees the generated inputs: sequences as CLI text, graph
files, or ``DegreeSequence`` values for the one library-only path.

Pass sizes are chosen so that a pass of the seed code takes 15-25 s on a
2-CPU x86 machine, and so that every seed gets a pass of the same cost:
the heavy-tailed pools of ``certify``, ``census`` and the ``walks`` graphs
are cut into slices of equal seed-code cost (``costs.json``), and size
ranges are sampled by stratum rather than at random.
"""

from __future__ import annotations

import io
import json
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import check

NAMES = ("certify", "scale", "census", "walks")

ORACLE_CAP = "10"  # the program's default cap, passed explicitly
CERTIFY_ANCHOR = (4, 4, 3, 3, 2, 2, 2, 2, 1, 1)
CERTIFY_SLICES = 3
CENSUS_SLICES = 11
SCALE_RANGE = (100, 2000)
SCALE_STRATA = 36
CHAIN_RANGE = (50, 250)
CHAIN_STRATA = 32
CHAIN_MOVES = 2  # tries at a Robin Hood move per vertex, from B down to A
IMPROVE_RANGE = (40, 150)
IMPROVE_POOL = 40
IMPROVE_SLICES = 7


class RequestFailed(Exception):
    """The program raised, or a CLI call ended with a non-zero exit code."""


@dataclass(frozen=True)
class Request:
    key: str  # names the input; latencies are grouped by it
    kind: str
    data: tuple


class Client:
    """Sends calls to the program in-process and adds up the time they take.

    Attributes of ``zagrebmax`` are looked up at call time, so that the
    traced run sees the wrappers it installs."""

    def __init__(self, zagrebmax):
        self.zm = zagrebmax
        self.busy = 0.0

    def cli(self, *argv: str, rejects: bool = False) -> dict | None:
        """The ``result`` of the command's JSON report.  With ``rejects``, a
        domain rejection (exit code 1) is an answer too, returned as None."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.zm.cli.main(list(argv))
        finally:
            self.busy += time.perf_counter() - start
        if code == 1 and rejects:
            return None
        if code != 0:
            raise RequestFailed(f"{argv[0]} exited {code}: {err.getvalue().strip()[:200]}")
        return json.loads(out.getvalue())["result"]

    def call(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.busy += time.perf_counter() - start


def text(seq) -> str:
    return ",".join(str(d) for d in seq)


# ---------------------------------------------------------------- inputs


def connected_sequences(n: int, excess: int) -> list[tuple[int, ...]]:
    """Every non-increasing graphic sequence of n positive degrees with
    degree sum 2(n + excess); for excess >= -1 these are exactly the
    connected-realizable ones."""
    total = 2 * (n + excess)
    found = []

    def rec(left: int, slots: int, cap: int, acc: list[int]):
        if slots == 0:
            if left == 0 and check.graphic(acc):
                found.append(tuple(acc))
            return
        for v in range(min(cap, left - (slots - 1)), 0, -1):
            if v * slots < left:
                break
            acc.append(v)
            rec(left - v, slots - 1, v, acc)
            acc.pop()

    rec(total, n, n - 1, [])
    return found


def cut(items: list, cost: dict, k: int) -> list[list]:
    """Cut ``items`` into k slices of equal size (within one) and nearly
    equal total cost.  Deal the items out by falling cost, alternating the
    direction each round, then swap items of neighbouring cost rank between
    the dearest and the cheapest slice while that narrows the gap.  Slices
    so keep the same mix of cheap and dear inputs as the whole pool."""
    ranked = sorted(items, key=lambda it: (-cost[it], it))
    rank = {it: i for i, it in enumerate(ranked)}
    out: list[list] = [[] for _ in range(k)]
    for i, it in enumerate(ranked):
        lap, pos = divmod(i, k)
        out[pos if lap % 2 == 0 else k - 1 - pos].append(it)
    for _ in range(10 * len(items)):
        totals = [sum(cost[it] for it in s) for s in out]
        hi = max(range(k), key=totals.__getitem__)
        lo = min(range(k), key=totals.__getitem__)
        gap = totals[hi] - totals[lo]
        best = None
        for a in out[hi]:
            for b in out[lo]:
                d = cost[a] - cost[b]
                if 0 < d < gap and abs(rank[a] - rank[b]) <= k:
                    if best is None or abs(gap - 2 * d) < abs(gap - 2 * best[0]):
                        best = (d, a, b)
        if best is None:
            break
        _, a, b = best
        out[hi].remove(a)
        out[lo].remove(b)
        out[hi].append(b)
        out[lo].append(a)
    return [sorted(s) for s in out]


def strata(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One size per log-spaced stratum of [lo, hi]: a stratified draw from
    the log-uniform distribution, jittered within the middle of each
    stratum so that every seed's pass costs about the same."""
    span = math.log(hi / lo)
    return [
        round(lo * math.exp(span * (k + 0.5 + rng.uniform(-0.15, 0.15)) / count))
        for k in range(count)
    ]


def random_sequence(rng: random.Random, n: int, excess: int) -> list[int]:
    """A random admissible sequence: degrees 1 + a random spread of the
    remaining degree sum, with d2 >= c + 2, degree >= 2 on the c + 1 apex
    vertices, a leaf, graphic, and a valid layered construction."""
    while True:
        deg = [1] * n
        extra = 2 * (n + excess) - n
        floor = [excess + 1, excess + 1] + [1] * max(0, excess + 1)
        for i, f in enumerate(floor):
            deg[i] += f
            extra -= f
        for _ in range(extra):
            deg[rng.randrange(n)] += 1
        seq = sorted(deg, reverse=True)
        if (
            seq[-1] == 1
            and seq[0] <= n - 1
            and check.graphic(seq)
            and check.layered_ok(seq)
        ):
            return seq


def bicyclic_sequence(rng: random.Random, n: int, case: int) -> list[int]:
    if case == 1:
        return [3, 3] + [2] * (n - 2)
    if case == 2:
        return [4] + [2] * (n - 1)
    if case in (3, 4):
        # profile (s + 4, 2^(n - 1 - s), 1^s); case 3 iff 2s <= n - 5
        lo, hi = (1, (n - 5) // 2) if case == 3 else ((n - 5) // 2 + 1, n - 5)
        s = rng.randint(lo, hi)
        return [s + 4] + [2] * (n - 1 - s) + [1] * s
    while True:
        seq = random_sequence(rng, n, 1)
        if seq[1] >= 3:
            return seq


def random_graph(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """A random connected graph: a random recursive tree plus random extra
    edges, under a random labelling."""
    label = list(range(1, n + 1))
    rng.shuffle(label)
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        a, b = label[u], label[v]
        edges.add((min(a, b), max(a, b)))
    while len(edges) < m:
        a, b = rng.sample(label, 2)
        edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def dominated_pair(rng: random.Random, n: int) -> tuple[list[int], list[int]]:
    """(A, B) of length n with A strictly below B in the dominance order.
    B is a random graphic sequence of average degree 4; A is B after 2n
    tries at a Robin Hood move (one unit from a larger degree to a smaller one),
    which keep it graphic."""
    while True:
        deg = [1] * n
        for _ in range(3 * n):
            deg[rng.randrange(n)] += 1
        b = sorted(deg, reverse=True)
        if b[0] <= n - 1 and check.graphic(b):
            break
    a = list(b)
    for _ in range(CHAIN_MOVES * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if a[i] - a[j] >= 2:
            a[i] -= 1
            a[j] += 1
    a.sort(reverse=True)
    if a == b:
        return dominated_pair(rng, n)
    return a, b


def write_graph(path: Path, n: int, edges) -> None:
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def certify_pool() -> list[tuple[int, ...]]:
    pool = [s for n in (8, 9) for c in range(-1, 4) for s in connected_sequences(n, c)]
    return pool + [CERTIFY_ANCHOR]


def census_pool(n: int) -> list[tuple[int, ...]]:
    return [s for c in range(-1, 4) for s in connected_sequences(n, c)]


def improve_pool() -> list[tuple[int, list[tuple[int, int]]]]:
    """The fixed pool of hill-climb start graphs: one random connected graph
    with m = 1.5 n per log-spaced stratum of sizes."""
    rng = random.Random("walks:pool")
    return [(n, random_graph(rng, n, round(1.5 * n))) for n in strata(rng, *IMPROVE_RANGE, IMPROVE_POOL)]


def build(name: str, seed: int, root: Path) -> list[Request]:
    """The pass of requests for one workload and seed, in sending order."""
    rng = random.Random(f"{name}:{seed}")
    costs = json.loads((root / "perfbench" / "costs.json").read_text())
    if name == "certify":
        cost = {s: costs["certify"][text(s)] for s in certify_pool()}
        chosen = cut(list(cost), cost, CERTIFY_SLICES)[seed % CERTIFY_SLICES]
        reqs = [Request(text(s), "certify", (s,)) for s in chosen]
    elif name == "census":
        large = census_pool(7)
        cost = {s: costs["census"][text(s)] for s in large}
        chosen = census_pool(6) + cut(large, cost, CENSUS_SLICES)[seed % CENSUS_SLICES]
        reqs = [Request(text(s), "census", (s,)) for s in chosen]
    elif name == "scale":
        reqs = scale_requests(rng)
    elif name == "walks":
        reqs = walks_requests(rng, seed, costs["improve"], root / ".perfbench" / "inputs" / f"walks-{seed}")
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(reqs)
    return reqs


# Kinds of scale request; all but bicyclic case 5 cost four Erdos-Gallai
# runs, so they may trade strata freely.  Case 5 costs seven and keeps
# fixed strata, so that every seed's pass does the same work.
SCALE_KINDS = ("tree", "unicyclic", "c2", "c3", "bicyclic1", "bicyclic2", "bicyclic3", "bicyclic4")
SCALE_CASE5_STRATA = (4, 13, 22, 31)


def scale_requests(rng: random.Random) -> list[Request]:
    sizes = strata(rng, *SCALE_RANGE, SCALE_STRATA)
    kinds = []
    for _ in range(0, SCALE_STRATA, len(SCALE_KINDS)):
        lap = list(SCALE_KINDS)
        rng.shuffle(lap)
        kinds += lap
    kinds = kinds[:SCALE_STRATA]
    plan = list(zip(sizes, kinds)) + [(sizes[k], "bicyclic5") for k in SCALE_CASE5_STRATA]
    reqs = []
    for i, (n, kind) in enumerate(plan):
        if kind.startswith("bicyclic"):
            seq = bicyclic_sequence(rng, n, int(kind[-1]))
        else:
            excess = {"tree": -1, "unicyclic": 0, "c2": 2, "c3": 3}[kind]
            seq = random_sequence(rng, n, excess)
        reqs.append(Request(f"{kind}-n{n}-{i}", kind, (tuple(seq),)))
    return reqs


def walks_requests(rng: random.Random, seed: int, costs: dict, folder: Path) -> list[Request]:
    reqs = []
    for i, n in enumerate(strata(rng, *CHAIN_RANGE, CHAIN_STRATA)):
        a, b = dominated_pair(rng, n)
        reqs.append(Request(f"chain-n{n}-{i}", "chain", (tuple(a), tuple(b))))
    pool = improve_pool()
    cost = {i: costs[str(i)] for i in range(len(pool))}
    folder.mkdir(parents=True, exist_ok=True)
    for i in cut(list(range(len(pool))), cost, IMPROVE_SLICES)[seed % IMPROVE_SLICES]:
        n, edges = pool[i]
        path = folder / f"graph-{i}.txt"
        write_graph(path, n, edges)
        reqs.append(Request(f"improve-n{n}-{i}", "improve", (str(path), n, tuple(edges))))
    return reqs


def warmup(name: str) -> Request:
    """A fixed small request of the workload, sent once before timing."""
    if name == "certify":
        return Request("warmup", "certify", ((2, 2, 2, 2, 2, 2, 1, 1),))
    if name == "census":
        return Request("warmup", "census", ((2, 2, 2, 2, 1, 1),))
    rng = random.Random(f"{name}:warmup")
    if name == "scale":
        return Request("warmup", "bicyclic5", (tuple(bicyclic_sequence(rng, 100, 5)),))
    a, b = dominated_pair(rng, 50)
    return Request("warmup", "chain", (tuple(a), tuple(b)))


# ---------------------------------------------------------------- requests


def run_request(client: Client, req: Request) -> list[str]:
    """Send one request and check the answers; returns the problems found."""
    if req.kind == "certify":
        return certify(client, list(req.data[0]))
    if req.kind == "census":
        return census(client, list(req.data[0]))
    if req.kind == "chain":
        return chain(client, list(req.data[0]), list(req.data[1]))
    if req.kind == "improve":
        return improve(client, *req.data)
    return scale(client, list(req.data[0]))


def validate(client: Client, seq: list[int]) -> tuple[dict, list[str]]:
    got = client.cli("validate", text(seq))
    want = check.conditions(seq)
    problems = []
    if not (got["graphic"] and got["connected_realizable"]):
        problems.append("validate rejects a connected-realizable sequence")
    elif got["class"]["excess"] != want["excess"]:
        problems.append(f"validate reports excess {got['class']['excess']}")
    if any(got["conditions"][k] != want[k] for k in ("i", "ii", "iii", "iv")):
        problems.append("validate reports wrong conditions (i)-(iv)")
    return want, problems


def construct(client: Client, seq: list[int], cond: dict) -> tuple[int | None, list[str]]:
    """The layered construction when (i), (ii) and (iv) hold: its M2 (None
    when it is rejected), and problems with the answer.  It must be
    rejected exactly when the layout cannot place every vertex."""
    if not (cond["i"] and cond["ii"] and cond["iv"]):
        return None, []
    feasible = check.layered_ok(seq)
    got = client.cli("construct", text(seq), rejects=True)
    if got is None:
        return None, [] if not feasible else ["construct rejects a feasible layout"]
    if not feasible:
        return None, ["construct accepts a layout that cannot place every vertex"]
    n = len(seq)
    problems = check.graph_problems(seq, got["n"], got["edges"], "construct")
    if len(got["edges"]) != n + cond["excess"]:
        problems.append(f"construct has {len(got['edges'])} edges, wanted n + c")
    value = check.m2(n, got["edges"])
    if got["m2"] != value:
        problems.append(f"construct reports M2 {got['m2']}, edges give {value}")
    return value, problems


def bicyclic(client: Client, seq: list[int]) -> tuple[int, list[str]]:
    got = client.cli("bicyclic-max", text(seq))
    n = len(seq)
    problems = check.graph_problems(seq, n, got["edges"], "bicyclic-max witness")
    if len(got["edges"]) != n + 1:
        problems.append("bicyclic-max witness is not bicyclic")
    if check.m2(n, got["edges"]) != got["value"]:
        problems.append("bicyclic-max value differs from its witness")
    case, closed = check.bicyclic_case(seq)
    if got["case"] != case:
        problems.append(f"bicyclic-max reports case {got['case']}, wanted {case}")
    if closed is not None and got["value"] != closed:
        problems.append(f"bicyclic-max value {got['value']} != closed form {closed}")
    return got["value"], problems


def certify(client: Client, seq: list[int]) -> list[str]:
    n = len(seq)
    cond, problems = validate(client, seq)
    got = client.cli("oracle", text(seq), "--cap", ORACLE_CAP, "--no-timing")
    best = got["max_m2"]
    problems += check.graph_problems(seq, n, got["witness_edges"], "oracle witness")
    if check.m2(n, got["witness_edges"]) != best:
        problems.append("oracle witness M2 differs from max_m2")
    built, more = construct(client, seq, cond)
    problems += more
    if built is not None:
        verdict = cond["i"] and cond["ii"] and cond["iii"] and cond["iv"]
        if built > best or (verdict and built != best):
            problems.append(f"construct M2 {built} vs certified maximum {best}")
    if cond["excess"] == 1:
        value, more = bicyclic(client, seq)
        problems += more
        if value != best:
            problems.append(f"bicyclic-max {value} != certified maximum {best}")
    return problems


def scale(client: Client, seq: list[int]) -> list[str]:
    cond, problems = validate(client, seq)
    built, more = construct(client, seq, cond)
    problems += more
    if cond["excess"] == 1:
        value, more = bicyclic(client, seq)
        problems += more
        if built is not None and value != built:
            problems.append("bicyclic-max case 5 differs from the construction")
    return problems


def census(client: Client, seq: list[int]) -> list[str]:
    zm = client.zm
    n = len(seq)
    ds = zm.sequences.DegreeSequence(tuple(seq))
    reps = client.call(
        lambda: list(zm.oracle.enumerate_realizations(ds, cap=int(ORACLE_CAP), isomorphism_reduce=True))
    )
    climbs = [client.call(zm.oracle.hill_climb, g) for g in reps]
    found = client.call(zm.oracle.search_max_m2, ds, cap=int(ORACLE_CAP))
    best = found.max_m2
    problems = check.graph_problems(seq, found.witness.n, found.witness.edges, "search witness")
    if check.m2(n, found.witness.edges) != best:
        problems.append("search witness M2 differs from max_m2")
    if not reps:
        return problems + ["enumeration yielded no representative"]
    values = []
    for g, (end, _) in zip(reps, climbs):
        problems += check.graph_problems(seq, g.n, g.edges, "representative")
        start = check.m2(n, g.edges)
        values.append(start)
        if check.degrees(n, end.edges) != check.degrees(n, g.edges):
            problems.append("hill climb changed a degree")
        if not start <= check.m2(n, end.edges) <= best:
            problems.append("hill climb ends outside [initial M2, maximum]")
    if max(values) != best:
        problems.append(f"best representative M2 {max(values)} != search maximum {best}")
    return problems


def chain(client: Client, a: list[int], b: list[int]) -> list[str]:
    got = client.cli("majorize", text(a), text(b), "--chain")
    if got["order"] != "a_below_b" or not got.get("chain"):
        return [f"majorize reports {got['order']} for a dominated pair"]
    steps = [[int(x) for x in s.split(",")] for s in got["chain"]]
    if steps[0] != a or steps[-1] != b:
        return ["chain does not run from A to B"]
    for prev, cur in zip(steps, steps[1:]):
        problems = check.unit_transfer_problems(prev, cur)
        if problems:
            return problems
    return []


def improve(client: Client, path: str, n: int, edges) -> list[str]:
    got = client.cli("improve", path)
    problems = check.swap_replay_problems(n, edges, got["moves"], got["edges"])
    if got["initial_m2"] != check.m2(n, edges):
        problems.append("improve reports a wrong initial M2")
    if got["final_m2"] != check.m2(n, got["edges"]):
        problems.append("improve reports a wrong final M2")
    return problems
