"""Show that the answer checks catch wrong answers and count them as errors.

For each workload, one small request is sent twice: once as the program
answers it, which must pass, and once with one answer corrupted on its way
back (a witness edge moved, a value off by one, a chain step skipped, a
logged swap dropped), which must fail.  The corrupted request is then run
through the harness loop, where it must land in ``failed``.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import random
import sys

import run
import workloads as wl


def move_edge(edges: list) -> list:
    """The same edge count with one edge re-attached so that the degree
    multiset changes: u-v becomes u-w where deg(w) != deg(v) - 1."""
    edges = [list(e) for e in edges]
    deg: dict[int, int] = {}
    for a, b in edges:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    present = {tuple(sorted(e)) for e in edges}
    u, v = edges[0]
    for w in sorted(deg):
        if w not in (u, v) and tuple(sorted((u, w))) not in present and deg[w] != deg[v] - 1:
            edges[0] = [u, w]
            return edges
    raise ValueError("no endpoint to move the edge to")


def corrupt(command: str, result):
    """A wrong answer in place of the program's answer to ``command``."""
    if command == "search_max_m2":
        return dataclasses.replace(result, max_m2=result.max_m2 + 1)
    result = dict(result)
    if command == "oracle":
        result["witness_edges"] = move_edge(result["witness_edges"])
    elif command == "bicyclic-max":
        result["value"] += 1
    elif command == "majorize":
        result["chain"] = result["chain"][:1] + result["chain"][2:]
    elif command == "improve":
        result["moves"] = result["moves"][1:]
    return result


class CorruptingClient(wl.Client):
    """Hands back a wrong answer for one command or library function."""

    target = ""

    def cli(self, *argv, rejects=False):
        result = super().cli(*argv, rejects=rejects)
        return corrupt(argv[0], result) if argv[0] == self.target else result

    def call(self, fn, *args, **kwargs):
        result = super().call(fn, *args, **kwargs)
        return corrupt(fn.__name__, result) if getattr(fn, "__name__", "") == self.target else result


def cases() -> list[tuple[wl.Request, str]]:
    """A small request per workload, and the command whose answer is
    corrupted: the oracle witness of a bicyclic certify request, the value
    of a case-3 bicyclic-max, the census search maximum, a chain and a
    hill climb's swap log."""
    folder = run.OUT / "inputs" / "selftest"
    folder.mkdir(parents=True, exist_ok=True)
    n, edges = wl.improve_pool()[0]
    path = folder / "graph.txt"
    wl.write_graph(path, n, edges)
    a, b = wl.dominated_pair(random.Random("selftest"), 60)
    return [
        (wl.Request("certify", "certify", ((4, 3, 2, 2, 2, 2, 2, 1),)), "oracle"),
        (wl.Request("scale", "bicyclic3", ((6, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1),)), "bicyclic-max"),
        (wl.Request("census", "census", ((3, 2, 2, 2, 2, 1),)), "search_max_m2"),
        (wl.Request("chain", "chain", (tuple(a), tuple(b))), "majorize"),
        (wl.Request("improve", "improve", (str(path), n, tuple(edges))), "improve"),
    ]


def main() -> int:
    zm = run.load_program()
    bad = 0
    for req, target in cases():
        honest = wl.run_request(wl.Client(zm), req)
        CorruptingClient.target = target
        wrong = wl.run_request(CorruptingClient(zm), req)
        verdict = "ok" if not honest and wrong else "MISSED"
        bad += verdict != "ok"
        print(f"{req.key:8s} {target:14s} honest: {honest or 'passes'}  corrupted: {wrong or 'passes'}  {verdict}")
        # the same corrupted request through the harness loop lands in `failed`
        honest_client, wl.Client = wl.Client, CorruptingClient
        try:
            out = run.run_passes(zm, [req], 0.0)
        finally:
            wl.Client = honest_client
        if (out.attempted, out.failed) != (1, 1):
            bad += 1
            print(f"{req.key}: harness counted attempted={out.attempted} failed={out.failed}")
    print("selftest:", "every corrupted answer was counted as an error" if not bad else f"{bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
