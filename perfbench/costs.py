"""Write costs.json: the time of one request for every input of the fixed
pools of ``certify``, ``census`` (n = 7) and ``walks`` (hill-climb graphs),
which ``workloads.cut`` uses to split those pools into slices of equal
cost.

Each cost is the median of three sends spread minutes apart: the CPU
speed of a shared machine drifts by up to 2x for seconds to minutes, and
the fastest send would favour short requests, which often fit into a fast
spell, over long ones, which rarely do.  The
committed file was measured on the seed code (2-CPU x86, Python 3.11).
Regenerating it changes which inputs each seed gets, so it is part
of the benchmark's definition: rerun it only together with a deliberate
change of the benchmark, never to compare two versions of the program.

    python3 perfbench/costs.py
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import zagrebmax  # noqa: E402
import zagrebmax.cli  # noqa: E402,F401

import workloads as wl  # noqa: E402


REPEATS = 3


def timed(req: wl.Request) -> float:
    client = wl.Client(zagrebmax)
    problems = wl.run_request(client, req)
    if problems:
        raise SystemExit(f"{req.kind} {req.key}: {problems}")
    return client.busy


def requests() -> dict[str, list[wl.Request]]:
    folder = ROOT / ".perfbench" / "inputs" / "costs"
    folder.mkdir(parents=True, exist_ok=True)
    improve = []
    for i, (n, edges) in enumerate(wl.improve_pool()):
        path = folder / f"graph-{i}.txt"
        wl.write_graph(path, n, edges)
        improve.append(wl.Request(str(i), "improve", (str(path), n, tuple(edges))))
    return {
        "certify": [wl.Request(wl.text(s), "certify", (s,)) for s in wl.certify_pool()],
        "census": [wl.Request(wl.text(s), "census", (s,)) for s in wl.census_pool(7)],
        "improve": improve,
    }


def main() -> None:
    pools = requests()
    times: dict[str, dict[str, list[float]]] = {name: {} for name in pools}
    for rep in range(REPEATS):
        for name, reqs in pools.items():
            for req in reqs:
                ms = timed(req) * 1000.0
                times[name].setdefault(req.key, []).append(ms)
                print(rep, name, req.key, round(ms, 1), flush=True)
    costs = {"unit": "ms"}
    for name, per_key in times.items():
        costs[name] = {key: round(statistics.median(v), 1) for key, v in per_key.items()}
    (ROOT / "perfbench" / "costs.json").write_text(json.dumps(costs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
