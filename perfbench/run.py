"""Closed-loop benchmark of zagrebmax: one client in one process and one
thread, sending the next request only when the last one is answered.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` reports the end-to-end metrics with nothing installed in the
program.  ``--trace 1`` first runs untraced, then wraps the calls into each
zagrebmax module and runs the same pass again to report per-layer self
times and counts, per pass, with the tracing overhead.  See README.md.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
writes ``.perfbench/results/<workload>-seed<n>-trace<t>.json``, and a traced
run writes its spans to ``.perfbench/trace-<workload>-seed<n>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
CAP_ENV = "ZAGREBMAX_ORACLE_CAP"
SETUP_PROBES = 5
SHOWN_FAILURES = 3
TAIL_BEYOND = 10  # inputs that must lie beyond the reported tail percentile

import spans  # noqa: E402
import workloads as wl  # noqa: E402


def load_program():
    """Import zagrebmax from this checkout's src/, and nowhere else."""
    os.environ.pop(CAP_ENV, None)
    sys.path.insert(0, str(SRC))
    try:
        import zagrebmax
        import zagrebmax.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import zagrebmax from {SRC}: {exc}")
    if SRC.resolve() not in Path(zagrebmax.__file__).resolve().parents:
        raise SystemExit(f"perfbench: zagrebmax came from {zagrebmax.__file__}, not {SRC}")
    return zagrebmax


@dataclass
class Outcome:
    wall: float = 0.0
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    latency: dict = field(default_factory=lambda: defaultdict(list))  # key -> seconds per pass


def run_passes(zm, requests, seconds: float, tracer=None) -> Outcome:
    """Send whole passes of ``requests`` until the next one would end
    further from ``seconds`` than stopping now does."""
    out = Outcome()
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for i, req in enumerate(requests):
            if tracer is not None:
                tracer.request = i
            client = wl.Client(zm)
            try:
                problems = wl.run_request(client, req)
            except Exception as exc:  # a failed request is counted, the loop goes on
                problems = [f"{type(exc).__name__}: {exc}"]
                if out.failed < SHOWN_FAILURES:
                    traceback.print_exc()
            out.attempted += 1
            out.latency[req.key].append(client.busy)
            if problems:
                out.failed += 1
                if out.failed <= SHOWN_FAILURES:
                    print(f"perfbench: {req.kind} {req.key}: {'; '.join(problems)}", file=sys.stderr)
        out.passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) / 2 >= seconds:
            out.wall = now - start
            return out


def measure_setup(name: str) -> float:
    """Median time from starting a fresh interpreter to ready to send:
    import zagrebmax, build the CLI parser, answer one warm-up request."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), name],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline().strip()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line != "ready" or code != 0:
            raise SystemExit(f"perfbench: set-up probe said {line!r} and exited {code}")
        times.append(ready - start)
    return statistics.median(times)


def latency_summary(out: Outcome) -> dict:
    """Median and tail over inputs, each input taken at its median latency
    over the passes, so that neither depends on how many passes fit."""
    per_input = sorted(statistics.median(v) for v in out.latency.values())
    n = len(per_input)
    tail_index = max(0, n - 1 - TAIL_BEYOND)
    return {
        "p50_ms": statistics.median(per_input) * 1000.0,
        "tail_ms": per_input[tail_index] * 1000.0,
        # nearest-rank percentile of the tail value: n - 10 of n inputs
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "inputs": n,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def commit() -> tuple[str, bool | None]:
    """HEAD and whether tracked files differ from it; unknown outside git."""
    if not (ROOT / ".git").exists():
        return "unknown", None
    try:
        head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=30,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, check=True, timeout=30,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown", None
    return head, bool(status.strip())


def environment(seed: int) -> dict:
    head, dirty = commit()
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "commit": head,
        "dirty": dirty,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    zm = load_program()
    requests = wl.build(name, seed, ROOT)
    warm = wl.run_request(wl.Client(zm), wl.warmup(name))
    if warm:
        raise SystemExit(f"perfbench: warm-up request failed: {warm}")
    listed = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    why = listed.get(name, "not in BENCHMARK.json; see README.md")
    record = {"workload": name, "why": why, "trace": int(trace), "env": environment(seed),
              "requests_per_pass": len(requests)}
    if not trace:
        setup_s = measure_setup(name)
        out = run_passes(zm, requests, seconds)
        lat = latency_summary(out)
        metrics = {
            "requests_per_s": ((out.attempted - out.failed) / out.wall, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
        record["latency"] = lat
        runs = [out]
    else:
        plain = run_passes(zm, requests, seconds / 2)
        tracer = spans.Tracer()
        tracer.install(zm)
        traced = run_passes(zm, requests, seconds / 2, tracer)
        metrics = spans.layer_metrics(tracer, requests, traced.passes)
        metrics["trace.overhead_ratio"] = (
            (traced.wall / traced.passes) / (plain.wall / plain.passes), "ratio")
        tracer.write(OUT / f"trace-{name}-seed{seed}.json")
        selfs = sorted(tracer.self_times().items(), key=lambda kv: -kv[1])
        record["hotspots_ms"] = {k: v * 1000.0 / traced.passes for k, v in selfs[:5]}
        runs = [plain, traced]
    attempted = sum(o.attempted for o in runs)
    failed = sum(o.failed for o in runs)
    record.update(
        passes=[o.passes for o in runs],
        wall_s=[o.wall for o in runs],
        error_rate=failed / attempted,
        result={
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    )
    return record


def summary(record: dict) -> list[str]:
    res = record["result"]
    lines = [f"# {record['workload']} ({record['why']})", "# env " + json.dumps(record["env"])]
    lines.append(
        f"# requests_per_pass={record['requests_per_pass']} passes={record['passes']} "
        f"wall_s={[round(w, 2) for w in record['wall_s']]} "
        f"error_rate={record['error_rate']:.4g} ({res['failed']}/{res['attempted']})"
    )
    if "latency" in record:
        lat = record["latency"]
        lines.append(
            f"# latency_tail_ms is p{lat['tail_percentile']:.1f} over {lat['inputs']} inputs "
            f"({TAIL_BEYOND} beyond it); both latencies are printed, not in the result line"
        )
        lines.append(f"{'latency_p50_ms':52s} {lat['p50_ms']:14.6g} ms")
        lines.append(f"{'latency_tail_ms':52s} {lat['tail_ms']:14.6g} ms")
    if "hotspots_ms" in record:
        top = ", ".join(f"{k} {v:.0f}" for k, v in record["hotspots_ms"].items())
        lines.append(f"# largest self times, ms per pass: {top}")
    for key, m in res["metrics"].items():
        lines.append(f"{key:52s} {m['value']:14.6g} {m['unit']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(summary(record)))
    print(json.dumps(record["result"]), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    worst = 0
    for name in wl.NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            worst = max(worst, proc.returncode, 1)
    return worst


if __name__ == "__main__":
    sys.exit(main())
