"""One set-up of the benchmark client, timed by run.py from process start.

Imports zagrebmax from this checkout, builds the CLI parser and answers
one fixed warm-up request, then prints ``ready`` and exits.

    python3 perfbench/setup_probe.py certify
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import zagrebmax  # noqa: E402
import zagrebmax.cli  # noqa: E402

import workloads as wl  # noqa: E402

zagrebmax.cli.build_parser()
problems = wl.run_request(wl.Client(zagrebmax), wl.warmup(sys.argv[1]))
print("failed" if problems else "ready", flush=True)
