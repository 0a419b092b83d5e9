"""Golden CLI output: exit code, stdout digest and stderr text of a fixed set
of calls, recorded in ``golden_cli.json``.

The set covers ``validate``, ``construct``, ``bicyclic-max`` and
``oracle --no-timing`` on every connected-realizable sequence with n <= 8
and excess -1..3, plus some ``sweep``, ``majorize --chain``, malformed-input
and over-cap calls.  The oracle's ``nodes`` counter is dropped before
hashing, so a change to the search tree alone does not count as a change of
output.  argparse errors are left out: their wording varies across Python
versions.

Regenerate the data file only when an output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from zagrebmax import cli
from zagrebmax import sequences as sq

DATA = Path(__file__).with_name("golden_cli.json")

EXTRA_CALLS = (
    ("sweep", "--n", "6", "--excess", "1", "--verify-monotone"),
    ("sweep", "--n", "7", "--excess", "0", "--verify-monotone"),
    ("sweep", "--n", "6", "--excess", "2"),
    ("majorize", "4,3,3,2,2,1,1", "4,4,3,3,2,1,1", "--chain"),
    ("majorize", "3,3,2,2,2", "4,2,2,2,2", "--chain"),
    ("majorize", "3,3,3,1,1,1", "4,2,2,2,1,1", "--chain"),
    ("majorize", "3,3,2,2,2,2", "4,3,2,2,2,1", "--chain", "--pretty"),
    ("validate", "4,4,3,3,2,1,1", "--pretty"),
    ("validate", "x,y"),
    ("validate", "4^"),
    ("validate", "2,2,1"),
    ("construct", "2,2,1"),
    ("construct", "4,2,2,2,2"),
    ("oracle", "3,3,1,1", "--no-timing"),
    ("bicyclic-max", "3,3,2,2"),
    ("bicyclic-max", "2,2,2,2"),
    ("majorize", "2,2,2", "x"),
    ("oracle", "2^12", "--no-timing"),
    ("oracle", "2,2,2,2", "--cap", "3", "--no-timing"),
    ("sweep", "--n", "12", "--excess", "0"),
    ("sweep", "--n", "7", "--excess", "1", "--cap", "6"),
)


def golden_calls() -> list[tuple[str, ...]]:
    calls = []
    for n in range(1, 9):
        for excess in range(-1, 4):
            for seq in sq.connected_realizable_sequences(n, excess):
                text = seq.to_text()
                calls.append(("validate", text))
                calls.append(("construct", text))
                calls.append(("bicyclic-max", text))
                calls.append(("oracle", text, "--no-timing"))
    calls.extend(EXTRA_CALLS)
    return calls


def run_call(argv: tuple[str, ...]) -> list:
    """[argv joined by spaces, exit code, SHA-256 of stdout, stderr text]."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    stdout = out.getvalue()
    if argv[0] == "oracle" and code == cli.EXIT_OK:
        report = json.loads(stdout)
        del report["result"]["nodes"]
        stdout = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    return [" ".join(argv), code, digest, err.getvalue()]


def test_cli_output_matches_the_golden_file(monkeypatch):
    monkeypatch.delenv("ZAGREBMAX_ORACLE_CAP", raising=False)
    expected = json.loads(DATA.read_text(encoding="ascii"))
    actual = [run_call(argv) for argv in golden_calls()]
    assert [row[0] for row in actual] == [row[0] for row in expected]
    mismatched = [(want, got) for want, got in zip(expected, actual) if want != got]
    assert not mismatched, mismatched[:5]


if __name__ == "__main__":
    os.environ.pop("ZAGREBMAX_ORACLE_CAP", None)
    rows = [run_call(argv) for argv in golden_calls()]
    DATA.write_text(
        "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n", encoding="ascii"
    )
    print(f"wrote {len(rows)} calls to {DATA}")
