"""End-to-end tests of the command-line interface (subprocess level)."""

import json
import os
import subprocess
import sys

import pytest

from zagrebmax import SimpleGraph, cli, serialize_edge_list
from zagrebmax import sequences as sq
from helpers import SEVEN_VERTEX_GREEDY


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "zagrebmax", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def run_json(*args, **kwargs):
    proc = run_cli(*args, **kwargs)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# --- validate -------------------------------------------------------------------


def test_validate_counterexample_sequence():
    out = run_json("validate", "4,4,3,3,2,1,1")
    res = out["result"]
    assert res["graphic"] and res["connected_realizable"]
    assert res["class"]["excess"] == 2 and res["class"]["kind"] == "multicyclic"
    assert res["conditions"]["iii"] is False and res["conditions"]["verdict"] is False


def test_validate_non_graphic():
    out = run_json("validate", "3,3,1,1")
    assert out["result"]["graphic"] is False
    assert out["result"]["class"] is None


def test_validate_run_length_bicyclic():
    out = run_json("validate", "4^5,1^8")
    res = out["result"]
    assert res["graphic"] and res["class"]["kind"] == "bicyclic"
    assert res["conditions"]["verdict"] is True


def test_exit_codes():
    assert run_cli("validate", "x,y").returncode == 2
    assert run_cli("validate", "2,2,1").returncode == 1  # odd sum
    assert run_cli("construct", "4,2,2,2,2").returncode == 1
    assert run_cli("oracle", "2^12").returncode == 3


# --- construct ------------------------------------------------------------------


def test_construct_json_thirteen_vertices():
    out = run_json("construct", "4,4,4,4,4,1^8")
    res = out["result"]
    assert res["m2"] == 128
    assert res["triangles"] == [[1, 2, 3], [1, 2, 4]]
    assert len(res["edges"]) == 14
    assert out["warnings"] == []


def test_construct_star():
    out = run_json("construct", "3,1,1,1")
    assert out["result"]["m2"] == 9


def test_construct_warns_on_plateau_violation():
    out = run_json("construct", "4,4,3,3,2,1,1")
    assert out["result"]["m2"] == 86
    assert any("condition (iii)" in w for w in out["warnings"])


def test_construct_edges_format_round_trips(tmp_path):
    proc = run_cli("construct", "3,3,3,3,1,1", "--format", "edges")
    assert proc.returncode == 0
    path = tmp_path / "g.edges"
    path.write_text(proc.stdout)
    out = run_json("m2", str(path))
    assert out["result"]["m2"] == 51
    assert out["result"]["degree_sequence"] == "3,3,3,3,1,1"


def test_construct_dot_format():
    proc = run_cli("construct", "3,1,1,1", "--format", "dot")
    assert proc.returncode == 0
    assert proc.stdout.startswith("graph g {")
    assert proc.stdout.count("--") == 3


# --- graph-file commands -----------------------------------------------------------


def test_m2_of_triangle(tmp_path):
    path = tmp_path / "tri.edges"
    path.write_text("3 3\n1 2\n1 3\n2 3\n")
    out = run_json("m2", str(path))
    assert out["result"]["m2"] == 12


def test_m2_parse_error(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("3 1\n1 1\n")
    assert run_cli("m2", str(path)).returncode == 2
    assert run_cli("m2", str(tmp_path / "missing")).returncode == 2


def test_improve_reports_the_blocked_climb(tmp_path):
    # the greedy 7-vertex graph has no connectivity-preserving improving swap
    path = tmp_path / "greedy.edges"
    path.write_text(serialize_edge_list(SEVEN_VERTEX_GREEDY))
    out = run_json("improve", str(path))
    assert out["result"]["initial_m2"] == 86
    assert out["result"]["final_m2"] == 86
    assert out["result"]["moves"] == []


def test_improve_applies_moves(tmp_path):
    worst = SimpleGraph(6, [(1, 2), (1, 3), (1, 4), (4, 5), (5, 6)])
    path = tmp_path / "tree.edges"
    path.write_text(serialize_edge_list(worst))
    out = run_json("improve", str(path))
    assert out["result"]["final_m2"] > out["result"]["initial_m2"]
    assert len(out["result"]["moves"]) >= 1


# --- sequence commands ---------------------------------------------------------------


def test_bicyclic_max_cases():
    out = run_json("bicyclic-max", "4,2,2,2,2")
    assert out["result"]["case"] == 2
    assert out["result"]["value"] == 40
    assert out["result"]["family"] == "B(3,3)"
    out = run_json("bicyclic-max", "6,2^6,1^2")
    assert out["result"]["case"] == 3 and out["result"]["value"] == 84


def test_oracle_command():
    out = run_json("oracle", "3,3,2,2,2,2", "--no-timing")
    assert out["result"]["max_m2"] == 41
    assert "elapsed_ms" not in out["result"]
    timed = run_json("oracle", "3,3,2,2,2,2")
    assert "elapsed_ms" in timed["result"]


def test_oracle_deterministic_bytes():
    a = run_cli("oracle", "4,3,2,2,2,2,1", "--no-timing")
    b = run_cli("oracle", "4,3,2,2,2,2,1", "--no-timing", "--workers", "4")
    assert a.stdout == b.stdout


def test_oracle_cap_env_var():
    proc = run_cli("oracle", "4,2,2,2,2", env_extra={"ZAGREBMAX_ORACLE_CAP": "4"})
    assert proc.returncode == 3


def test_oracle_cap_env_var_malformed():
    for argv in (("oracle", "4,2,2,2,2"), ("sweep", "--n", "5", "--excess", "0")):
        proc = run_cli(*argv, env_extra={"ZAGREBMAX_ORACLE_CAP": "abc"})
        assert proc.returncode == 2
        error = json.loads(proc.stderr)["error"]
        assert "ZAGREBMAX_ORACLE_CAP" in error and "'abc'" in error


@pytest.mark.parametrize("command", ["validate", "construct", "bicyclic-max"])
def test_request_runs_erdos_gallai_once(command, monkeypatch, capsys):
    calls = []
    original = sq._erdos_gallai

    def counting(d):
        calls.append(len(d))
        return original(d)

    monkeypatch.setattr(sq, "_erdos_gallai", counting)
    # 4^5,1^8 is bicyclic case 5, which goes through the layered construction
    assert cli.main([command, "4^5,1^8"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]
    assert calls == [13]


def test_majorize_with_chain():
    out = run_json("majorize", "3,3,2,2,2", "4,2,2,2,2", "--chain")
    assert out["result"]["order"] == "a_below_b"
    assert out["result"]["chain_length"] == 2
    assert out["result"]["chain"] == ["3,3,2,2,2", "4,2,2,2,2"]


def test_majorize_incomparable():
    out = run_json("majorize", "3,3,3,2,1", "4,2,2,2,2", "--chain")
    assert out["result"]["order"] == "incomparable"
    assert out["result"]["chain"] is None


def test_sweep_bicyclic_monotone():
    out = run_json("sweep", "--n", "6", "--excess", "1", "--verify-monotone")
    res = out["result"]
    assert res["violations"] == [] and res["checked_pairs"] == 30
    assert all(row["method"] == "closed_form" for row in res["sequences"])
    values = {row["sequence"]: row["max_m2"] for row in res["sequences"]}
    assert values["3,3,2,2,2,2"] == 41 and values["4,2,2,2,2,2"] == 44


def test_sweep_trees_match_construction():
    out = run_json("sweep", "--n", "6", "--excess", "-1")
    rows = {row["sequence"]: row["max_m2"] for row in out["result"]["sequences"]}
    for text, m2 in rows.items():
        constructed = run_json("construct", text)["result"]["m2"]
        assert constructed == m2
    assert all(
        row["method"] == "oracle" for row in out["result"]["sequences"]
    )
    # canonical row order: ascending lexicographic by sequence
    seqs = [row["sequence"] for row in out["result"]["sequences"]]
    assert seqs == sorted(seqs)


def test_sweep_cap_guard():
    assert run_cli("sweep", "--n", "12", "--excess", "1").returncode == 3


def test_pretty_is_equivalent_json():
    plain = run_json("validate", "4,2,2,2,2")
    pretty_proc = run_cli("validate", "4,2,2,2,2", "--pretty")
    assert json.loads(pretty_proc.stdout) == plain
