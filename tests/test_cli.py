"""End-to-end tests of the command-line interface (subprocess level)."""

import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from zagrebmax import (
    SimpleGraph,
    bicyclic_max_m2,
    cli,
    search_max_m2,
    serialize_edge_list,
    to_dot,
)
from zagrebmax import sequences as sq
from helpers import SEVEN_VERTEX_GREEDY


# CPython's digit limit for int() on a decimal string (0 where it has none)
_INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_digit_limit = pytest.mark.skipif(
    not _INT_DIGIT_LIMIT, reason="int() has no digit limit on this Python"
)


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


@pytest.mark.parametrize(
    "text, error",
    [
        ("1^9999999", "degree sum must be even"),
        ("0^9999999", "degrees must be positive, got 0"),
        (
            "20000000,1^9999999",
            "degree 20000000 exceeds n-1 = 9999999; no simple graph can realize it",
        ),
    ],
)
def test_invalid_run_length_sequence_is_refused_before_its_runs_are_built(
    text, error, capsys
):
    # a list of the 10^7 repeats alone would take 80 MB
    tracemalloc.start()
    try:
        code, out, err = _main_in_process(("validate", text), capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": error}
    assert peak < 4 * 2**20


def test_exit_codes():
    assert run_cli("validate", "x,y").returncode == 2
    assert run_cli("validate", "2,2,1").returncode == 1  # odd sum
    assert run_cli("construct", "4,2,2,2,2").returncode == 1
    assert run_cli("oracle", "2^12").returncode == 3


@pytest.mark.parametrize(
    "token",
    ["9" * 5000, "3^99999999999999999999"],
    ids=["past-the-int-digit-limit", "repeat-past-maxsize"],
)
def test_huge_degree_tokens_are_parse_errors(token):
    proc = run_cli("validate", token)
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == f"degree token {token!r} is too large"


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


@pytest.mark.parametrize("fmt", ["edges", "dot"])
def test_construct_plain_formats_report_warnings_on_stderr(fmt, capsys):
    # the graph stays alone on stdout; the warnings go to stderr as one JSON line
    code, out, err = _main_in_process(("construct", "4,4,3,3,2,1,1", "--format", fmt), capsys)
    assert code == 0
    report = json.loads(_main_in_process(("construct", "4,4,3,3,2,1,1"), capsys)[1])
    write = serialize_edge_list if fmt == "edges" else to_dot
    edges = [tuple(e) for e in report["result"]["edges"]]
    assert out == write(SimpleGraph(report["result"]["n"], edges))
    assert err.endswith("\n") and err.count("\n") == 1
    assert json.loads(err) == {
        "warnings": ["condition (iii) violated; optimality not guaranteed"]
    }


def test_construct_plain_format_without_warnings_keeps_stderr_empty(capsys):
    code, out, err = _main_in_process(("construct", "3,1,1,1", "--format", "dot"), capsys)
    assert (code, err) == (0, "")
    assert out.startswith("graph g {")


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
    # "1_0" would read as 10 under int(); the format takes decimal digits only
    path.write_text("10 1\n1_0 1\n")
    assert run_cli("m2", str(path)).returncode == 2


@needs_int_digit_limit
@pytest.mark.parametrize(
    "what, line, text",
    [("header", "{} 1", "{}\n1 2\n"), ("edge line", "1 {}", "2 1\n{}\n")],
    ids=["header", "edge-line"],
)
def test_graph_file_field_past_the_int_digit_limit_is_a_parse_error(
    what, line, text, tmp_path, capsys
):
    # a run of digits that int() refuses names its line, not a ValueError
    line = line.format("1" * (_INT_DIGIT_LIMIT + 1))
    path = tmp_path / "big.edges"
    path.write_text(text.format(line))
    code, out, err = _main_in_process(("m2", str(path)), capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": f"bad {what} {line!r}; integer too large"}


@pytest.mark.parametrize("command", ["m2", "improve"])
def test_non_ascii_graph_file_is_a_parse_error(command, tmp_path):
    path = tmp_path / "latin.edges"
    path.write_bytes(b"3 2\n1 2\n2 3 \xc3\n")
    proc = run_cli(command, str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert str(path) in json.loads(lines[0])["error"]


@pytest.mark.parametrize("command", ["m2", "improve"])
def test_graph_file_report_names_command_and_path(command, tmp_path, capsys):
    # the golden file calls no file-reading command; pin their envelope here
    path = tmp_path / "tri.edges"
    path.write_text("3 3\n1 2\n1 3\n2 3\n")
    code, out, err = _main_in_process((command, str(path)), capsys)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert sorted(report) == ["command", "inputs", "result", "warnings"]
    assert report["command"] == command
    assert report["inputs"] == {"graph": str(path)}
    assert report["warnings"] == []


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


def test_improve_report_is_pinned_byte_for_byte(tmp_path, capsys):
    # each move's removed and added pairs, in the orientation [v2, u2] the
    # climb reports them, and the final edges; no golden case reads a file
    path = tmp_path / "seven.edges"
    path.write_text("7 7\n1 4\n1 5\n1 6\n2 5\n2 7\n3 7\n4 7\n")
    result = (
        '{"edges":[[1,2],[1,5],[1,7],[2,3],[4,6],[4,7],[5,7]],"final_m2":37,'
        '"initial_m2":34,"moves":['
        '{"added":[[1,7],[4,2]],"removed":[[1,4],[7,2]]},'
        '{"added":[[1,2],[6,4]],"removed":[[1,6],[2,4]]},'
        '{"added":[[2,3],[5,7]],"removed":[[2,5],[3,7]]}]}'
    )
    code, out, err = _main_in_process(("improve", str(path)), capsys)
    assert (code, err) == (0, "")
    assert out == (
        f'{{"command":"improve","inputs":{{"graph":{json.dumps(str(path))}}},'
        f'"result":{result},"warnings":[]}}\n'
    )


@pytest.mark.parametrize("command", ["m2", "improve"])
def test_header_with_a_vertex_on_no_edge_is_refused_before_the_graph(
    command, tmp_path, capsys
):
    # n > 2m + 1 forces a vertex on no edge, which both commands reject; the
    # 10^6 + 1 adjacency lists of this header would take about 100 MB
    path = tmp_path / "wide.edges"
    path.write_text("1000000 0\n")
    tracemalloc.start()
    try:
        code, out, err = _main_in_process((command, str(path)), capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == (
        "header n = 1000000, m = 0: n > 2m + 1 leaves a vertex on no edge"
    )
    assert peak < 4 * 2**20


@pytest.mark.parametrize(
    "command, text, error",
    [
        ("m2", "3 1\n1 2\n", "vertex 3 is isolated; degree sequences need d >= 1"),
        ("improve", "3 1\n1 2\n", "hill climb requires a connected graph"),
        ("m2", "1 0\n", "vertex 1 is isolated; degree sequences need d >= 1"),
        ("improve", "1 0\n", None),
    ],
)
def test_header_with_n_at_most_2m_plus_1_keeps_its_verdict(
    command, text, error, tmp_path, capsys
):
    path = tmp_path / "g.edges"
    path.write_text(text)
    code, out, err = _main_in_process((command, str(path)), capsys)
    if error is None:
        assert (code, err) == (0, "")
        assert json.loads(out)["result"]["edges"] == []
    else:
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == error


# --- sequence commands ---------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "1,4,2,2,3"),
        ("construct", "1,4,2,2,3"),
        ("bicyclic-max", "1,4,2,2,3"),
        ("oracle", "1,4,2,2,3", "--no-timing"),
    ],
)
def test_result_echoes_the_sorted_sequence_and_only_validate_warns(argv, capsys):
    code, out, err = _main_in_process(argv, capsys)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["inputs"] == {"sequence": "1,4,2,2,3"}
    assert report["result"]["sequence"] == "4,3,2,2,1"
    sorted_warning = "input was not non-increasing; sorted"
    assert (sorted_warning in report["warnings"]) == (argv[0] == "validate")


def test_majorize_echoes_both_sequences_sorted(capsys):
    code, out, err = _main_in_process(("majorize", "1,2,2,3", "2,2,2,2"), capsys)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["inputs"] == {"a": "1,2,2,3", "b": "2,2,2,2"}
    assert (report["result"]["a"], report["result"]["b"]) == ("3,2,2,1", "2,2,2,2")


def test_sequence_error_comes_before_a_malformed_cap_variable(monkeypatch, capsys):
    monkeypatch.setenv("ZAGREBMAX_ORACLE_CAP", "abc")
    code, out, err = _main_in_process(("oracle", "x,y"), capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "bad degree token 'x'"


def test_majorize_reads_a_wholly_before_b(capsys):
    # a's domain error (exit 1) wins over b's parse error (exit 2)
    code, out, err = _main_in_process(("majorize", "0", "x"), capsys)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "degrees must be positive, got 0"


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
    assert out["result"]["nodes"] > 0 and "realizations" not in out["result"]
    assert "elapsed_ms" not in out["result"]
    timed = run_json("oracle", "3,3,2,2,2,2")
    elapsed_ms = timed["result"].pop("elapsed_ms")
    assert isinstance(elapsed_ms, (int, float)) and elapsed_ms >= 0
    assert timed == out


def test_oracle_deterministic_bytes():
    a = run_cli("oracle", "4,3,2,2,2,2,1", "--no-timing")
    b = run_cli("oracle", "4,3,2,2,2,2,1", "--no-timing")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


@pytest.mark.parametrize(
    "argv, error",
    [
        (
            ("validate", "2^1152921504606846976"),
            "n = 1152921504606846976: the degree list does not fit in memory",
        ),
        (
            ("sweep", "--n", "1500", "--excess", "-1", "--cap", "1500"),
            "n = 1500: the sequence enumeration recurses once per degree, "
            "past Python's recursion limit",
        ),
    ],
    ids=["list-past-memory", "sweep-past-recursion-limit"],
)
def test_valid_input_too_large_to_hold_or_enumerate_exits_3_with_one_json_line(
    argv, error, capsys
):
    code, out, err = _main_in_process(argv, capsys)
    assert (code, out) == (3, "")
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": error}


def test_oracle_cap_env_var():
    proc = run_cli("oracle", "4,2,2,2,2", env_extra={"ZAGREBMAX_ORACLE_CAP": "4"})
    assert proc.returncode == 3


def test_oracle_past_the_recursion_limit_exits_3_with_one_json_line(capsys):
    # the walk recurses once per row, so C_1500 passes Python's recursion
    # limit; the CLI reports it as a cap error, not a traceback
    argv = ("oracle", "2^1500", "--cap", "1500", "--no-timing")
    code, out, err = _main_in_process(argv, capsys)
    assert (code, out) == (3, "")
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "error": "n = 1500: the search recurses once per row, "
        "past Python's recursion limit"
    }


def test_oracle_cap_env_var_malformed():
    for argv in (("oracle", "4,2,2,2,2"), ("sweep", "--n", "5", "--excess", "0")):
        proc = run_cli(*argv, env_extra={"ZAGREBMAX_ORACLE_CAP": "abc"})
        assert proc.returncode == 2
        error = json.loads(proc.stderr)["error"]
        assert "ZAGREBMAX_ORACLE_CAP" in error and "'abc'" in error


@pytest.mark.parametrize("raw", ["1_0", " +12 ", "12 ", "-1", "１２", ""])
def test_oracle_cap_env_var_takes_digits_only(raw, monkeypatch, capsys):
    # int() reads "1_0" as 10 and " +12 " as 12; the variable takes the
    # grammar of graph-file fields, a run of ASCII digits
    monkeypatch.setenv("ZAGREBMAX_ORACLE_CAP", raw)
    for argv in (("oracle", "4,2,2,2,2"), ("sweep", "--n", "5", "--excess", "0")):
        code, out, err = _main_in_process(argv, capsys)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == f"ZAGREBMAX_ORACLE_CAP={raw!r} is not an integer"


@pytest.mark.parametrize("raw", ["1_2", "+12", " 12", "-1", "１２", "0x10"])
def test_cap_flag_takes_digits_only(raw, capsys):
    # a malformed --cap is an argparse error (exit 2), not a cap of -1 or 12
    for argv in (
        ("oracle", "4,2,2,2,2", "--cap", raw),
        ("sweep", "--n", "5", "--excess", "0", "--cap", raw),
    ):
        code, out, err = _main_in_process(argv, capsys)
        assert (code, out) == (2, "")
        assert f"argument --cap: {raw!r} is not a run of decimal digits" in err


@pytest.mark.parametrize("raw", ["1_0", "+5", " 5", "5 ", "-5", "５", "0x5"])
def test_sweep_n_takes_digits_only(raw, capsys):
    # int() reads "1_0" as 10 and "５" as 5; --n takes the grammar of --cap
    code, out, err = _main_in_process(("sweep", "--n", raw, "--excess", "0"), capsys)
    assert (code, out) == (2, "")
    assert f"argument --n: {raw!r} is not a run of decimal digits" in err


@needs_int_digit_limit
@pytest.mark.parametrize(
    "argv, name, sign",
    [
        (("oracle", "2,2,2", "--cap"), "argument --cap", ""),
        (("sweep", "--excess", "0", "--n"), "argument --n", ""),
        (("sweep", "--n", "5", "--excess"), "argument --excess", ""),
        (("sweep", "--n", "5", "--excess"), "argument --excess", "-"),
        (("oracle", "2,2,2"), "ZAGREBMAX_ORACLE_CAP", ""),
    ],
    ids=["cap", "n", "excess", "negative-excess", "env"],
)
def test_digits_past_the_int_digit_limit_are_refused(
    argv, name, sign, monkeypatch, capsys
):
    # a run of digits that int() refuses is an error naming the option or
    # the variable and CPython's limit (exit 2), not a ValueError traceback,
    # and it does not repeat the digits
    big = "1" * (_INT_DIGIT_LIMIT + 1)
    if name.startswith("argument"):
        argv = (*argv, sign + big)
    else:
        monkeypatch.setenv(name, big)
    code, out, err = _main_in_process(argv, capsys)
    assert (code, out) == (2, "")
    assert name in err
    assert f"Exceeds the limit ({_INT_DIGIT_LIMIT}" in err
    assert big not in err


@pytest.mark.parametrize("raw", [" -1", "-1 ", "+1", "1_0", "-１", "－1", "0x1", "-"])
def test_sweep_excess_takes_an_optional_minus_and_digits(raw, capsys):
    # int() reads " -1" as -1 and "1_0" as 10
    code, out, err = _main_in_process(("sweep", "--n", "5", "--excess", raw), capsys)
    assert (code, out) == (2, "")
    assert f"argument --excess: {raw!r} is not an optional '-' followed by decimal digits" in err


def test_sweep_reads_signed_excess_and_leading_zeros(capsys):
    for argv, inputs in (
        (("--n", "05", "--excess", "-1"), {"excess": -1, "n": 5}),
        (("--n", "5", "--excess=-01"), {"excess": -1, "n": 5}),
        (("--n", "6", "--excess", "-0"), {"excess": 0, "n": 6}),
    ):
        code, out, err = _main_in_process(("sweep", *argv), capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["inputs"] == inputs


@pytest.mark.parametrize(
    "argv", [("oracle", "4,2,2,2,2"), ("sweep", "--n", "5", "--excess", "0")]
)
def test_cap_flag_takes_precedence_over_env_var(argv, monkeypatch, capsys):
    # with --cap given the variable is not read, so a malformed value is no error
    monkeypatch.setenv("ZAGREBMAX_ORACLE_CAP", "abc")
    assert _main_in_process((*argv, "--cap", "5"), capsys)[0] == 0
    monkeypatch.setenv("ZAGREBMAX_ORACLE_CAP", "20")
    code, out, err = _main_in_process((*argv, "--cap", "4"), capsys)
    assert (code, out) == (3, "")
    assert "cap 4" in json.loads(err)["error"]


def test_cap_flag_and_env_var_take_leading_zeros(monkeypatch, capsys):
    monkeypatch.setenv("ZAGREBMAX_ORACLE_CAP", "04")
    assert _main_in_process(("oracle", "4,2,2,2,2"), capsys)[0] == 3
    assert _main_in_process(("oracle", "4,2,2,2,2", "--cap", "005"), capsys)[0] == 0


def test_validate_rejects_digits_that_are_not_ascii():
    proc = run_cli("validate", "３,２,２,１")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert json.loads(proc.stderr)["error"] == "bad degree token '３'"


def _count_erdos_gallai(monkeypatch) -> list[int]:
    """The length of each list ``sq._erdos_gallai`` runs on from now on."""
    calls = []
    original = sq._erdos_gallai

    def counting(d):
        calls.append(len(d))
        return original(d)

    monkeypatch.setattr(sq, "_erdos_gallai", counting)
    return calls


@pytest.mark.parametrize("command", ["validate", "construct", "bicyclic-max"])
def test_request_runs_erdos_gallai_once(command, monkeypatch, capsys):
    calls = _count_erdos_gallai(monkeypatch)
    # 4^5,1^8 is bicyclic case 5, which goes through the layered construction
    assert cli.main([command, "4^5,1^8"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]
    assert calls == [13]


def test_m2_and_plain_majorize_run_erdos_gallai_once_per_sequence(
    tmp_path, monkeypatch, capsys
):
    # each sequence takes its verdict when it is made, read or not
    calls = _count_erdos_gallai(monkeypatch)
    path = tmp_path / "paw.edges"
    path.write_text("4 4\n1 2\n1 3\n2 3\n3 4\n")
    assert cli.main(["m2", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["degree_sequence"] == "3,2,2,1"
    assert calls == [4]
    calls.clear()
    assert cli.main(["majorize", "4^5,1^8", "5,4^3,3,1^8"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["order"] == "a_below_b"
    assert calls == [13, 13]


_REPORT = ("validate", "4^5,1^8")
_EDGES = ("construct", "4^5,1^8", "--format", "edges")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, fd_closed",
    [(_REPORT, False), (_EDGES, False), (_REPORT, True), (_EDGES, True)],
    ids=["report", "edges", "report-fd-closed", "edges-fd-closed"],
)
def test_closed_stdout_ends_quietly(argv, fd_closed, unbuffered):
    # the read end is closed before the child starts, so its first write
    # fails; or fd 1 itself is closed, so the child starts without stdout
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "zagrebmax", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            preexec_fn=(lambda: os.close(1)) if fd_closed else None,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_PIPE, "")
    assert cli.EXIT_PIPE == 141


def test_stdout_closed_mid_write_ends_quietly_when_unbuffered(tmp_path):
    # `| head -c 10`: the pipe closes after the first write has begun, so a
    # write is cut short; under PYTHONUNBUFFERED the text layer would drop
    # the rest and exit 0 with the output cut
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    err = tmp_path / "stderr"
    argv = ["construct", "4^33334,1^66666", "--format", "edges"]
    with open(err, "w") as stderr, subprocess.Popen(
        [sys.executable, "-m", "zagrebmax", *argv], stdout=subprocess.PIPE, stderr=stderr, env=env
    ) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
    assert (proc.returncode, err.read_text()) == (cli.EXIT_PIPE, "")


@pytest.mark.parametrize("stderr", ["closed", "read-only"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (("validate", "x"), cli.EXIT_PARSE),
        (("oracle", "2^20"), cli.EXIT_CAP),
        (("validate", "3,3"), cli.EXIT_DOMAIN),
        (("construct", "4,4,3,3,2,1,1", "--format", "edges"), cli.EXIT_OK),
    ],
    ids=["parse", "cap", "domain", "edges-with-warnings"],
)
def test_unusable_stderr_keeps_exit_code_and_stdout(argv, code, stderr):
    # each call writes one JSON line on stderr; with stderr closed it must
    # not reach stdout, and with stderr read-only its failed write must not
    # change the exit code
    env = {k: v for k, v in os.environ.items() if k != "ZAGREBMAX_ORACLE_CAP"}
    cmd = [sys.executable, "-m", "zagrebmax", *argv]
    with_stderr = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert with_stderr.returncode == code and with_stderr.stderr.startswith("{")
    with open(os.devnull) as read_only:
        proc = subprocess.run(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL if stderr == "closed" else read_only,
            text=True,
            env=env,
            preexec_fn=(lambda: os.close(2)) if stderr == "closed" else None,
        )
    assert (proc.returncode, proc.stdout) == (code, with_stderr.stdout)
    assert len(proc.stdout.splitlines()) == (10 if code == cli.EXIT_OK else 0)


def test_bicyclic_max_classifies_once(monkeypatch, capsys):
    calls = []
    original = sq.classify

    def counting(seq):
        calls.append(seq.n)
        return original(seq)

    # patch every zagrebmax module that binds classify, not only its home
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "zagrebmax" and getattr(module, "classify", None) is original:
            monkeypatch.setattr(module, "classify", counting)
    # 4^5,1^8 is bicyclic case 5, which goes through the layered construction
    assert cli.main(["bicyclic-max", "4^5,1^8"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["case"] == 5
    assert calls == [13]


def _main_in_process(argv, capsys):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_repeated_main_calls_match_fresh_interpreters(monkeypatch, capsys):
    # the parser is built once per process; no parse may leak into the next
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to this
    calls = [
        ("construct", "4^5,1^8", "--format", "edges"),
        ("construct", "4^5,1^8"),
        ("validate", "4,4,3,3,2,1,1", "--pretty"),
        ("validate", "4,4,3,3,2,1,1"),
        ("construct", "4^5,1^8", "--format", "xml"),
        ("validate", "x,y"),
        ("validate", "4,4,3,3,2,1,1"),
    ]
    for argv in calls:
        fresh = run_cli(*argv)
        assert _main_in_process(argv, capsys) == (
            fresh.returncode,
            fresh.stdout,
            fresh.stderr,
        ), argv
    assert cli.build_parser() is cli.build_parser()


COMMANDS = (
    "validate", "construct", "m2", "bicyclic-max", "oracle", "improve", "majorize", "sweep"
)


def test_unrecognized_argument_is_reported_by_the_command(monkeypatch, capsys):
    # the command's own parser reads everything after the command name
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _main_in_process(("validate", "4,4,3,3,2,1,1", "--bogus"), capsys)
    assert (code, out) == (2, "")
    assert err.startswith("usage: zagrebmax validate ")
    assert err.endswith("zagrebmax validate: error: unrecognized arguments: --bogus\n")


@pytest.mark.parametrize(
    "argv", [(), ("nope",), ("--pretty", "validate", "x"), ("-h",)]
)
def test_argv_naming_no_command_first_takes_the_top_level_parser(argv, capsys):
    code, out, err = _main_in_process(argv, capsys)
    if argv == ("-h",):
        assert (code, err) == (0, "")
        assert "{" + ",".join(COMMANDS) + "}" in out
    else:
        assert (code, out) == (2, "")
        assert err.startswith("usage: zagrebmax [-h]")


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_has_help(command, capsys):
    code, out, err = _main_in_process((command, "--help"), capsys)
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: zagrebmax {command} ")


def test_majorize_with_chain():
    out = run_json("majorize", "3,3,2,2,2", "4,2,2,2,2", "--chain")
    assert out["result"]["order"] == "a_below_b"
    assert out["result"]["chain_length"] == 2
    assert out["result"]["chain"] == ["3,3,2,2,2", "4,2,2,2,2"]


def test_majorize_usage_names_both_sequences(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _main_in_process(("majorize", "--help"), capsys)
    assert (code, err) == (0, "")
    assert "[--chain] seq_a seq_b" in out
    assert out.count("seq_a") == out.count("seq_b") == 2


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


# per n: checked pairs for c = -1..4, and the violations, all at c = 4, as
# (below, above, max_below, max_above)
SWEEP_CENSUS = {
    12: (
        (776, 2054, 4627, 11026, 22348, 45622),
        [
            ("6,6,3,3,3,3,3,1,1,1,1,1", "7,5,3,3,3,3,3,1,1,1,1,1", 231, 228),
            ("6,6,3,3,3,3,3,1,1,1,1,1", "8,4,3,3,3,3,3,1,1,1,1,1", 231, 231),
        ],
    ),
    13: (
        (1370, 3683, 8400, 20214, 41723, 87019),
        [
            ("6,6,4,3,3,3,3,1,1,1,1,1,1", "7,5,4,3,3,3,3,1,1,1,1,1,1", 248, 247),
            ("7,6,3,3,3,3,3,1,1,1,1,1,1", "8,5,3,3,3,3,3,1,1,1,1,1,1", 259, 257),
        ],
    ),
}


@pytest.mark.slow
@pytest.mark.parametrize("n", sorted(SWEEP_CENSUS))
def test_sweep_majorization_census(n, capsys):
    # test_oracle's census stops at n = 11; c <= 3 stay free of violations
    pairs, violations = SWEEP_CENSUS[n]
    at_c4 = [
        {"above": hi, "below": lo, "kind": "tie" if m_lo == m_hi else "decrease",
         "max_above": m_hi, "max_below": m_lo}
        for lo, hi, m_lo, m_hi in violations
    ]
    for c, want in zip(range(-1, 5), pairs):
        argv = ("sweep", "--n", str(n), "--excess", str(c), "--verify-monotone")
        code, out, err = _main_in_process(argv + ("--cap", str(n)), capsys)
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        assert result["checked_pairs"] == want, c
        assert result["violations"] == (at_c4 if c == 4 else []), c


def _sweep_from_library(n, c):
    """The ``sweep --verify-monotone`` result built from library calls."""
    seqs = sq.connected_realizable_sequences(n, c)
    if c == 1:
        rows = [(s, bicyclic_max_m2(s).value, "closed_form") for s in seqs]
    else:
        rows = [(s, search_max_m2(s, cap=n).max_m2, "oracle") for s in seqs]
    violations = []
    checked = 0
    for i, (lo, m_lo, _) in enumerate(rows):
        for hi, m_hi, _ in rows[i + 1:]:
            if sq.majorization_compare(lo, hi) == sq.MajorizationOrder.A_BELOW_B:
                checked += 1
                if m_lo >= m_hi:
                    violations.append(
                        {"below": lo.to_text(), "above": hi.to_text(),
                         "max_below": m_lo, "max_above": m_hi,
                         "kind": "tie" if m_lo == m_hi else "decrease"}
                    )
    return {
        "n": n,
        "excess": c,
        "count": len(rows),
        "sequences": [
            {"sequence": s.to_text(), "max_m2": m, "method": method}
            for s, m, method in rows
        ],
        "checked_pairs": checked,
        "violations": violations,
    }


def test_sweep_matches_library_calls(capsys):
    for n in range(1, 9):
        for c in range(-1, 5):
            argv = ("sweep", "--n", str(n), "--excess", str(c), "--verify-monotone")
            code, out, err = _main_in_process(argv, capsys)
            assert (code, err) == (0, "")
            assert json.loads(out)["result"] == _sweep_from_library(n, c), (n, c)


def test_sweep_cap_guard():
    assert run_cli("sweep", "--n", "12", "--excess", "1").returncode == 3


def test_pretty_is_equivalent_json():
    plain = run_json("validate", "4,2,2,2,2")
    pretty_proc = run_cli("validate", "4,2,2,2,2", "--pretty")
    assert json.loads(pretty_proc.stdout) == plain
