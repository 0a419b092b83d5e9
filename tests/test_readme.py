"""The examples in README.md run as written: each ``zagrebmax`` line of the
CLI block exits 0, and the library example prints 54, 54 and 5, the values
its comments give."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from zagrebmax import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(heading: str, lang: str) -> str:
    """The first ``lang`` code block after the line ``heading``."""
    text = README.read_text(encoding="utf-8")
    after = text[text.index(f"\n{heading}\n") :]
    return re.search(rf"```{lang}\n(.*?)```", after, re.S).group(1)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_readme_cli_examples_exit_zero(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ZAGREBMAX_ORACLE_CAP", raising=False)
    # the graph file that the m2 and improve examples read
    code, out, _ = _run(["construct", "3,3,3,3,1,1", "--format", "edges"])
    assert code == 0
    (tmp_path / "graph.edges").write_text(out)
    lines = [shlex.split(line, comments=True) for line in _block("## CLI", "sh").splitlines()]
    calls = [argv[1:] for argv in lines if argv and argv[0] == "zagrebmax"]
    assert len(calls) == 9
    for argv in calls:
        code, out, err = _run(argv)
        assert code == 0, (argv, err)
        assert out, argv


def test_readme_library_example_prints_the_commented_values(capsys):
    exec(_block("## Library example", "python"), {})
    assert capsys.readouterr().out.split() == ["54", "54", "5"]
