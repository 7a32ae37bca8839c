"""README's examples, run as written: the Quick start blocks and the CLI
recognize session."""

import re
import shlex
from pathlib import Path

from pathgraph import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def blocks(section, lang=""):
    """The fenced blocks of one README section with the given language tag."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"^```{lang}\n(.*?)^```", body, re.M | re.S)


def test_quick_start_blocks_print_what_their_comments_name(capsys):
    first, second = blocks("Quick start", "python")
    exec(first, {})
    named = [line.split("#", 1)[1].strip() for line in first.splitlines() if "print(" in line]
    assert named == ["NOT_PATH_GRAPH", "(0, 1, 2, 3)", "FULL_TRIANGLE"]
    assert capsys.readouterr().out.splitlines() == named
    exec(second, {})
    assert capsys.readouterr().out.startswith("(")  # vertex 0's path of tree nodes


def test_cli_recognize_session_runs_as_shown(capsys, monkeypatch, tmp_path):
    """Each `$ pathgraph ...` line runs through cli.main, with `> file`
    written to the file; the lines after a command are its output, and
    `$ echo $?` shows the last exit code."""
    session = next(b for b in blocks("CLI") if "$ pathgraph recognize k4.el" in b)
    steps: list[tuple[str, list[str]]] = []
    for line in session.splitlines():
        if line.startswith("$ "):
            steps.append((line[2:], []))
        else:
            steps[-1][1].append(line)
    monkeypatch.chdir(tmp_path)
    code = None
    for command, shown in steps:
        if command == "echo $?":
            assert shown == [str(code)]
            continue
        argv = shlex.split(command)
        assert argv[0] == "pathgraph"
        target = argv[argv.index(">") + 1] if ">" in argv else None
        code = cli.main(argv[1 : argv.index(">") if target else None])
        out = capsys.readouterr().out
        if target:
            Path(target).write_text(out)
        else:
            assert out.splitlines() == shown
    assert code == 1 and [c for c, _ in steps][-2:] == ["pathgraph recognize k4.el", "echo $?"]
    assert steps[-2][1] == ["chordal: yes", "path graph: no", "directed path graph: no"]
