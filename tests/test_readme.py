"""The README's worked run and exit-code table, checked against the program."""

import re
import shlex
from pathlib import Path

from rumorgraph.cli import build_parser, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
# a fenced block: its info string (language, then an optional file name) and its body
BLOCKS = re.findall(r"^```([^\n]*)\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)


def test_the_worked_run_writes_the_files_the_readme_lists(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    inputs = [(info.split()[1], body) for info, body in BLOCKS if info.startswith("json ")]
    assert [name for name, _body in inputs] == ["synth.json", "run.json"]
    for name, body in inputs:
        Path(name).write_text(body, encoding="utf-8")
    (commands,) = [body for info, body in BLOCKS if info == "sh"]
    argvs = [shlex.split(line) for line in commands.splitlines()]
    assert [argv[:2] for argv in argvs] == [
        ["rumorgraph", command] for command in ("synth", "validate", "train", "earlydetect", "export-features")
    ]
    for argv in argvs:
        assert main(argv[1:]) == 0, capsys.readouterr().err
    (layout,) = [body for info, body in BLOCKS if info == "text"]
    listed = sorted(line.split()[0] for line in layout.splitlines())
    written = sorted(str(p) for p in Path(".").rglob("*") if p.is_file() and p.name not in ("synth.json", "run.json"))
    assert listed == written


def test_the_exit_code_table_is_each_commands_error_table():
    section = README.split("## Exit codes", 1)[1].split("\n## ", 1)[0]
    header, *rows = [line for line in section.splitlines() if line.startswith("| ") and "---" not in line]
    codes = [int(cell) for cell in header.strip(" |").split("|")[1:]]
    documented = {}
    for row in rows:
        command, *cells = row.strip(" |").split("|")
        documented[command.strip(" `")] = {
            code: set(re.findall(r"`(\w+)`", cell)) for code, cell in zip(codes, cells) if cell.strip()
        }
    (subparsers,) = [a for a in build_parser()._actions if a.dest == "command"]
    tables = {
        name: {code: {t.__name__ for t in types} for types, code in p.get_default("errors")}
        for name, p in subparsers.choices.items()
    }
    assert documented == tables
