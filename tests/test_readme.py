"""The README's library example runs against the current API, and its CLI
block lists the parser's subcommands and options."""

import argparse
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

from cupi.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]


def test_the_library_example_prints_what_it_says():
    blocks = re.findall(r"```python\n(.*?)```",
                        (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", blocks[0]], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "46\nTrue\n"


def test_the_cli_block_lists_every_subcommand_and_its_options():
    # the usage block under "## CLI": one line per subcommand, naming every
    # option flag of that subcommand and no other
    section = (ROOT / "README.md").read_text().split("\n## CLI\n")[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    documented = {}
    for line in block.splitlines():
        program, command, *rest = line.split()
        assert program == "cupi" and command not in documented
        documented[command] = set(re.findall(r"--[a-z-]+", " ".join(rest)))
    subparsers, = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert documented == {
        command: {flag for action in parser._actions
                  for flag in action.option_strings
                  if flag not in ("-h", "--help")}
        for command, parser in subparsers.choices.items()}


def test_every_cap_in_the_readme_is_its_constant():
    # each cap is written "`module.NAME` = 2 100 000" and must equal the
    # constant, so a changed cap cannot leave a stale number behind
    from cupi import cli, io, reconstruct
    caps = {"io.MAX_FACES": io.MAX_FACES,
            "cli.MAX_DUMP_LINES": cli.MAX_DUMP_LINES,
            "reconstruct.GUIDED_MAX_WORK": reconstruct.GUIDED_MAX_WORK}
    text = " ".join((ROOT / "README.md").read_text().split())
    for name, value in caps.items():
        written = re.findall(rf"`{re.escape(name)}` = (\d{{1,3}}(?: \d{{3}})*)",
                             text)
        assert written, name
        assert {int(w.replace(" ", "")) for w in written} == {value}, name
    stated = set(re.findall(r"`(\w+\.[A-Z_]+)` = \d", text))
    assert stated == set(caps)


def test_every_name_in_the_module_table_exists():
    # each backticked name in the "What is inside" table, dotted parts and
    # all, is a module, a definition in the package or the test oracles, or
    # a subcommand, so a rename or a deletion cannot leave a stale name
    section = (ROOT / "README.md").read_text().split(
        "\n## What is inside\n")[1].split("\n## ")[0]
    spans = re.findall(r"`([^`]+)`",
                       "\n".join(line for line in section.splitlines()
                                 if line.startswith("| `")))
    sources = sorted((ROOT / "src" / "cupi").glob("*.py"))
    known = {"cupi", "oracles"} | {path.stem for path in sources}
    for path in sources + [ROOT / "tests" / "oracles.py"]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                known.add(node.name)
            elif isinstance(node, ast.Assign):
                known |= {t.id for t in node.targets
                          if isinstance(t, ast.Name)}
    subparsers, = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    names = [m.group(1) for span in spans
             if (m := re.fullmatch(r"([A-Za-z_][\w.]*)(\(.*\))?", span))]
    assert len(names) > 50
    assert [name for name in names if name not in subparsers.choices
            and not set(name.split(".")) <= known] == []
