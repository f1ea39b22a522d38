"""The README's examples, run as written.

Each `$ tunnelslopes ...` line that the README follows with a `{...}` output
line must print exactly that line, and each `print` of the *Library* block
must print what its trailing `# ...` comment shows.
"""

import re
import shlex
from pathlib import Path

from tunnelslopes.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
PROMPT = "$ tunnelslopes "


def _readme_lines() -> list[str]:
    return README.read_text(encoding="utf-8").splitlines()


def _cli_examples() -> list[tuple[str, str]]:
    lines = _readme_lines()
    return [
        (line[len(PROMPT):], following)
        for line, following in zip(lines, lines[1:])
        if line.startswith(PROMPT) and following.startswith("{")
    ]


def _library_block() -> str:
    text = "\n".join(_readme_lines())
    section = text.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_cli_examples_print_what_the_readme_shows(capsys):
    examples = _cli_examples()
    assert len(examples) >= 2
    for command, expected in examples:
        code = main(shlex.split(command))
        assert (code, capsys.readouterr().out) == (0, expected + "\n"), command


def test_library_block_prints_its_comments(capsys):
    block = _library_block()
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", block, flags=re.MULTILINE)
    assert len(expected) == block.count("print(") and expected
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
