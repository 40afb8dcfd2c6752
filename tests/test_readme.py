"""The README's library sketch runs against the installed names, and its command lines print what it shows."""

import re
from pathlib import Path

from wittpadics.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library sketch", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["report"].exists


def test_command_line_examples_print_what_the_readme_shows(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```sh\n(.*?)```", text.split("## Command line", 1)[1], re.S).group(1)
    examples = re.findall(r"^\$ wittpadics (.*)\n((?:.+\n)*)", block, re.M)
    assert len(examples) == 5
    for argv, shown in examples:
        main(argv.split())
        captured = capsys.readouterr()
        assert captured.out + captured.err == shown, argv
