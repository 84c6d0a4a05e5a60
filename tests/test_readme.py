"""README.md's examples run against the package.

The ```python blocks run in order in one namespace, as a reader pasting them
into one session would run them, so a later block may use an earlier one's
names.  Each `raysep …` line of a ```sh block runs through the CLI's entry
point in an empty directory that holds the `outdir` the lines write to.
"""

import re
import shlex
from pathlib import Path

from raysep.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, flags=re.S | re.M)
CLI_LINES = [line for block in re.findall(r"^```sh\n(.*?)^```$", TEXT, flags=re.S | re.M)
             for line in block.splitlines() if line.startswith("raysep ")]


def test_readme_python_blocks_run(capsys):
    assert len(BLOCKS) >= 2
    namespace = {"__name__": "readme"}
    for k, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)
    assert "exactly_one_interior" in capsys.readouterr().out


def test_readme_cli_lines_run(tmp_path, monkeypatch, capsys):
    assert len(CLI_LINES) >= 6
    monkeypatch.chdir(tmp_path)
    (tmp_path / "outdir").mkdir()
    for line in CLI_LINES:
        code = main(shlex.split(line)[1:])
        assert code == EXIT_OK, (line, capsys.readouterr().err)
