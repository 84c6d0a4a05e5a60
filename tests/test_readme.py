"""README.md's Python examples run against the package.

The ```python blocks run in order in one namespace, as a reader pasting them
into one session would run them, so a later block may use an earlier one's
names.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    flags=re.S | re.M)


def test_readme_python_blocks_run(capsys):
    assert len(BLOCKS) >= 2
    namespace = {"__name__": "readme"}
    for k, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)
    assert "exactly_one_interior" in capsys.readouterr().out
