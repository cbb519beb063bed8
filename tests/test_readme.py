"""The README's Python quickstart runs and prints the output it documents."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_prints_its_documented_output():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quickstart (Python API)\n")[1].split("\n## ")[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    expected = re.search(r"Output:\n\n```\n(.*?)```", section, re.S).group(1)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(code, f"{README}: Quickstart", "exec"), {})
    assert stdout.getvalue() == expected
