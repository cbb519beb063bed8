"""The README's Python quickstart runs and prints the output it documents,
and every package name the README imports exists and is exported."""

import contextlib
import io
import re
from pathlib import Path

import sounder_sim

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


def readme_imported_names():
    """Names in each `from sounder_sim import ...` of a README python block."""
    text = README.read_text(encoding="utf-8")
    names = []
    for block in re.findall(r"```python\n(.*?)```", text, re.S):
        for group in re.findall(
            r"^from sounder_sim import (?:\((.*?)\)|(.*?)$)", block, re.S | re.M
        ):
            listed = re.sub(r"#[^\n]*", "", "".join(group))
            names += [n.strip() for n in listed.split(",") if n.strip()]
    return names


def test_readme_imports_only_exported_names():
    names = readme_imported_names()
    assert {"tx_baseband", "validate_m_sequence"} <= set(names)  # both blocks read
    assert sorted(set(names) - set(sounder_sim.__all__)) == []


def test_every_exported_name_resolves():
    missing = [n for n in sounder_sim.__all__ if not hasattr(sounder_sim, n)]
    assert missing == []
