"""README's quick start runs as written, and every name the package
exports resolves, so the documented API cannot drift from the code.
Imports only the package, so it also runs against an installed copy."""

import re
from pathlib import Path

import tunegram

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs_as_written(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "p0 -> p2 p2"  # the first line its comment shows
    assert out[4] == "6"  # three rules, the blank line print adds, PAI


def test_every_exported_name_resolves():
    missing = [name for name in tunegram.__all__ if not hasattr(tunegram, name)]
    assert not missing
