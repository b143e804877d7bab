"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text()
    section = text[text.index("## Library example"):]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "no python block under '## Library example'"
    exec(compile(block.group(1), f"{README}:Library example", "exec"), {})
