"""The python examples of README.md run as written, so they cannot name a
deleted function or class."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert blocks
    for source in blocks:
        exec(compile(source, str(README), "exec"), {})
