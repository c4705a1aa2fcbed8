"""The README's library examples run as written."""

import re
from pathlib import Path

_README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_python_blocks_run_in_order_in_one_namespace():
    text = _README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(_README), "exec"), namespace)
    assert len(namespace["results"]) == len(namespace["lists"])
