"""The README's library example runs as printed."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_derangements():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue() == "[0, 1, 2, 9, 44, 265, 1854]\n"
