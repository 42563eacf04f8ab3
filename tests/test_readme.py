"""The README's quick start runs and prints what its comments say."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_its_comments():
    code = quick_start()
    expected = [m.group(1) for m in re.finditer(r"^print\(.*\)\s+# (.*)$", code, re.M)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert len(expected) == 4
    assert out.getvalue().splitlines() == expected
