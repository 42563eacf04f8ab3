"""The README's quick start runs and prints what its comments say, and
its Marson example reads the lift back as a germ."""

import contextlib
import io
import json
import pathlib
import re
import tempfile

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


def test_marson_example_reads_the_lift_back():
    """The README's tilted.json lifts, through external, to a nu = 2 germ
    that levi reads with signature (2, 0, 0) and phi --check accepts."""
    from crjets import cli

    text = README.read_text(encoding="utf-8")
    section = text[text.index("Example: Marson's lift as a germ"):]
    germ = re.search(r"```json\n(.*?)```", section, re.S).group(1)

    def report(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run([*argv, "--format", "json"]) == 0
        return json.loads(out.getvalue())

    with tempfile.TemporaryDirectory() as tmp:
        source = pathlib.Path(tmp, "tilted.json")
        source.write_text(germ, encoding="utf-8")
        lift = pathlib.Path(tmp, "lift.json")
        lift.write_text(json.dumps(report("external", str(source))["results"]["lift"]))
        levi = report("levi", str(lift))
        assert levi["input"] == {"nu": 2, "nprime": 0, "order": 5}
        assert levi["results"]["signature"] == {"positive": 2, "negative": 0, "null": 0}
        assert report("phi", str(lift), "--check")["checks"]["independent_routes_agree"]
