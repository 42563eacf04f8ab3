"""Repository hygiene: no tracked ignored files, no unused imports."""

import ast
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_no_ignored_file_is_tracked():
    if not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    listed = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert listed == "", f"tracked files that .gitignore excludes:\n{listed}"


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.name}:{line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


def test_package_modules_use_every_import():
    """__init__.py is exempt: its imports are the public re-exports."""
    modules = sorted((ROOT / "src" / "crjets").glob("*.py"))
    unused = [
        entry
        for path in modules
        if path.name != "__init__.py"
        for entry in _unused_imports(path)
    ]
    assert modules
    assert not unused, "unused imports:\n" + "\n".join(unused)
