"""Repository hygiene: no tracked ignored files, no unused imports, no
unreachable package definitions."""

import ast
import importlib
import re
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


def test_tests_and_tools_use_every_import():
    scripts = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    unused = [entry for path in scripts for entry in _unused_imports(path)]
    assert scripts
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _scopes(tree: ast.Module):
    """(owner, node) for each module-level node, and for each method of a
    module-level class: the owner of a module-level node is its name if
    it is a function or class, else None, and a method's is Class.method,
    so that a class's own methods count as its body."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item
                else:
                    yield node.name, item
            for part in (*node.bases, *node.keywords, *node.decorator_list):
                yield node.name, part
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        else:
            yield None, node


def test_package_definitions_are_reachable():
    """Every module-level function and class in src/crjets, and every
    public method of such a class, is referenced somewhere in src/crjets
    outside its own body, or is listed in __all__ and named in README.md
    or tests/test_acceptance.py.

    A reference is a name or an attribute with that name, so a
    definition reached only from its unit tests (or only from itself)
    fails: move it into the tests that use it, or delete it. An export
    alone is no use; the public API is what the README documents and
    the acceptance criteria call. A method that overrides one of a base
    class is reached through the base, as CliParser.error is through
    argparse. Names are matched without their module or class, which
    errs on the side of passing.
    """
    definitions: list[tuple[str, str, str]] = []
    referrers: dict[str, set[tuple[str, str | None]]] = {}
    exported: set[str] = set()
    for path in sorted((ROOT / "src" / "crjets").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((path.name, node.name, node.name))
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported |= {ast.literal_eval(e) for e in node.value.elts}
            if isinstance(node, ast.ClassDef):
                module = importlib.import_module(f"crjets.{path.stem}")
                bases = getattr(module, node.name).__mro__[1:]
                definitions += [
                    (path.name, item.name, f"{node.name}.{item.name}")
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")
                    and not any(hasattr(base, item.name) for base in bases)
                ]
        for owner, node in _scopes(tree):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    referrers.setdefault(sub.id, set()).add((path.name, owner))
                elif isinstance(sub, ast.Attribute):
                    referrers.setdefault(sub.attr, set()).add((path.name, owner))
    assert definitions and exported
    documented: set[str] = set()
    for doc in (ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"):
        documented |= set(re.findall(r"\w+", doc.read_text(encoding="utf-8")))

    def outside(where: str, by: str | None, module: str, owner: str) -> bool:
        return where != module or by is None or (by != owner and not by.startswith(owner + "."))

    unreached = [
        f"{module}: {owner}"
        for module, name, owner in definitions
        if not any(outside(*referrer, module, owner) for referrer in referrers.get(name, ()))
        and not (name in exported and name in documented)
    ]
    assert not unreached, "definitions nothing in src/crjets uses:\n" + "\n".join(unreached)


def _raise_sites(node: ast.AST, name: str, owner: str | None = None):
    """(innermost enclosing function, line) of each ``raise name(...)``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _raise_sites(child, name, child.name)
            continue
        if isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if getattr(exc, "id", None) == name or getattr(exc, "attr", None) == name:
                yield owner, child.lineno
        yield from _raise_sites(child, name, owner)


def test_invariant_errors_are_raised_through_certify():
    """Every InvariantError of the package comes from errors.certify, so a
    check that ran is in the open record; cli.payload's --check policy,
    which reads that record, is the one other raise."""
    sites = {
        (path.name, owner, line)
        for path in sorted((ROOT / "src" / "crjets").glob("*.py"))
        for owner, line in _raise_sites(ast.parse(path.read_text()), "InvariantError")
    }
    assert {(name, owner) for name, owner, _ in sites} == {
        ("errors.py", "certify"),
        ("cli.py", "payload"),
    }, sorted(sites, key=str)
