"""Guard on the package's names: every name a module exports is used,
and so is every private one; and on the README naming the checkpoint
format the package writes.

A name in a module's `__all__` must be referenced (as a name, an
attribute or an imported name) somewhere other than its own definition,
in the package, the demos or the acceptance tests.  A module-level
private name (one leading underscore) must be referenced by the package
itself outside its definition.  Unit tests do not count: a name only its
own unit tests call is code nothing trains or reads.
"""

import ast
import importlib
import re
from pathlib import Path

from hipan.checkpoint import FORMAT

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hipan"
READERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]

# Exported names kept without such a reference, each for its one reason.
UNREFERENCED_OK = {
    "encode_leaf": "oracle of the tree encoder's tests (encode_tree, decode_paths)",
    "two_logit_loss": "loss oracle of the optimizer tests",
    "triangle_violation_count": "counts triangles over rows that can repeat, as predicted codes do",
}


def _definitions(tree: ast.Module) -> dict[str, tuple[int, int]]:
    """Line span of each module-level def, class or assigned name."""
    spans = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            spans[node.name] = (node.lineno, node.end_lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    spans[t.id] = (node.lineno, node.end_lineno)
    return spans


def _references(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every loaded name, attribute and imported name."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            refs.extend((alias.name, node.lineno) for alias in node.names)
    return refs


def test_every_exported_name_is_referenced():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in READERS}
    refs = {path: _references(tree) for path, tree in trees.items()}
    unused, every = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem.startswith("__"):
            continue
        exported = getattr(importlib.import_module(f"hipan.{path.stem}"), "__all__", ())
        every.update(exported)
        spans = _definitions(trees[path])
        for name in exported:
            lo, hi = spans.get(name, (0, -1))
            used = any(
                ref == name and not (where == path and lo <= line <= hi)
                for where, found in refs.items()
                for ref, line in found
            )
            if not used and name not in UNREFERENCED_OK:
                unused.append(f"{path.stem}.{name}")
    assert unused == []
    assert set(UNREFERENCED_OK) <= every


def test_every_private_name_is_referenced_by_the_package():
    paths = sorted(PACKAGE.glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    refs = {path: _references(tree) for path, tree in trees.items()}
    unused = []
    for path, tree in trees.items():
        for name, (lo, hi) in _definitions(tree).items():
            if not name.startswith("_") or name.startswith("__"):
                continue
            used = any(
                ref == name and not (where == path and lo <= line <= hi)
                for where, found in refs.items()
                for ref, line in found
            )
            if not used:
                unused.append(f"{path.stem}.{name}")
    assert unused == []


def test_readme_names_the_checkpoint_format_written():
    # the version in "hipan-checkpoint-vN"
    version = FORMAT.rpartition("-")[2]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert re.findall(r"Checkpoints \(format (v\d+)\)", readme) == [version]
    (row,) = [line for line in readme.splitlines() if line.startswith("| `hipan.checkpoint`")]
    assert re.findall(r"\bformat (v\d+)\b", row) == [version]
