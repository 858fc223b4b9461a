"""Every name a module under src/ or demos/ imports is used in that module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "demos").glob("*.py")])

# (file relative to the repo root, bound name): why the import stays unused
ALLOWED = {
    ("src/twinbeam_transfer/model.py", "numpy"):
        "`import numpy.random` loads numpy's lazily loaded random module up front",
}


def _imported(tree: ast.Module) -> dict[str, int]:
    """The name each import statement binds, with its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used(tree: ast.Module) -> set[str]:
    """Names the module reads, and the strings of its ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    name = str(path.relative_to(ROOT))
    unused = sorted((line, bound) for bound, line in _imported(tree).items()
                    if bound not in _used(tree) and (name, bound) not in ALLOWED)
    assert not unused, f"{name} imports names it never uses: {unused}"


def test_allowed_unused_imports_are_still_unused():
    # an entry whose import went away, or is now used, is dropped from ALLOWED
    for name, bound in ALLOWED:
        tree = ast.parse((ROOT / name).read_text())
        assert bound in _imported(tree) and bound not in _used(tree), (name, bound)
