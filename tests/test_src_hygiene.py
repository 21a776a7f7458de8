"""Guards against what deleting library code tends to leave behind: imports
no longer used, and private helpers no longer called.  Read with ast only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "siegeljacobi"
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _names_read(node) -> set:
    """Every name ``node`` reads: loaded names, attributes and names imported from."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _defined(stmt) -> list:
    """The module-level names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"__init__"}))
def test_no_unused_import(name):
    # __init__ imports are the package's public names
    tree = MODULES[name]
    imported = [alias.asname or alias.name.split(".")[0]
                for stmt in tree.body if isinstance(stmt, (ast.Import, ast.ImportFrom))
                and getattr(stmt, "module", None) != "__future__"
                for alias in stmt.names]
    used = {sub.id for sub in ast.walk(tree)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
    assert [n for n in imported if n not in used] == []


def test_every_private_name_is_read():
    # a private module-level name read nowhere in src/ but in its own
    # definition is dead code, or code only the tests need
    reads = [(name, stmt, _names_read(stmt))
             for name, tree in MODULES.items() for stmt in tree.body]
    unread = []
    for name, tree in MODULES.items():
        for stmt in tree.body:
            for private in _defined(stmt):
                if not private.startswith("_") or private.startswith("__"):
                    continue
                if not any(private in names for _, other, names in reads if other is not stmt):
                    unread.append("%s.%s" % (name, private))
    assert unread == []
