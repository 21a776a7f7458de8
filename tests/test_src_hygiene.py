"""Guards against what deleting library code tends to leave behind: imports
no longer used, and private helpers no longer called; and against an
exception class that sjk's exit-code map misses.  Read with ast only.

Also the line counter that tracks the size of src/ by kind:

    python tests/test_src_hygiene.py [REV]

prints each module's code, docstring, comment and blank lines; given a git
revision REV, it prints them at REV (read with git show) and in the working
tree, and the difference.  A line is code when a token other than a comment
sits on it outside any docstring, else docstring when a docstring spans it,
else comment when it holds a comment, else blank; read with ast and
tokenize only.  Only the command line runs git.
"""

import ast
import builtins
import io
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "siegeljacobi"
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


#: the kinds of a line, in order of precedence
KINDS = ("code", "docstring", "comment", "blank")
_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def line_kinds(source: str) -> dict:
    """How many lines of ``source`` are of each kind in KINDS."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            docstrings.add((doc.lineno, doc.end_lineno))
    code, comment, doc_lines = set(), set(), set()
    for first, last in docstrings:
        doc_lines.update(range(first, last + 1))
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        (first, _), (last, _) = tok.start, tok.end
        if tok.type == tokenize.COMMENT:
            comment.add(first)
        elif tok.type not in _NON_CODE and not (
                tok.type == tokenize.STRING and (first, last) in docstrings):
            code.update(range(first, last + 1))
    counts = dict.fromkeys(KINDS, 0)
    for n in range(1, source.count("\n") + 1):
        kind = ("code" if n in code else "docstring" if n in doc_lines
                else "comment" if n in comment else "blank")
        counts[kind] += 1
    return counts


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


#: the two bases sjk maps to an exit code: ValueError to 2, NumericError to 3
EXIT_BASES = {"ValueError", "NumericError"}


def test_every_exception_class_has_an_exit_code():
    # a failure class outside both bases would leave sjk as a traceback
    bases = {node.name: [ast.unparse(b).split(".")[-1] for b in node.bases]
             for tree in MODULES.values() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}

    def roots(name):
        """The classes outside src/ (or in EXIT_BASES) that ``name`` derives from."""
        if name in EXIT_BASES or name not in bases:
            return {name}
        return set().union(*map(roots, bases[name]))

    raised = EXIT_BASES | {n for n, v in vars(builtins).items()
                                if isinstance(v, type) and issubclass(v, BaseException)}
    exceptions = {name: roots(name) for name in bases
                  if name != "NumericError" and roots(name) & raised}
    assert {"IllConditionedActionError", "ReductionError", "SiegelReductionError",
            "QuadratureGridError", "ZeroVarianceError", "_InputError"} <= set(exceptions)
    assert {name: r for name, r in exceptions.items() if not r <= EXIT_BASES} == {}
    assert bases["NumericError"] == ["RuntimeError"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_line_kinds_add_up_to_wc(path):
    # every line has exactly one kind, so the kinds add up to what wc -l reads
    raw = path.read_bytes()
    counts = line_kinds(raw.decode())
    assert sum(counts.values()) == raw.count(b"\n")
    assert counts["code"] > 0


def kinds_at(rev: str) -> dict:
    """line_kinds of each module of src/ at git revision ``rev``, by name."""
    def git(*args):
        done = subprocess.run(("git",) + args, cwd=SRC, capture_output=True, text=True)
        if done.returncode:
            sys.exit(done.stderr.strip())
        return done.stdout

    paths = git("ls-tree", "--name-only", "--full-tree", rev,
                git("rev-parse", "--show-prefix").strip()).split()
    return {Path(path).stem: line_kinds(git("show", "%s:%s" % (rev, path)))
            for path in paths if path.endswith(".py")}


def _print_row(name, label, counts):
    print("%-16s %-10s %6d %9d %7d %5d %5d" % ((name, label[:10]) + tuple(counts)
                                                + (sum(counts),)))


if __name__ == "__main__":
    sides = [("tree", {path.stem: line_kinds(path.read_text())
                       for path in sorted(SRC.glob("*.py"))})]
    if len(sys.argv) > 1:
        sides.insert(0, (sys.argv[1], kinds_at(sys.argv[1])))
    for kinds in (k for _, k in sides):
        kinds["total"] = {kind: sum(c[kind] for c in kinds.values()) for kind in KINDS}
    print("%-16s %-10s %6s %9s %7s %5s %5s" % (("module", "at") + KINDS + ("lines",)))
    names = sorted(set().union(*(k for _, k in sides)) - {"total"}) + ["total"]
    for name in names:
        rows = [[kinds.get(name, {}).get(kind, 0) for kind in KINDS] for _, kinds in sides]
        for i, ((label, _), counts) in enumerate(zip(sides, rows)):
            _print_row("" if i else name, label, counts)
        if len(rows) == 2:
            _print_row("", "diff", [new - old for old, new in zip(*rows)])
