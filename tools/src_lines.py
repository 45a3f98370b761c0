"""Count the lines of every module under src/csisense, and in total, and
the lines of the test modules under tests/ in total.

Usage: python tools/src_lines.py

For each module it prints three counts: its lines, as ``wc -l`` counts
them, its code lines, and its ``raise`` statements.  A code line holds at
least one token that is not a comment and not part of a module, class or
function docstring, so blank, comment-only and docstring lines are not code.
The raises, found with ``ast``, show where the package checks its values.
Only the standard library is used.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "csisense"
TESTS = ROOT / "tests"
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int, int]:
    """(lines, code lines, raise statements) of one module's source text."""
    tree = ast.parse(source)
    docstrings = _docstring_lines(tree)
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start[0] in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    raises = sum(isinstance(node, ast.Raise) for node in ast.walk(tree))
    return source.count("\n"), len(code), raises


def _row(name: str, counts) -> str:
    return f"{name:<28}" + "".join(f" {n:>6}" for n in counts)


def main() -> None:
    print(_row("module", ("lines", "code", "raises")))
    modules = []
    for path in sorted(PACKAGE.rglob("*.py")):
        modules.append(count(path.read_text(encoding="utf-8")))
        print(_row(path.relative_to(PACKAGE).as_posix(), modules[-1]))
    print(_row("total", map(sum, zip(*modules))))
    tests = [count(path.read_text(encoding="utf-8")) for path in sorted(TESTS.rglob("*.py"))]
    print(_row("tests/ total", list(map(sum, zip(*tests)))[:2]))


if __name__ == "__main__":
    main()
