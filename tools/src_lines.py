"""Count the lines of every module under src/csisense, and in total, and
the lines of the test modules under tests/ in total.

Usage: python tools/src_lines.py

For each module it prints two counts: its lines, as ``wc -l`` counts them,
and its code lines.  A code line holds at least one token that is not a
comment and not part of a module, class or function docstring, so blank,
comment-only and docstring lines are not code.  Only the standard library
is used.
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


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source text."""
    docstrings = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start[0] in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code)


def main() -> None:
    total_lines = total_code = 0
    print(f"{'module':<28} {'lines':>6} {'code':>6}")
    for path in sorted(PACKAGE.rglob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{path.relative_to(PACKAGE).as_posix():<28} {lines:>6} {code:>6}")
    print(f"{'total':<28} {total_lines:>6} {total_code:>6}")
    tests = [count(path.read_text(encoding="utf-8")) for path in sorted(TESTS.rglob("*.py"))]
    print(f"{'tests/ total':<28} {sum(n for n, _ in tests):>6} {sum(c for _, c in tests):>6}")


if __name__ == "__main__":
    main()
