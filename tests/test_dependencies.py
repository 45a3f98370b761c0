"""The package imports nothing at run time beyond the standard library and NumPy."""

import ast
import sys
from pathlib import Path

import csisense

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "csisense"}


def test_src_imports_only_stdlib_and_numpy():
    root = Path(csisense.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert len(modules) > 10
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            for name in names:
                if name.split(".")[0] not in ALLOWED:
                    foreign.append(f"{path.relative_to(root)}:{node.lineno}: {name}")
    assert not foreign, "imports outside the standard library and NumPy:\n" + "\n".join(foreign)
