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


def _exported(tree: ast.Module) -> set[str]:
    """The names a module lists in ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def test_src_imports_are_used():
    root = Path(csisense.__file__).parent
    unused = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
        unused += [f"{path.relative_to(root)}:{line}: {name}"
                   for name, line in imported.items() if name not in used]
    assert not unused, "imported but never used:\n" + "\n".join(unused)
