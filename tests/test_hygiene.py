"""Source hygiene of the package, checked with the stdlib ``ast`` module:
every module-level function and constant has exactly one definition, and no
module imports a name it never uses."""

import ast
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "locfactor"


def _modules():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _module_level_definitions(tree):
    """Names of module-level functions and assigned constants (dunders excluded)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_each_function_and_constant_is_defined_once():
    where = defaultdict(list)
    for name, tree in _modules().items():
        for defined in _module_level_definitions(tree):
            where[defined].append(name)
    duplicates = {n: mods for n, mods in where.items() if len(mods) > 1}
    assert duplicates == {}


def test_no_unused_imports():
    unused = {
        name: found
        for name, tree in _modules().items()
        if name != "__init__.py"  # its imports are the package's re-exports
        for found in [_unused_imports(tree)]
        if found
    }
    assert unused == {}
