"""Every module of the package uses every name it imports, and every
module-level private name has a reader somewhere in the package.

No linter ships with the package's dependencies, so this walks each
module's syntax tree with the standard library.  ``__init__.py`` is
exempt from the import rule (its imports are the public re-exports), and
so is any import on a line marked ``# noqa: F401``.  A private name
(``_x``) defined at module level counts as read when some module of the
package loads it by name or as an attribute; tests do not count.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hyswap"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa: F401" not in lines[node.lineno - 1]:
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_unused_imports_are_found():
    source = "import os\nimport math as m\nfrom json import dumps, loads\nfrom re import sub  # noqa: F401\nloads(m.pi)\n"
    assert unused_imports(source) == ["line 3: dumps", "line 1: os"]


def test_package_modules_use_every_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def _defined_private(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Name):
                    names[leaf.id] = node.lineno
    return {n: line for n, line in names.items() if n.startswith("_") and not n.startswith("__")}


def _read_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def unread_private_names(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*(_read_names(tree) for tree in trees.values()))
    return [f"{name} line {line}: {private}" for name, tree in sorted(trees.items())
            for private, line in sorted(_defined_private(tree).items()) if private not in read]


def test_unread_private_names_are_found():
    sources = {
        "a.py": "_LIMIT = 3\n_x, _y = 1, 2\n__all__ = []\ndef _used(): return _LIMIT\ndef _dead(): pass\nclass _Gone: pass\n",
        "b.py": "from . import a\nprint(a._used(), _x)\n",
    }
    assert unread_private_names(sources) == ["a.py line 6: _Gone", "a.py line 5: _dead", "a.py line 2: _y"]


def test_package_private_names_are_read():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert sources
    assert unread_private_names(sources) == []
