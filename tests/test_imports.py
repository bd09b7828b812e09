"""Every module of the package uses every name it imports.

No linter ships with the package's dependencies, so this walks each
module's syntax tree with the standard library.  ``__init__.py`` is
exempt (its imports are the public re-exports), and so is any import on
a line marked ``# noqa: F401``.
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
