"""Every module of the package uses every name it imports, and every
module-level private name has a reader somewhere in the package.

No linter ships with the package's dependencies, so this walks each
module's syntax tree with the standard library.  ``__init__.py`` is
exempt from the import rule (its imports are the public re-exports), and
so is any import on a line marked ``# noqa: F401``.  A private name
(``_x``) defined at module level counts as read when some module of the
package loads it by name or as an attribute; tests do not count.

The pipelines (``protocols``, ``sweep``, ``negativity``, ``closed_form``)
read from the reference toolbox (``fock``, ``optics``) only the names on
``PIPELINE_TOOLBOX``, and never load a name parked on a ``# noqa: F401``
line; every parked name is one perfbench's ``WRAPPED`` traces there.

Every name on a module's ``__all__`` is bound in it, and ``__init__.py``
re-exports only names on the ``__all__`` of the module it takes them from.
"""

import ast
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hyswap"
LAYERTRACE = PACKAGE.parents[1] / "perfbench" / "layertrace.py"
PIPELINES = ("protocols", "sweep", "negativity", "closed_form")
PIPELINE_TOOLBOX = {"DensityOperator", "ModeRegister", "qubit", "FIFTY_FIFTY", "bs_on_axes"}


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


def _parked(source: str) -> dict[str, int]:
    """Names bound on a ``# noqa: F401`` import line, with that line."""
    lines = source.splitlines()
    return {alias.asname or alias.name: node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa: F401" in lines[node.lineno - 1]
            for alias in node.names}


def toolbox_breaches(source: str) -> list[str]:
    """Toolbox names imported on a live line but off ``PIPELINE_TOOLBOX``, and parked names loaded."""
    tree = ast.parse(source)
    parked = _parked(source)
    found = [f"line {node.lineno}: {alias.name} from .{node.module}" for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in ("fock", "optics")
             for alias in node.names if alias.name not in PIPELINE_TOOLBOX and alias.name not in parked]
    found += [f"line {node.lineno}: {node.id} is parked" for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in parked]
    found += [f"line {node.lineno}: {alias.name} as a module" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
              for alias in node.names if alias.name in ("fock", "optics")]
    return found


def test_toolbox_breaches_are_found():
    source = (
        "from .fock import ModeRegister, StateVector\n"
        "from .optics import FIFTY_FIFTY\n"
        "from .optics import apply_bs, homodyne_grid  # noqa: F401\n"
        "from . import optics\n"
        "ModeRegister(apply_bs(FIFTY_FIFTY))\n"
    )
    assert toolbox_breaches(source) == [
        "line 1: StateVector from .fock", "line 5: apply_bs is parked", "line 4: optics as a module"]


def test_pipelines_read_only_their_share_of_the_toolbox():
    found = {name: toolbox_breaches((PACKAGE / f"{name}.py").read_text()) for name in PIPELINES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def _wrapped_keys() -> set[tuple[str, str]]:
    for node in ast.parse(LAYERTRACE.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"]:
            return set(ast.literal_eval(node.value))
    raise AssertionError(f"{LAYERTRACE} binds no WRAPPED")


def test_parked_names_are_found():
    source = "import os  # noqa: F401\nfrom .fock import make_fock, tensor as t  # noqa: F401\nfrom .optics import apply_bs\n"
    assert _parked(source) == {"os": 1, "make_fock": 2, "t": 2}


def test_every_parked_name_is_one_perfbench_traces():
    wrapped = _wrapped_keys()
    assert wrapped
    stale = [f"{p.stem} line {line}: {name}" for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"
             for name, line in _parked(p.read_text()).items() if (p.stem, name) not in wrapped]
    assert stale == []


def _reexports() -> dict[str, str]:
    """Each name ``__init__.py`` imports from a module of the package, with that module."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name: node.module for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}


def test_every_export_is_bound_and_every_reexport_is_exported():
    """A deleted or renamed name can leave no stale entry on an ``__all__`` or in ``__init__.py``."""
    modules = {p.stem: importlib.import_module(f"hyswap.{p.stem}")
               for p in sorted(PACKAGE.glob("*.py")) if p.stem not in ("__init__", "__main__")}
    exported = {name: getattr(module, "__all__", []) for name, module in modules.items()}
    assert "apply_loss" in exported["optics"]
    unbound = [f"{name}.{n}" for name, names in exported.items() for n in names if not hasattr(modules[name], n)]
    assert unbound == []
    reexports = _reexports()
    assert "measure_and_reduce" in reexports
    assert [f"{source}.{n}" for n, source in reexports.items() if n not in exported[source]] == []
