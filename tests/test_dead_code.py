"""No code in the package that only tests use.

Every module-level function, class and assignment in ``relay_offload``
is referenced by other package code, and references match by
(module, name):

- a bare name counts for its own module;
- ``from .m import x`` (with or without ``as``) counts for ``m.x``, so
  the package's public names count through ``__init__``'s imports;
- ``a.x`` counts for ``m.x`` where the module imports ``from . import m
  [as a]``, at module level or inside a function.

A same-named definition or call in another module is not a use.
"""

import ast
from pathlib import Path

import relay_offload

PACKAGE = Path(relay_offload.__file__).resolve().parent


def _definitions(statement: ast.stmt) -> list[str]:
    """The module-level names one top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        return [t.id for t in statement.targets if isinstance(t, ast.Name)]
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return [statement.target.id]
    return []


def _sibling_modules(tree: ast.Module) -> dict[str, str]:
    """Local name -> package module, for every ``from . import m [as a]``
    anywhere in the module."""
    return {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }


def _references(statement: ast.stmt, module: str, siblings: dict[str, str]) -> set[tuple[str, str]]:
    """Every (module, name) one top-level statement of ``module`` reads."""
    refs = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add((module, node.id))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
        ):
            refs.add((siblings[node.value.id], node.attr))
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            refs.update((node.module, alias.name) for alias in node.names)
    return refs


def unreferenced_definitions(package: Path = PACKAGE) -> list[str]:
    """``module.name`` of each module-level definition in ``package`` that
    no other top-level statement of the package references, dunders
    apart."""
    defined, references = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        siblings = _sibling_modules(tree)
        for statement in tree.body:
            defined += [(path.stem, name, statement) for name in _definitions(statement)]
            references.append((statement, _references(statement, path.stem, siblings)))
    return [
        f"{module}.{name}"
        for module, name, statement in defined
        if not (name.startswith("__") and name.endswith("__"))
        # a statement's references to its own name (recursion) do not count
        and not any((module, name) in refs for other, refs in references if other is not statement)
    ]


def test_every_private_definition_is_used_by_the_package():
    assert unreferenced_definitions() == []


def test_the_scan_sees_references_and_their_absence(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from .a import solve_case1\n__all__ = ['solve_case1']\n", encoding="utf-8"
    )
    (tmp_path / "a.py").write_text(
        "from .b import used as alias\n"
        "def dead(x):\n    return dead(x - 1)\n"
        "LIMIT = 3\n"
        "class Kept:\n    pass\n"
        "def solve_case1():\n    from . import c\n    return Kept, LIMIT, alias, c.lazy()\n"
        "def wrap():\n    from . import c\n    return c.wrap()\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text(
        "from . import c as base\n"
        "def used():\n    pass\n"
        "def called():\n    pass\n"
        "def _orphan():\n    called()\n"
        "def wrap():\n    return base.wrap()\n",
        encoding="utf-8",
    )
    (tmp_path / "c.py").write_text("def lazy():\n    pass\ndef wrap():\n    pass\n", encoding="utf-8")
    # solve_case1 counts through __init__'s import, and its function-level
    # import makes c.lazy a use; dead calls only itself and _orphan nothing
    # calls; each wrap calls c.wrap, which is no use of the other wrap
    assert unreferenced_definitions(tmp_path) == ["a.dead", "a.wrap", "b._orphan", "b.wrap"]
