"""No code in the package that only tests use.

Every module-level function, class and assignment in ``relay_offload``
is either public (in ``relay_offload.__all__``) or its name is referenced
by other package code: as a name, an attribute or an imported name.
References match by bare name, not by module, so a same-named reference
anywhere in the package counts as a use.
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


def _references(statement: ast.stmt) -> set[str]:
    """Every name one top-level statement reads, as a name, an attribute
    or an imported name."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreferenced_definitions(package: Path = PACKAGE) -> list[str]:
    """``module.name`` of each module-level definition in ``package`` that
    no other top-level statement of the package references, public names
    and dunders apart."""
    defined, references = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for statement in tree.body:
            defined += [(path.stem, name, statement) for name in _definitions(statement)]
            references.append((statement, _references(statement)))
    public = set(relay_offload.__all__)
    return [
        f"{module}.{name}"
        for module, name, statement in defined
        if name not in public
        and not (name.startswith("__") and name.endswith("__"))
        # a statement's references to its own name (recursion) do not count
        and not any(name in names for other, names in references if other is not statement)
    ]


def test_every_private_definition_is_used_by_the_package():
    assert unreferenced_definitions() == []


def test_the_scan_sees_references_and_their_absence(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .b import used\n"
        "def dead(x):\n    return dead(x - 1)\n"
        "LIMIT = 3\n"
        "class Kept:\n    pass\n"
        "def solve_case1():\n    return Kept, LIMIT\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text(
        "def used():\n    pass\n"
        "def called():\n    pass\n"
        "def _orphan():\n    called()\n",
        encoding="utf-8",
    )
    # solve_case1 is public; dead calls only itself, _orphan nothing calls
    assert unreferenced_definitions(tmp_path) == ["a.dead", "b._orphan"]
