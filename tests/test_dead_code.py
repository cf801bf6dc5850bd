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

Each public name, one in ``__all__``, needs one more reference: outside
``__init__.py`` and its own definition, in package code or in a script
under ``tools/`` or ``perfbench/`` (tests apart), so a name that only
tests call fails even though ``__init__`` imports it.

Each keyword-only parameter of a package function, an option, must be
passed by keyword in some call to that function, by bare or attribute
name, in package code or in one of those scripts; an option only tests
set fails unless it is kept below with its reason.
"""

import ast
from pathlib import Path

import relay_offload

PACKAGE = Path(relay_offload.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
# the scripts that drive the package; perfbench's tests are not among them
SCRIPTS = tuple(
    path for folder in ("tools", "perfbench") for path in sorted((ROOT / folder).glob("*.py"))
)


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


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _scan(package: Path) -> tuple[list, list]:
    """Each module-level definition of ``package`` as (module, name,
    statement), and each top-level statement's references as (module,
    statement, references)."""
    defined, references = [], []
    for path in sorted(package.glob("*.py")):
        tree = _parse(path)
        siblings = _sibling_modules(tree)
        for statement in tree.body:
            defined += [(path.stem, name, statement) for name in _definitions(statement)]
            references.append((path.stem, statement, _references(statement, path.stem, siblings)))
    return defined, references


def _used(module: str, name: str, statement: ast.stmt, references: list) -> bool:
    # a statement's references to its own name (recursion) do not count
    return any((module, name) in refs for _, other, refs in references if other is not statement)


def unreferenced_definitions(package: Path = PACKAGE) -> list[str]:
    """``module.name`` of each module-level definition in ``package`` that
    no other top-level statement of the package references, dunders
    apart."""
    defined, references = _scan(package)
    return [
        f"{module}.{name}"
        for module, name, statement in defined
        if not (name.startswith("__") and name.endswith("__"))
        and not _used(module, name, statement, references)
    ]


def _dotted(node: ast.expr) -> list[str]:
    """``a.b.c`` as ["a", "b", "c"]; [] for any other expression."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return [*head, node.attr] if head else []
    return []


def _script_references(tree: ast.Module, package: Path) -> set[tuple[str, str]]:
    """Every (module, name) of ``package`` a script outside it reads:
    ``from package[.m] import x`` and the attributes of what ``import
    package[.m] [as a]`` and ``from package import m [as a]`` bind.  The
    package's own names are module ``__init__``."""
    top = package.name
    bound: dict[str, str] = {}  # local name -> dotted module path
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == top:
                    bound[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.partition(".")[0] != top:
                continue
            for alias in node.names:
                if node.module == top and (package / f"{alias.name}.py").exists():
                    bound[alias.asname or alias.name] = f"{top}.{alias.name}"
                else:
                    refs.add((node.module, alias.name))
    for node in ast.walk(tree):
        parts = _dotted(node) if isinstance(node, ast.Attribute) else []
        if parts and parts[0] in bound:
            *path, name = [*bound[parts[0]].split("."), *parts[1:]]
            refs.add((".".join(path), name))
    return {(path.rpartition(".")[2] if path != top else "__init__", name) for path, name in refs}


def unused_public_names(package: Path = PACKAGE, scripts: tuple = SCRIPTS) -> list[str]:
    """Each name in ``package``'s ``__all__`` that nothing references but
    ``__init__.py`` and its own definition: no package statement, matched
    as above, and no script in ``scripts``, which reach a public name
    through the package (module ``__init__``) or its own module."""
    init = _parse(package / "__init__.py")
    exports = {
        alias.asname or alias.name: node.module
        for node in init.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    }
    public = next(
        ast.literal_eval(node.value)
        for node in init.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]
    )
    defined, references = _scan(package)
    references = [entry for entry in references if entry[0] != "__init__"]
    for script in scripts:
        for module, name in _script_references(_parse(script), package):
            module = exports.get(name, module) if module == "__init__" else module
            references.append((module, None, {(module, name)}))
    statements = {(module, name): statement for module, name, statement in defined}
    return [
        name
        for name in public
        if not _used(exports[name], name, statements[exports[name], name], references)
    ]


# the options only tests set, each kept on purpose
KEPT_TEST_OPTIONS = {
    # the exhaustive traversal that acceptance criterion 5 compares the pruned one against
    "solve_case1.prune",
    # the size of the grid oracles' reference grid
    "case1_lower_reference.points",
    "case1_lower_reference.rounds",
    "case2_lower_reference.points",
    "case2_lower_reference.rounds",
}


def unset_options(package: Path = PACKAGE, scripts: tuple = SCRIPTS) -> list[str]:
    """``function.parameter`` of each keyword-only parameter of a function
    in ``package`` that no call to that function, by bare or attribute
    name, passes by keyword in ``package`` or ``scripts``.  Calls are
    matched in the syntax tree, so a mention in a docstring is no use."""
    options, passed = [], set()
    for path in [*sorted(package.glob("*.py")), *scripts]:
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and path.parent == package:
                options += [f"{node.name}.{arg.arg}" for arg in node.args.kwonlyargs]
            elif isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                passed.update(f"{callee}.{kw.arg}" for kw in node.keywords if kw.arg)
    return sorted(option for option in options if option not in passed)


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


def test_every_public_name_is_used_outside_init():
    assert unused_public_names() == []


def test_the_public_scan_sees_script_references(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from .a import Kept, dead, solve, wrapped\nfrom .b import run, spare\n"
        "__all__ = ['Kept', 'dead', 'run', 'solve', 'spare', 'wrapped']\n",
        encoding="utf-8",
    )
    (package / "a.py").write_text(
        "class Kept:\n    pass\n"
        "def dead():\n    return dead()\n"
        "def solve():\n    return Kept()\n"
        "def wrapped():\n    pass\n",
        encoding="utf-8",
    )
    (package / "b.py").write_text(
        "def run():\n    pass\ndef spare():\n    pass\n", encoding="utf-8"
    )
    (tmp_path / "tool.py").write_text(
        "import pkg as p\nfrom pkg import b\nfrom pkg.a import wrapped\n"
        "p.solve()\nb.run()\n"
        "def spare():\n    pass\n",
        encoding="utf-8",
    )
    # Kept counts through a.solve, solve through p.solve, run through the
    # module b, wrapped through its import; dead calls only itself, and a
    # same-named definition in a script is no use of b.spare
    assert unused_public_names(package, (tmp_path / "tool.py",)) == ["dead", "spare"]


def test_every_option_is_set_outside_the_tests():
    assert unset_options() == sorted(KEPT_TEST_OPTIONS)


def test_the_option_scan_sees_keyword_calls(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "def solve(x, *, room=None, warm=None, spare=0):\n"
        '    """Call ``solve(x, spare=1)`` to ..."""\n'
        "    return run(x, deep=True)\n"
        "def run(x, deep=False, *, fast=False):\n    pass\n"
        "def walk(*, steps=1, **rest):\n    pass\n"
        "class Plan:\n    def split(self, *, depth=0):\n        pass\n",
        encoding="utf-8",
    )
    (package / "b.py").write_text(
        "from . import a\n"
        "def go(plan):\n"
        "    return a.solve(1, room=2), a.walk(**{'steps': 2}), plan.split(depth=1)\n",
        encoding="utf-8",
    )
    (tmp_path / "tool.py").write_text(
        "import pkg.a\nfrom pkg.a import run\npkg.a.solve(0, warm=1)\nrun(0, fast=True)\n",
        encoding="utf-8",
    )
    # room and a method's depth are set in the package, warm and fast by a
    # script, through attribute and bare names; spare appears only in a
    # docstring, deep is no keyword-only parameter, and steps is passed
    # only through **
    assert unset_options(package, (tmp_path / "tool.py",)) == ["solve.spare", "walk.steps"]
