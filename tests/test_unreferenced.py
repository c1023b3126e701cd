"""Every module-level function, class and constant of the package is read by
other package code, or is public API named in ALLOWED; and no module reads
a private (`_`-prefixed) name of another.

A definition counts as read when another top-level statement of the
package names it, as a name or an attribute.  Its own body (recursion, a
method naming its class) does not count, and neither does an import, so a
re-export by `__init__.py` does not.  Code that only the tests or the
benchmark read belongs with them, not in the package.  Each module reads
every name it imports.
"""

import ast
from pathlib import Path

import sfttrace

PACKAGE = Path(sfttrace.__file__).resolve().parent

# name -> why it stays although no package code reads it
ALLOWED = {
    "__version__": "the package version, for users and packaging tools",
    "involute": "the * operation of the algebras",
    "refine": "one-step refinement of a term, the algebras' change of window",
    "write_config": "the config writer that the benchmark builds its configs with",
    "bracket": "the local product structure [x, y] of heteroclinic points",
    "shift_point": "the shift on heteroclinic points, the unitary's action on the basis",
    "apply_element": "the representation of an element on one basis vector",
    "__getattr__": "the package's lazy exports, which the interpreter calls (PEP 562)",
}


def _scan():
    """({module-level name: its module's file name}, the names that some
    other top-level statement of the package reads)."""
    defined: dict = {}
    read: set = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = {stmt.name}
            elif isinstance(stmt, ast.Assign):
                names = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                names = {stmt.target.id}
            else:
                names = set()
            defined.update(dict.fromkeys(names, path.name))
            read |= {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt)
                     if isinstance(node, (ast.Name, ast.Attribute))} - names
    return defined, read


def test_every_definition_is_read_or_public():
    defined, read = _scan()
    unread = sorted(f"{module}: {name}" for name, module in defined.items()
                    if name not in read and name not in ALLOWED)
    assert not unread, ("defined in the package and read by no other package code; "
                        "move it to what reads it, or add it to ALLOWED with a reason: "
                        + ", ".join(unread))


def test_allowed_names_are_defined_and_unread():
    # an entry that package code reads, or that is gone, is stale
    defined, read = _scan()
    assert {name for name in ALLOWED if name not in defined or name in read} == set()


def test_every_import_is_read_in_its_module():
    # `__init__.py`, where an import may be a re-export, is exempt
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name.partition(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [f"{path.name}: {name}" for name in sorted(imported - read)]
    assert not unread, "imported and never read: " + ", ".join(unread)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_module_reads_a_private_name_of_another():
    # `from .rep import _name` and `rep._name`, with `rep` bound by an import
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules: dict = {}  # local name -> the package module that it binds
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").partition(".")[0] == "sfttrace"):
                module = (node.module or "").rpartition(".")[2]
                for alias in node.names:
                    if module in ("", "sfttrace"):
                        modules[alias.asname or alias.name] = alias.name
                    elif _is_private(alias.name):
                        found.append(f"{path.stem} ← {module}.{alias.name}")
            elif isinstance(node, ast.Import):
                modules.update((alias.asname, alias.name.rpartition(".")[2])
                               for alias in node.names
                               if alias.asname and alias.name.startswith("sfttrace."))
        found += [f"{path.stem} ← {modules[node.value.id]}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and _is_private(node.attr)]
    assert not found, "private names read across modules: " + ", ".join(found)
