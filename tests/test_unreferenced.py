"""Every module-level function, class and constant of the package is read by
other package code, or is public API named in ALLOWED.

A definition counts as read when another top-level statement of the
package names it, as a name or an attribute.  Its own body (recursion, a
method naming its class) does not count, and neither does an import, so a
re-export by `__init__.py` does not.  Code that only the tests or the
benchmark read belongs with them, not in the package.
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
