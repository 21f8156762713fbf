"""Every public function and class of ``sktsim`` is reached from program code.

A public name (no leading underscore) defined at the top level of a module
in ``src/sktsim`` must be loaded, as a name or as an attribute, by program
code in ``src/sktsim`` outside its own definition.  Imports do not count,
and neither do the tests: a name only tests call is library surface that no
command and no gate reaches.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sktsim"


def _loaded_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def test_every_public_definition_is_loaded_by_program_code():
    defined = []                                  # (module, name)
    loads = []                                    # (module, enclosing definition, names)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = stmt.name
                if not owner.startswith("_"):
                    defined.append((path.stem, owner))
            loads.append((path.stem, owner, _loaded_names(stmt)))
    unreached = sorted(
        f"{module}.{name}" for module, name in defined
        if not any(name in names and (where, owner) != (module, name)
                   for where, owner, names in loads))
    assert not unreached, f"public definitions no program code loads: {unreached}"
