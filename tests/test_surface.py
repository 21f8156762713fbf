"""Every public function and class of ``sktsim`` is reached from program code.

A public name (no leading underscore) defined at the top level of a module
in ``src/sktsim`` must be loaded, as a name or as an attribute, by program
code in ``src/sktsim`` outside its own definition.  Imports do not count,
and neither do the tests: a name only tests call is library surface that no
command and no gate reaches.  Every name a module's ``__all__`` lists is
defined or imported by that module, and every name a module imports is
loaded by it or listed in its ``__all__``.
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


def _bound_names(tree: ast.Module) -> tuple[set[str], list[str]]:
    """Names a module's top-level statements define or import, and its ``__all__``."""
    bound, exported = set(), []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(stmt.name)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in stmt.names)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = {sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = list(ast.literal_eval(stmt.value))
    return bound, exported


def test_every_name_in_all_is_defined_or_imported():
    # A stale __all__ entry breaks ``from sktsim.<module> import *``.
    stale = []
    for path in sorted(PACKAGE.glob("*.py")):
        bound, exported = _bound_names(ast.parse(path.read_text(), filename=str(path)))
        stale += [f"{path.stem}.{name}" for name in exported if name not in bound]
    assert not stale, f"__all__ names no top-level statement defines or imports: {stale}"


def test_every_import_is_loaded_or_exported():
    # An import nothing reads is dead code that hides which modules depend
    # on which; imports inside functions count too.
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        _, exported = _bound_names(tree)
        loaded = {sub.id for sub in ast.walk(tree)
                  if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                dead += [f"{path.stem}.{name}" for name in
                         ((alias.asname or alias.name).split(".")[0] for alias in node.names)
                         if name not in loaded and name not in exported]
    assert not dead, f"imported names their module never loads or exports: {dead}"


def test_only_linalg_knows_how_implicit_operators_are_stored_and_solved():
    # The CSR and band layouts of the implicit operators and the solvers that
    # take them stay behind sktsim.linalg; grid.weak_norm's solveh_banded is a
    # different, symmetric solve.
    private = {"band", "indices", "indptr", "solve_banded", "bicgstab"}
    leaks = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = (node.asname or node.name).split(".")[-1]
            else:
                continue
            if name in private:
                leaks.append(f"{path.stem}:{node.lineno}: {name}")
    assert not leaks, f"solver internals read outside sktsim.linalg: {leaks}"
