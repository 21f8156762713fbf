"""Every public function and class of ``sktsim`` is reached from program code.

A public name (no leading underscore) defined at the top level of a module
in ``src/sktsim`` must be loaded, as a name or as an attribute, by program
code in ``src/sktsim`` outside its own definition.  Imports do not count,
and neither do the tests: a name only tests call is library surface that no
command and no gate reaches.  A public method or property of a public
class must likewise be loaded as an attribute outside its own body, and
every annotated field of a public class must be read as an attribute.
Every name a module's ``__all__`` lists is defined or imported by that
module, and every name a module imports is loaded by it or listed in its
``__all__``.
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
    # The CSR and band layouts of the implicit operators, the Laplacian
    # eigenbasis that preconditions them, the solvers that take them and the
    # LAPACK and BLAS handles they call stay behind
    # sktsim.linalg; grid.weak_norm's solveh_banded is a different, symmetric
    # solve.
    private = {"band", "indices", "indptr", "solve_banded", "bicgstab", "gbsv", "gbmv", "dgbmv",
               "nrm2", "get_lapack_funcs", "get_blas_funcs", "lap_eigvecs", "lap_eigvals"}
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


def test_only_algebra_knows_the_coefficient_columns():
    # Every caller evaluates a model map through sktsim.algebra (eval_l,
    # jac_P, ...) instead of reading the per-species coefficient columns.
    leaks = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "algebra.py":
            continue
        leaks += [f"{path.stem}:{node.lineno}"
                  for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                  if isinstance(node, ast.Attribute) and node.attr == "columns"]
    assert not leaks, f"coefficient columns read outside sktsim.algebra: {leaks}"


def test_experiments_compose_the_program_steps_without_restating_their_physics():
    # The studies march the program's own steps (through forward._STEPS and
    # the adjoint steps); a flux Jacobian, a Laplacian or a ghost extension
    # loaded in experiments.py is a second copy of a step's physics.
    physics = {"jac_P", "jac_Q", "_apply", "laplacian", "_lap_stencil", "_extend"}
    path = PACKAGE / "experiments.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    copies = sorted(physics & _loaded_names(tree))
    assert not copies, f"experiments.py loads the step physics {copies}"


def test_experiments_march_their_forward_runs_without_run_forward():
    # Each forward run of a study is one _march over the step it looks up in
    # forward._STEPS; run_forward would compute per-step diagnostics that no
    # study reads.
    path = PACKAGE / "experiments.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    loaded = sorted({"run_forward", "ForwardProblem"} & _loaded_names(tree))
    assert not loaded, f"experiments.py loads {loaded}"


def test_manufactured_convergence_marches_its_forced_runs_without_run_forward():
    # The manufactured study passes its forcing to the step itself, through
    # _march, and keeps only the last level: run_forward takes no forcing,
    # and its per-step diagnostics are read by no study.
    path = PACKAGE / "forward.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    loaded = sorted({"run_forward", "_diagnostics_block"}
                    & _loaded_names(defs["manufactured_convergence"]))
    assert not loaded, f"manufactured_convergence loads {loaded}"
    fields = {item.target.id for item in defs["ForwardProblem"].body
              if isinstance(item, ast.AnnAssign)}
    assert "forcing" not in fields, "ForwardProblem has a forcing field"


def test_only_run_campaign_reads_the_gate_clock():
    # Campaigns yield their verdicts; run_campaign alone times them, so no
    # gate prints a default 0.00 s or a time measured from its own start.
    path = PACKAGE / "campaigns.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    timer = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "run_campaign")
    allowed = {id(node) for node in ast.walk(timer)}
    reads = [node.lineno for node in ast.walk(tree)
             if id(node) not in allowed and "perf_counter" in (
                 getattr(node, "attr", None), getattr(node, "id", None),
                 getattr(node, "name", None), getattr(node, "asname", None))]
    assert not reads, f"campaigns.py reads perf_counter outside run_campaign at lines {reads}"


# Reached only from perfbench/workloads.py until the benchmark moves to
# stacked arrays (ROADMAP item 1), which then deletes it.
_BENCHMARK_ONLY_METHODS = {"Trajectory.final_state"}


def test_every_public_method_is_loaded_by_program_code():
    # A public method or property of a public class must be loaded as an
    # attribute by program code in src/sktsim outside its own body; the
    # module-level check above cannot see a dead method.
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))]
    methods = [(cls.name, item) for tree in trees for cls in tree.body
               if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
               for item in cls.body
               if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not item.name.startswith("_")]
    loads = [node for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    unreached = set()
    for cls, method in methods:
        own = {id(node) for node in ast.walk(method)}
        if not any(node.attr == method.name and id(node) not in own for node in loads):
            unreached.add(f"{cls}.{method.name}")
    assert unreached == _BENCHMARK_ONLY_METHODS, (
        f"public methods no program code loads: {sorted(unreached - _BENCHMARK_ONLY_METHODS)}; "
        f"allow-listed but now loaded or gone: {sorted(_BENCHMARK_ONLY_METHODS - unreached)}")


# output.write_adjoint_outputs writes every field of the report through
# vars(report), so a field need not be read by name.
_FIELDS_READ_THROUGH_VARS = {"AdjointBoundsReport"}


def test_every_public_field_is_read_by_program_code():
    # An annotated field of a public class (a dataclass field) must be read
    # as an attribute by program code in src/sktsim; a field that only tests
    # read is computed for nothing.
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))]
    classes = [cls for tree in trees for cls in tree.body
               if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")]
    assert _FIELDS_READ_THROUGH_VARS <= {cls.name for cls in classes}
    reads = {node.attr for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = sorted(f"{cls.name}.{item.target.id}" for cls in classes
                    if cls.name not in _FIELDS_READ_THROUGH_VARS
                    for item in cls.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                    and item.target.id not in reads)
    assert not unread, f"public fields no program code reads: {unread}"
