"""The package's surface is what the package itself uses: no class, function or member lives for its tests alone.

Also: no module of the package or of the tests imports a name it never uses,
no function of the package takes a parameter it never reads, and each
command builds its coefficient kernel once.
"""

import ast
import inspect
from collections import Counter
from pathlib import Path

import qgsync
from qgsync import cli, dynamics, operators

PACKAGE = Path(qgsync.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

# Waits for the pullback report (ROADMAP item 5), which is to call it on the
# stationary orbit; until then only the acceptance suite does.  Classes and
# members have no allowed exceptions.
ALLOWED_UNREFERENCED = {"temperedness_diagnostic"}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(qualified name, node) of top-level functions, classes and class members, public and private.

    Dunder methods are left out: Python calls them, not code that names them.
    """
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not _is_dunder(node.name):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield node.name, node
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not _is_dunder(member.name):
                    yield f"{node.name}.{member.name}", member


def _names(node: ast.AST):
    """Every identifier that `node` names, as a variable or as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def unreferenced_definitions(package: Path) -> set[str]:
    """Top-level functions, classes and class members that no other code in the package names.

    `__init__.py` only re-exports, so it does not count as a use, and
    neither does a definition's own body; an import is not a name, so a
    class that a module imports and never names is unreferenced too.  Members are matched by name, so
    `f.nodal` anywhere counts as a use of every member called `nodal`.
    """
    trees = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    uses = Counter(name for tree in trees for name in _names(tree))
    return {
        qualified
        for tree in trees
        for qualified, node in _definitions(tree)
        if uses[node.name] == list(_names(node)).count(node.name)
    }


def test_every_public_function_has_a_caller_in_the_package():
    assert unreferenced_definitions(PACKAGE) == ALLOWED_UNREFERENCED


def definitions_naming(package: Path, name: str) -> set[str]:
    """`module.definition` of each top-level definition in the package that names `name`.

    Module-level statements other than definitions count as `module.<module>`;
    imports are not names, and a definition does not count for its own name.
    """
    found = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            owner = getattr(node, "name", "<module>")
            if owner != name and name in set(_names(node)):
                found.add(f"{path.stem}.{owner}")
    return found


def test_one_stepping_loop():
    # `evolve` steps every member and advances the shared chain once per
    # step; the radius window is the one chain that no field rides on
    assert definitions_naming(PACKAGE, "step_imex") == {"dynamics.evolve"}
    assert definitions_naming(PACKAGE, "ou_step") == {"dynamics.evolve", "analysis._coefficient_window"}


def test_one_stationary_draw_per_chain():
    # `ou_init` starts each chain; the condition's moments of its law are
    # closed forms, so no second sampler draws from it
    assert definitions_naming(PACKAGE, "ou_init") == {
        "dynamics.start_state",
        "analysis._coefficient_window",
        "cli._suite_ou",
    }


def definitions_calling(package: Path, name: str) -> set[str]:
    """`module.definition` of each top-level definition in the package that calls `name(...)`.

    Calls are matched, not names, so an annotation such as `kernel: OUKernel`
    does not count.
    """
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            callees = (sub.func for sub in ast.walk(node) if isinstance(sub, ast.Call))
            if any(getattr(f, "id", getattr(f, "attr", None)) == name for f in callees):
                found.add(f"{path.stem}.{getattr(node, 'name', '<module>')}")
    return found


def test_one_kernel_build_per_experiment():
    # a command builds the run's one kernel with `RunConfig.kernel` and hands
    # it to `evolve`'s start states and to every experiment it runs
    assert definitions_calling(PACKAGE, "OUKernel") == {"config.RunConfig"}


def test_experiments_take_the_kernel():
    # the model, grid, step size and covariances reach `evolve` and the
    # experiments only inside the kernel, so no run can pair a chain with
    # other ones or step its members under a second viscosity
    takers = (
        qgsync.step_imex,
        qgsync.evolve,
        qgsync.radius_invariance_experiment,
        qgsync.check_condition,
        qgsync.synchronization_experiment,
        qgsync.stationary_statistics,
        qgsync.cocycle_check,
    )
    for fn in takers:
        assert not set(inspect.signature(fn).parameters) & {"cov1", "cov2", "grid", "dt", "params", "nu"}, fn.__name__
    assert list(inspect.signature(qgsync.start_state).parameters) == ["kernel", "stream", "fields"]
    assert list(inspect.signature(qgsync.step_imex).parameters) == ["z", "w", "kernel", "step", "check_cfl", "out"]
    # the validate suites read the grid, the viscosity and the step size from the command's kernel
    suites = [fn for name, fn in vars(cli).items() if name.startswith("_suite_")]
    assert len(suites) == 6
    for suite in suites:
        assert list(inspect.signature(suite).parameters) == ["kernel"], suite.__name__


def test_step_keeps_no_cache_of_its_own():
    # the implicit divisor is a table of the run's kernel, and the 2/3 mask
    # is built where it is applied, by `dealias` and the step plan, so the
    # step's only per-grid state is its plan
    assert not hasattr(dynamics, "_implicit_divisor")
    assert not hasattr(dynamics, "_dealias_mask")
    assert not hasattr(dynamics, "lru_cache")


def test_rates_formed_once_per_experiment():
    # the condition constants enter where an experiment forms its rates; the
    # chain's norm series, the window, the moments and the recursion take them
    assert definitions_calling(PACKAGE, "_rates") == {
        "analysis.radius_invariance_experiment",
        "analysis.check_condition",
    }


def test_one_trilinear_constant_per_grid():
    # c_b is the one estimated constant and a function of the grid alone:
    # the two experiments that use it call the one search, no seed or trial
    # count reaches it, and lambda1 and c_gx are module constants.  It stays
    # a plain function, which a tracer can find by `inspect.isfunction`.
    assert definitions_calling(PACKAGE, "estimate_constants") == {
        "analysis.radius_invariance_experiment",
        "analysis.check_condition",
    }
    assert not hasattr(qgsync, "OperatorConstants")
    assert list(inspect.signature(qgsync.estimate_constants).parameters) == ["grid"]
    assert inspect.isfunction(qgsync.estimate_constants)


def test_trilinear_constant_draws_no_random_number():
    # c_b is the value of a deterministic power method from a fixed start
    # (ROADMAP item 1): no trial count or ascent length is left, and no
    # function of `operators` draws a random number, so no seed can reach it
    assert not hasattr(operators, "TRIALS") and not hasattr(operators, "ASCENT_STEPS")
    for name in ("default_rng", "random_coeffs", "standard_normal"):
        assert not {d for d in definitions_calling(PACKAGE, name) if d.startswith("operators.")}, name


def test_field_is_a_boundary_type():
    # a trajectory is arrays between `start_state`'s fields and a caller's
    # snapshot: no step, untransform, analysis, validation suite or
    # constants search builds a field, and the remaining builders are the
    # snapshot, the random start state and the two field-level operators
    # (ROADMAP item 2)
    assert definitions_calling(PACKAGE, "Field") == {
        "cli.cmd_simulate",
        "fields.random_field",
        "operators.bilinear_b",
        "operators.dirichlet_poisson",
    }


def test_field_holds_no_lattice_cache():
    # a field is its checked coefficients; lattice values are the caller's
    assert qgsync.Field.__slots__ == ("grid", "basis", "_coeffs")
    assert not hasattr(qgsync.Field, "nodal")


def unused_parameters(package: Path) -> set[str]:
    """`function.parameter` for each parameter that its function's body never names.

    Nested functions and methods count on their own; `self` and `cls` are skipped.
    """
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
                used = {sub.id for stmt in node.body for sub in ast.walk(stmt) if isinstance(sub, ast.Name)}
                found.update(f"{node.name}.{a.arg}" for a in params if a.arg not in used | {"self", "cls"})
    return found


def test_no_unused_parameters():
    assert unused_parameters(PACKAGE) == set()


def unused_imports(paths) -> set[str]:
    """`module: name` for each imported name that its module never names.

    `__init__.py` files only re-export, so they are skipped; `__future__`
    imports are directives, not names.
    """
    found = set()
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found.update(f"{path.name}: {name}" for name in imported - used)
    return found


def test_no_unused_imports():
    assert unused_imports(sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))) == set()


def test_analysis_defines_no_report_class():
    # every experiment returns the dict its report writes, so the module's
    # one class is its refusal
    tree = ast.parse((PACKAGE / "analysis.py").read_text())
    assert [node.name for node in tree.body if isinstance(node, ast.ClassDef)] == ["DecayConditionError"]


def test_chain_is_a_vector_over_its_support():
    # the chain holds only the entries that are ever nonzero (ROADMAP item
    # 18): no scatter-add onto a lattice, no lattice of stationary
    # variances, and one float64 per entry of the kernel's index
    assert definitions_calling(PACKAGE, "at") == set()
    assert not hasattr(qgsync.OUKernel, "stationary_variances")
    kernel = qgsync.OUKernel(
        qgsync.GridSpec(16), qgsync.ModelParams(nu=1.0, r=1.0), qgsync.CovarianceSpec(1e-2, 3.0, 3), qgsync.CovarianceSpec(1e-2, 2.5, 3), 0.1
    )
    zw = qgsync.ou_init(kernel, qgsync.NoiseStream(seed=1, dt=0.1))
    assert zw.shape == (kernel.index.size,) and zw.dtype == float
