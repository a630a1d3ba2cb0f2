"""Source hygiene of the package, checked with the stdlib ``ast`` module:
every module-level function and constant has exactly one definition, every
module-level function, class and constant and every class method is used, and
no module imports a name it never uses."""

import ast
import json
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "locfactor"
TESTS = Path(__file__).resolve().parent

# The imports kept unused: routes binds certify_prime and cli binds
# factor_integer only because
# perfbench/test_bench.py::test_wrappers_reach_every_binding_and_are_restored
# asserts the tracer's wrapper on routes.certify_prime and cli.factor_integer
# (cli runs the direct engines through basefactor.ROUTE_TABLE).  Drop each
# entry with its binding once that test checks descent.certify_prime and
# basefactor.factor_integer (ROADMAP item 1).
UNUSED_IMPORTS_KEPT = {"cli.py": {"factor_integer"}, "routes.py": {"certify_prime"}}


def _modules():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _assigned_names(node):
    """Names a module-level assignment binds (none for other statements)."""
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _module_level_definitions(tree):
    """Names of module-level functions and assigned constants (dunders excluded)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        names |= _assigned_names(node)
    return {n for n in names if not _is_dunder(n)}


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in used}


def test_each_function_and_constant_is_defined_once():
    where = defaultdict(list)
    for name, tree in _modules().items():
        for defined in _module_level_definitions(tree):
            where[defined].append(name)
    duplicates = {n: mods for n, mods in where.items() if len(mods) > 1}
    assert duplicates == {}


def test_no_unused_imports():
    unused = {
        name: found
        for name, tree in _modules().items()
        for found in [_unused_imports(tree)]
        if found
    }
    assert {name: set(found) for name, found in unused.items()} == UNUSED_IMPORTS_KEPT, unused


def _references(tree):
    """Names and attribute names read anywhere in tree."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_each_function_and_class_is_used():
    modules = _modules()
    readers = defaultdict(set)  # name -> the package's top-level statements that read it
    for tree in modules.values():
        for statement in tree.body:
            for name in _references(statement):
                readers[name].add(statement)
    in_tests = set().union(*(_references(ast.parse(p.read_text(), str(p))) for p in TESTS.glob("*.py")))
    exported = {  # the package's names, served from its _EXPORTS table
        name
        for node in modules["__init__.py"].body
        if _assigned_names(node) == {"_EXPORTS"}
        for names in ast.literal_eval(node.value).values()
        for name in names
    }
    unused = [
        f"{module}:{name}"
        for module, tree in modules.items()
        for node in tree.body
        for name in (
            {node.name} if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else _assigned_names(node)
        )
        if not _is_dunder(name)
        and name not in exported | in_tests
        and not readers[name] - {node}
    ]
    assert unused == []


def test_each_method_is_used():
    """A method counts as used when src/ or tests/ reads its name as an
    attribute anywhere; dunder methods are called by Python itself."""
    modules = _modules()
    read = set().union(
        *(_references(tree) for tree in modules.values()),
        *(_references(ast.parse(p.read_text(), str(p))) for p in TESTS.glob("*.py")),
    )
    unused = [
        f"{module}:{cls.name}.{node.name}"
        for module, tree in modules.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read
    ]
    assert unused == []


def _params(node):
    return {a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs}


def test_descent_layer_is_engine_free():
    """The descent layer decides primality by Nagata's argument alone: it
    strips generators and asks its localization oracle, never a base-ring
    irreducibility test, and none of its classes or functions is given an
    engine (the engine-backed oracles live in ``routes``).  Below it,
    ``basefactor`` takes its int-list trim and multiply-accumulate from
    ``rings`` rather than keeping copies."""
    modules = _modules()
    source = (PACKAGE / "descent.py").read_text()
    assert [name for name in ("is_irreducible", "_require_irreducible") if name in source] == []
    given_engine = [
        node.name
        for node in ast.walk(modules["descent.py"])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and "engine" in _params(node)
    ]
    assert given_engine == []
    from_rings = {
        alias.name
        for node in modules["basefactor.py"].body
        if isinstance(node, ast.ImportFrom) and node.module == "rings"
        for alias in node.names
    }
    assert {"zx_trim", "zx_mul_acc"} <= from_rings
    assert {"_trim", "_mul_acc"} & _module_level_definitions(modules["basefactor.py"]) == set()


def test_no_function_takes_a_submonoid_beside_its_oracle():
    """An oracle carries its submonoid as ``oracle.S``, so no function takes
    the submonoid a second time, where nothing would check that they agree."""
    both = [
        f"{module}:{node.name}"
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for params in [_params(node)]
        if "oracle" in params and params & {"S", "submonoid"}
    ]
    assert both == []


def test_every_route_descends_through_one_check():
    """Every descent route in ``routes`` runs ``_descend_checked``, so
    ``descend_factor`` is read in no other function there."""
    readers = sorted(
        getattr(node, "name", f"line {node.lineno}")
        for node in _modules()["routes.py"].body
        if any(isinstance(n, ast.Name) and n.id == "descend_factor" for n in ast.walk(node))
    )
    assert readers == ["_descend_checked"]


def test_cli_serves_only_names_that_routes_defines():
    """``cli`` serves the names in ``_ROUTES_NAMES`` from ``routes`` on first
    use, so each must be a module-level definition there."""
    modules = _modules()
    served = next(
        ast.literal_eval(node.value.args[0])
        for node in modules["cli.py"].body
        if _assigned_names(node) == {"_ROUTES_NAMES"}
    )
    defined = _module_level_definitions(modules["routes.py"]) | {
        node.name for node in modules["routes.py"].body if isinstance(node, ast.ClassDef)
    }
    assert served and sorted(served - defined) == []


def test_bindings_a_benchmark_test_wraps_still_exist():
    """perfbench/test_bench.py::test_wrappers_reach_every_binding_and_are_restored
    asserts the tracer's wrapper on these four bindings, which exist for that
    test alone, so a change that drops one fails here too.  This test goes
    with them when ROADMAP item 1 or 9 points that test at the defining
    modules."""
    from locfactor import basefactor, cli, descent, routes

    assert cli.factor_integer is basefactor.factor_integer
    assert cli.compare_routes is routes.compare_routes
    assert routes.certify_prime is descent.certify_prime
    # the tracer wraps the methods of the oracle classes that routes defines
    owner = next(c for c in routes.LaurentOracle.__mro__ if "factor_fraction" in vars(c))
    assert owner.__module__ == routes.__name__ and vars(routes)[owner.__name__] is owner


def test_each_record_field_is_read():
    """Every field of a ``NamedTuple`` record is read as an attribute
    somewhere in src/ or tests/: a field nothing reads is dead data."""
    modules = _modules()
    trees = [*modules.values(), *(ast.parse(p.read_text(), str(p)) for p in TESTS.glob("*.py"))]
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{module}:{cls.name}.{field.target.id}"
        for module, tree in modules.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in cls.bases)
        for field in cls.body
        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
        and field.target.id not in read
    ]
    assert unread == []


def test_routes_ask_only_the_engines():
    """By Gauss's lemma the constant-primes oracle reads its ring's direct
    engine, so ``routes`` imports no content split and no engine for
    primitive polynomials alone."""
    allowed = {
        "basefactor": {"PrimeFactorization", "ROUTE_TABLE", "check_factorization_unique",
                       "direct_engine", "factor_poly_zx", "request_memo"},
        "rings": {"ZX", "ZXY", "Poly", "Ring"},
    }
    extra = {
        f"{node.module}.{alias.name}"
        for node in ast.walk(_modules()["routes.py"])
        if isinstance(node, ast.ImportFrom) and node.module in allowed
        for alias in node.names
        if alias.name not in allowed[node.module]
    }
    assert extra == set()


def test_each_direct_engine_is_named_in_the_route_table_alone():
    """``basefactor.ROUTE_TABLE`` is the one place that maps a ring to its
    engine and routes: ``cli`` compares no ring with a base ring, the
    former per-ring lookup ``_engine_for`` is gone, and ``_descend_checked``
    is given no engine, since it reads its ring's from the table."""
    modules = _modules()
    rings = {"ZZ", "ZX", "ZXY"}
    compared = [
        f"line {node.lineno}"
        for node in ast.walk(modules["cli.py"])
        if isinstance(node, ast.Compare)
        and any(isinstance(n, ast.Name) and n.id in rings for n in ast.walk(node))
    ]
    assert compared == []
    assert not any("_engine_for" in _references(tree) | _module_level_definitions(tree) for tree in modules.values())
    calls = [
        node
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_descend_checked"
    ]
    assert calls and [(len(c.args), c.keywords) for c in calls] == [(2, [])] * len(calls)



def test_one_fraction_field_route_for_every_ring():
    """The fraction-field route is one construction at R = Z and at
    R = Z[X]: each ``fracfield`` entry of ``ROUTE_TABLE`` names a function
    that is one call of ``_fraction_field_route``, the one function that
    builds a ``ConstantPrimesOracle``, over the one submonoid
    ``fracfield_submonoid`` (the bivariate copy ``iterated_submonoid`` is
    gone)."""
    from locfactor.basefactor import ROUTE_TABLE

    tree = _modules()["routes.py"]
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "iterated_submonoid" not in functions
    named = [route.function for row in ROUTE_TABLE.values() for route in row.descents if route.choice == "fracfield"]
    assert len(named) == 2
    for name in named:
        statements = _statements(functions[name])
        assert len(statements) == 1 and isinstance(statements[0], ast.Return), name
        call = statements[0].value
        assert isinstance(call, ast.Call) and ast.unparse(call.func) == "_fraction_field_route", name
    builders = [name for name, node in functions.items() if "ConstantPrimesOracle" in _references(node)]
    assert builders == ["_fraction_field_route"]


# the uncached body of each direct engine, named ``_<engine>_uncached``
ENGINE_BODIES = ("_factor_integer_uncached", "_kronecker_factor_uncached",
                 "_factor_poly_zx_uncached", "_factor_bivariate_uncached")


def _statements(function):
    """A function's statements, its docstring left out."""
    return [s for s in function.body if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]


def _basefactor_functions():
    return {node.name: node for node in _modules()["basefactor.py"].body if isinstance(node, ast.FunctionDef)}


def test_engine_bodies_leave_the_unit_to_the_wrapper():
    """An engine body returns the factors of a canonical input alone: it
    neither splits off a unit nor builds a factorization."""
    functions = _basefactor_functions()
    assert set(ENGINE_BODIES) <= set(functions)
    for body in ENGINE_BODIES:
        assert {"canonical_associate", "PrimeFactorization"} & _references(functions[body]) == set(), body


def test_each_direct_engine_is_one_memoized_call():
    """Each direct engine is one ``return _memoized(engine, ring, body, p)``
    on its own name and body, so the unit, the memo key and the checks are
    the wrapper's alone."""
    functions = _basefactor_functions()
    for body in ENGINE_BODIES:
        engine = functions[body[1 : -len("_uncached")]]
        statements = _statements(engine)
        assert len(statements) == 1 and isinstance(statements[0], ast.Return), engine.name
        call = statements[0].value
        assert isinstance(call, ast.Call) and isinstance(call.func, ast.Name), engine.name
        assert call.func.id == "_memoized" and len(call.args) == 4, engine.name
        assert ast.literal_eval(call.args[0]) == engine.name and ast.unparse(call.args[2]) == body


def test_each_mutant_source_occurs_once():
    """``tests/run_mutants.py`` applies each mutant of ``tests/mutants.json``
    by replacing one exact source text, so each must occur exactly once in
    its file, and the test listed to kill it must be defined."""
    mutants = json.loads((TESTS / "mutants.json").read_text())
    assert mutants and len({m["name"] for m in mutants}) == len(mutants)
    for m in mutants:
        assert (TESTS.parent / m["file"]).read_text().count(m["source"]) == 1, m["name"]
        assert m["replacement"] != m["source"], m["name"]
        if m["killed_by"] is not None:
            path, *names = m["killed_by"].split("[")[0].split("::")
            tree = ast.parse((TESTS.parent / path).read_text())
            defined = {n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
            assert set(names) <= defined, m["name"]
