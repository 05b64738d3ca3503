"""Source-level checks on the package itself."""

import ast
import importlib
import inspect
from pathlib import Path

import matchgraph

SRC = Path(matchgraph.__file__).parent


def test_no_assert_statements_in_package():
    # invariants must be explicit checks that survive `python -O`
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SRC.name == "matchgraph" and len(list(SRC.glob("*.py"))) > 5
    assert found == []


def test_no_unused_imports_in_package():
    # a module-level import that nothing in its module uses is dead weight,
    # typically left behind when the code that needed it was deleted
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def _module_level_definitions():
    """(module file name, name) of every module-level function and class."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.name, node.name


def test_no_name_defined_in_two_modules():
    # each primitive exists once; a copied helper drifts from its original
    where: dict[str, list[str]] = {}
    for module, name in _module_level_definitions():
        where.setdefault(name, []).append(module)
    assert {name: mods for name, mods in where.items() if len(mods) > 1} == {}


def _referenced_names(paths):
    """Every name, attribute and imported name that the given files mention."""
    referenced = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return referenced


def test_every_private_definition_is_referenced():
    # a private helper that nothing names is left over from deleted code
    referenced = _referenced_names(SRC.glob("*.py"))
    unused = [
        f"{module}:{name}"
        for module, name in _module_level_definitions()
        if name.startswith("_") and name not in referenced
    ]
    assert unused == []


# Library entry points for the paper's quantities and the host generators
# the tests build on; no command reaches them.
LIBRARY_ENTRY_POINTS = {
    "make_complete",
    "make_disjoint_matching",
    "make_path",
}


def test_every_public_definition_is_reached_or_listed():
    # src/ holds what the commands run; code that only tests reach belongs
    # under tests/ unless it is a named library entry point
    referenced = _referenced_names(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    unreached = {
        name
        for _, name in _module_level_definitions()
        if not name.startswith("_") and name not in referenced
    }
    assert unreached == LIBRARY_ENTRY_POINTS


def _defaults_and_callers(tree):
    """(name a call uses, function name, parameter, position or None) of
    every parameter with a default in the module, at any depth.  A method's
    position leaves out its self or cls; an ``__init__`` is called by its
    class's name."""
    owner = {
        id(node): cls.name
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        cls = owner.get(id(node))
        called_as = cls if cls and node.name == "__init__" else node.name
        positional = node.args.posonlyargs + node.args.args
        if cls:
            positional = positional[1:]
        first_default = len(positional) - len(node.args.defaults)
        for i, arg in enumerate(positional[first_default:], start=first_default):
            yield called_as, node.name, arg.arg, i
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield called_as, node.name, arg.arg, None


def _package_trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def _calls_by_name(trees):
    """Every call in the given modules, keyed by the called name."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                calls.setdefault(name, []).append(node)
    return calls


def _sets(call, param, position):
    """Does the call pass the parameter, by keyword or by position?"""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


# Defaults that only callers outside src/ override.
ENTRY_DEFAULTS = {"cli.py:main(argv)"}


def test_every_default_is_set_by_some_call():
    # a default that no call in src/ overrides is a knob only tests turn; with
    # one value in use it is a constant instead
    trees = _package_trees()
    calls = _calls_by_name(trees)
    unset = {
        f"{module}:{function}({param})"
        for module, tree in sorted(trees.items())
        for called_as, function, param, position in _defaults_and_callers(tree)
        if not any(_sets(call, param, position) for call in calls.get(called_as, ()))
    }
    assert unset == ENTRY_DEFAULTS


def test_no_default_is_set_by_every_call():
    # a default that every call in src/ overrides is never used there; the
    # parameter is required instead.  The cmd_* entry points keep theirs,
    # since the benchmark harness calls them with their defaults.
    trees = _package_trees()
    calls = _calls_by_name(trees)
    always_set = {
        f"{module}:{called_as}({param})"
        for module, tree in sorted(trees.items())
        for called_as, function, param, position in _defaults_and_callers(tree)
        if not function.startswith("cmd_")
        and calls.get(called_as)
        and all(_sets(call, param, position) for call in calls[called_as])
    }
    assert always_set == set()


def test_every_oracle_is_used():
    # an oracle that no test and no other oracle names checks nothing
    tests = Path(__file__).parent
    defined = [
        node.name
        for node in ast.parse((tests / "oracles.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef)
    ]
    referenced = _referenced_names(tests.glob("*.py"))
    assert len(defined) > 10
    assert [name for name in defined if name not in referenced] == []


def test_every_class_member_is_read():
    # a public method or property, or a field, that no code reads is a
    # second API nobody uses
    repo = Path(__file__).parent.parent
    read = set()
    for path in [*SRC.glob("*.py"), *repo.glob("tests/*.py"), *repo.glob("perfbench/*.py")]:
        read.update(
            node.attr
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)
        )

    def member(node):
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            return node.name
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            return node.target.id
        return None

    unread = [
        f"{path.name}:{cls.name}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for cls in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if (name := member(node)) is not None and name not in read
    ]
    assert unread == []


def test_no_module_level_caches_in_package():
    # a process-wide memo holds every argument it saw and ties callers
    # together; a solve passes what it shares explicitly.  A per-instance
    # cached_property stays allowed.
    def name_of(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")

    found = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(name_of(d) in ("lru_cache", "cache") for d in node.decorator_list)
    ]
    assert found == []


# Names in src/ that the benchmark harness reads.  Functions are looked up by
# their "module.name" span strings; attributes are read off return values by
# the tracer's observers.  A rename would zero a per-layer metric silently.
PERFBENCH_FUNCTIONS = (
    "hypergraphs.general_kneser",
    "matching.enumerate_matchings",
    "matching.edge_subset_has_r_matching",
    "matching.tutte_berge",
    "turan.turan_matchings",
    "coloring.chromatic_number",
    "smallgraphs.canonical_form",
)
PERFBENCH_ATTRIBUTES = (
    ("hypergraphs", "KneserGraph", "graph"),
    ("turan", "TuranCertificate", "method"),
)


def test_names_perfbench_reads_exist():
    bench = Path(__file__).parent.parent / "perfbench"
    strings, attributes = set(), set()
    for path in bench.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    for name in PERFBENCH_FUNCTIONS:
        assert name in strings, f"perfbench no longer reads {name}"
        module, _, function = name.partition(".")
        obj = getattr(importlib.import_module(f"matchgraph.{module}"), function, None)
        # the tracer wraps only functions defined in the module itself
        assert inspect.isfunction(obj) and obj.__module__ == f"matchgraph.{module}", name
    for module, cls_name, attr in PERFBENCH_ATTRIBUTES:
        assert attr in attributes, f"perfbench no longer reads .{attr}"
        cls = getattr(importlib.import_module(f"matchgraph.{module}"), cls_name)
        assert attr in vars(cls) or attr in getattr(cls, "__dataclass_fields__", {}), (
            f"{cls_name}.{attr}"
        )
