"""Nothing in the package exists only for its tests.

Every module-level function and class under ``src/schrobridge`` must be
reachable from a run. The roots are ``cli.main`` and module-level code
(``cli._COMMANDS``, for example); from a reached function or class the
check follows the package names (``ast.Name``) and module attributes
(``ast.Attribute``) its body uses. Imports, exports in ``__init__`` and
docstrings are not uses. The only exemptions are the functions that
``bench/tracer.py``'s ``TRACED`` binds by name, which the benchmark
reaches. Oracles and fixtures that only tests call belong in the tests.
"""
import ast
import importlib.util
import pathlib

import schrobridge

PACKAGE = pathlib.Path(schrobridge.__file__).resolve().parent
TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _traced():
    """``module.attr`` of every function the benchmark's tracer binds."""
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {f"{module}.{attr}" for module, attr, _, _ in tracer.TRACED}


def _modules():
    """{dotted module name: AST} of the package, ``__init__`` files left out."""
    return {".".join(p.relative_to(PACKAGE).with_suffix("").parts): ast.parse(p.read_text())
            for p in sorted(PACKAGE.rglob("*.py")) if p.name != "__init__.py"}


def _namespaces(modules):
    """{module: {local name: "module.name" of a definition, or a module name}}."""
    spaces = {}
    for mod, tree in modules.items():
        space = spaces[mod] = {}
        package = mod.rpartition(".")[0]
        for node in tree.body:
            if isinstance(node, DEFS):
                space[node.name] = f"{mod}.{node.name}"
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    space[alias.asname or alias.name] = ".".join(
                        filter(None, [package, node.module, alias.name]))
    return spaces


def _resolve(qual, spaces):
    """The definition ``qual`` names, following re-imports; a module name stays as is."""
    while qual not in spaces:
        mod, _, name = qual.rpartition(".")
        if mod not in spaces or spaces[mod].get(name, qual) == qual:
            return qual
        qual = spaces[mod][name]
    return qual


def _uses(mod, node, spaces):
    """Definitions the names and module attributes under ``node`` refer to."""
    space = spaces[mod]
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in space:
            yield _resolve(space[sub.id], spaces)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            owner = _resolve(space.get(sub.value.id, ""), spaces)
            if owner in spaces:
                yield _resolve(f"{owner}.{sub.attr}", spaces)


def unreachable(modules, exempt):
    """Sorted ``module.name`` of the definitions no run reaches."""
    spaces = _namespaces(modules)
    defs = {f"{mod}.{node.name}": (mod, node)
            for mod, tree in modules.items() for node in tree.body if isinstance(node, DEFS)}
    todo = ["cli.main", *exempt]
    for mod, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (*DEFS, ast.Import, ast.ImportFrom)):
                todo.extend(_uses(mod, node, spaces))
    reached = set()
    while todo:
        qual = todo.pop()
        if qual in defs and qual not in reached:
            reached.add(qual)
            todo.extend(_uses(*defs[qual], spaces))
    return sorted(set(defs) - reached)


def test_every_definition_is_reached_by_a_run():
    unused = unreachable(_modules(), _traced())
    assert not unused, f"defined in src/ but reached by no run: {unused}"


def test_imports_and_docstrings_are_not_uses():
    modules = {
        "cli": ast.parse('from .lib import helper, used\n\n\ndef main():\n'
                         '    """Not helper."""\n    return used()\n'),
        "lib": ast.parse("def used():\n    return 1\n\n\ndef helper():\n    return 2\n"),
    }
    assert unreachable(modules, ()) == ["lib.helper"]
    assert unreachable(modules, {"lib.helper"}) == []
