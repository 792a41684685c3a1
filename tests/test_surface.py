"""Nothing in the package exists only for its tests.

Every module-level function under ``src/schrobridge`` must be named
somewhere in the package beyond its own ``def`` (an export in
``__init__`` counts). Oracles and fixtures that only tests call belong in
the tests.
"""
import ast
import pathlib
import re

import schrobridge

PACKAGE = pathlib.Path(schrobridge.__file__).resolve().parent


def test_every_function_is_used_in_the_package():
    sources = [p.read_text() for p in sorted(PACKAGE.rglob("*.py"))]
    text = "\n".join(sources)
    names = {node.name for source in sources for node in ast.parse(source).body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    unused = sorted(
        name for name in names
        if len(re.findall(rf"\b{name}\b", text))
        <= len(re.findall(rf"\bdef\s+{name}\b", text)))
    assert not unused, f"defined in src/ but used only by tests: {unused}"
