"""The benchmark's tracer binds package functions by name: every name must resolve.

``bench/tracer.py`` is loaded from its file, as the benchmark loads it, so
that renaming a traced function fails here before it breaks a traced run.
"""
import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, attr, _, _ in tracer.TRACED:
        owner = importlib.import_module(f"schrobridge.{module}")
        for name in attr.split("."):
            owner = getattr(owner, name, None)
        if not callable(owner):
            missing.append(f"schrobridge.{module}.{attr}")
    assert tracer.TRACED and not missing
