"""One benchmark sample, run as a fresh process by run.py.

Imports the package from the checkout's ``src``, writes the workload's
seeded inputs, then times each CLI command as a user would run it:
``schrobridge.cli.main(argv)`` from call to return. After the timed
region it reads the peak resident memory, checks the artifacts and
writes one JSON result. With ``--trace 1`` the package's public
functions are wrapped first and the spans' per-layer metrics are added.

    python3 bench/child.py WORKLOAD SEED WORKDIR RESULT.json TRACE [--setup-only]
"""
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv):
    name, seed, work, result_path, trace = argv[:5]
    setup_only = "--setup-only" in argv[5:]
    sys.path.insert(0, SRC)
    import numpy
    import scipy
    import schrobridge
    import schrobridge.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(schrobridge.__file__))) != SRC:
        raise SystemExit(f"schrobridge imported from {schrobridge.__file__}, not {SRC}")
    sys.path.insert(0, HERE)
    import tracer as tracing
    import workloads

    commands = []
    for part in workloads.WORKLOADS[name]:
        part_dir = os.path.join(work, part)
        os.makedirs(part_dir)
        commands += [(label, args, part_dir)
                     for label, args in workloads.prepare(part, int(seed), part_dir)]
    result = {"env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                      "scipy": scipy.__version__}}
    rec = tracing.Tracer()
    main_fn = rec.span("cli.main", schrobridge.cli.main)
    if trace == "1":
        rec.install()
    result["first_main"] = time.monotonic()
    if setup_only:
        _write(result_path, result)
        return 0

    rec.active = True
    ops = []
    for label, args, _ in commands:
        t0 = time.perf_counter()
        try:
            status = main_fn(args)
        except Exception:  # a crash is a failed operation, not a benchmark error
            traceback.print_exc()
            status = "exception"
        ops.append({"label": label, "status": status, "s": time.perf_counter() - t0})
    rec.active = False
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for op, (_, _, part_dir) in zip(ops, commands):
        op["failures"] = workloads.check(op["label"], part_dir)
        if op["status"] != 0:
            op["failures"].insert(0, f"{op['label']}.exit_{op['status']}")
    result["ops"] = ops
    if trace == "1":
        result["layers"] = tracing.layer_metrics(rec.spans)
        with open(result_path[:-len(".json")] + ".spans.json", "w") as fh:
            json.dump({"fields": ["name", "parent", "start_s", "end_s", "info"],
                       "spans": rec.spans}, fh)
    _write(result_path, result)
    return 0


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
