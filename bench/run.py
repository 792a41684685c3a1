"""Benchmark of the schrobridge CLI: one fresh process per sample.

    python3 bench/run.py --workload {bridge_solve,moment_stability,all}
                         --seed N --seconds S --trace {0,1}

Each sample is a new interpreter (bench/child.py) that imports the
package from ``src``, writes the seeded inputs and times
``schrobridge.cli.main`` on them, because a CLI user pays every cold
cost on every call. Samples repeat until the next one would end after
``--seconds``.

With ``--trace 0`` it reports the end-to-end metrics: ``wall_s`` (median
over samples of the summed ``cli.main`` time), ``setup_s`` (median time
from process spawn to the first ``cli.main`` call, with extra set-up-only
processes so at least SETUP_SAMPLES are taken), ``peak_rss_mb`` (median
``ru_maxrss``) and ``ok_frac`` (1 - fail_frac). With ``--trace 1`` two
traced samples give the per-layer metrics, the counts that must repeat
exactly are compared between them, and untraced samples give the base
of ``trace.overhead_frac``. Every sample's outputs are checked; a
failing check or non-zero exit counts its command as a failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Workload names,
metric names and units come from BENCHMARK.json.
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(HERE, "child.py")

# One BLAS thread: never more than nproc, steadier on a shared machine, and
# one reduction order, so that the sweep counts repeat exactly.
BLAS_THREADS = 1
SETUP_SAMPLES = 8
MIN_SAMPLES = 2
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run (not a failed operation)."""


def _spec():
    """Workload names and metric units, as BENCHMARK.json defines them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _spawn(base, name, seed, tag, traced, deadline, setup_only=False):
    """Run one child process; return its result with ``setup_s`` and ``span_s``."""
    work = os.path.join(base, tag)
    result_path = work + ".json"
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    argv = [sys.executable, CHILD, name, str(seed), work, result_path, str(int(traced))]
    if setup_only:
        argv.append("--setup-only")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} {tag} exceeded the run limit") from None
    span_s = time.monotonic() - t_spawn
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchError(f"{name} {tag} exited with {proc.returncode}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup_s"] = result["first_main"] - t_spawn
    result["span_s"] = span_s
    return result


def _sample_until(base, name, seed, seconds, start, deadline, results, minimum):
    """Untraced samples until the next would end after ``start + seconds``."""
    while True:
        results.append(_spawn(base, name, seed, f"sample{len(results)}", False, deadline))
        n_untraced = sum(1 for r in results if "layers" not in r)
        now = time.monotonic()
        if n_untraced >= minimum and now + results[-1]["span_s"] > start + seconds:
            return


def _tally(results):
    ops = [op for r in results if "ops" in r for op in r["ops"]]
    failures = [f for op in ops for f in op["failures"]]
    return len(ops), sum(1 for op in ops if op["failures"]), failures


def run_workload(name, seed, seconds, trace):
    """Measure one workload; return (metrics, attempted, failed, notes, env)."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    base = os.path.join(WORK, f"{name}-s{seed}-t{trace}")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    results = []
    notes = []
    if trace:
        traced = [_spawn(base, name, seed, f"sample{i}", True, deadline) for i in range(2)]
        results += traced
        _sample_until(base, name, seed, seconds, start, deadline, results, 1)
    else:
        _sample_until(base, name, seed, seconds, start, deadline, results, MIN_SAMPLES)
    untraced = [r for r in results if "layers" not in r]
    walls = [sum(op["s"] for op in r["ops"]) for r in untraced]
    attempted, failed, failures = _tally(results)
    notes += [f"FAIL {f}" for f in failures]
    if trace:
        # Each exact count compared between the two traced samples is one
        # more checked operation.
        import tracer
        first, second = (r["layers"] for r in traced)
        for key in tracer.REPEAT_COUNTS:
            attempted += 1
            if first[key] != second[key]:
                failed += 1
                notes.append(f"FAIL repeat.{key}: {first[key]} vs {second[key]}")
        metrics = {k: v if isinstance(v, int) else statistics.median([v, second[k]])
                   for k, v in first.items()}
        traced_wall = statistics.median(sum(op["s"] for op in r["ops"]) for r in traced)
        metrics["trace.overhead_frac"] = traced_wall / statistics.median(walls) - 1.0
        notes.append(f"2 traced samples, {len(walls)} untraced; spans in "
                     f"{os.path.relpath(base, ROOT)}")
    else:
        setups = [r["setup_s"] for r in untraced]
        while len(setups) < SETUP_SAMPLES:
            setups.append(_spawn(base, name, seed, f"setup{len(setups)}", False,
                                 deadline, setup_only=True)["setup_s"])
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "ok_frac": 1.0 - failed / attempted,
        }
        notes.append(f"wall_s over {len(walls)} samples, setup_s over {len(setups)} set-ups")
    notes.append(f"{'fail_frac':28s} {failed / attempted:>16.6g} ratio "
                 f"({failed} of {attempted} operations failed)")
    return metrics, attempted, failed, notes, results[0]["env"]


def _print_table(name, seed, trace, metrics, units, notes, env):
    print(f"== workload {name}  seed {seed}  trace {trace}")
    for key in units:
        print(f"  {key:28s} {metrics[key]:>16.6g} {units[key]}")
    for line in notes:
        print(f"  {line}")
    print("  env " + json.dumps(env, sort_keys=True))


def main(argv=None):
    workload_names, end_to_end, per_layer = _spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the sample.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.exists(os.path.join(ROOT, "src", "schrobridge", "__init__.py")):
        print(f"error: no package source under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    units = per_layer if args.trace else end_to_end
    names = workload_names if args.workload == "all" else [args.workload]
    env = {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS}
    out = {}
    attempted = failed = 0
    try:
        for name in names:
            metrics, n_att, n_fail, notes, child_env = run_workload(
                name, args.seed, args.seconds, args.trace)
            env.update(child_env)
            _print_table(name, args.seed, args.trace, metrics, units, notes, env)
            attempted += n_att
            failed += n_fail
            prefix = f"{name}." if len(names) > 1 else ""
            out.update({prefix + k: {"value": metrics[k], "unit": units[k]} for k in units})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
