"""choqlab benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload preset-solve --seed 0 --seconds 20 --trace 0

Run from the repository root; choqlab is imported from ./src.  Operations
run back to back (closed loop, one client) until --seconds have passed,
stopping at a round boundary.  Each output is checked; a failed check, a
non-zero exit code or an exception counts the operation as failed.

--trace 0 prints the end-to-end metrics: op_s (seconds per operation: the
mean over each round, median over the rounds of the run), setup_s (median
over fresh processes of the time from the first statement to the first
timed operation), peak_rss_mb and ok_frac (operations that passed their
check, over those attempted).

--trace 1 runs the workload's traced operations once untraced, then twice
traced, and prints the per-layer metrics of tracing.py and layers.py.  The
two traced passes must give identical counts; any difference fails the
operation.  Spans and the environment record are written to
perfbench/_out/.

The last line of stdout is the JSON result; anything else goes before it.
"""

import time

_T_START = time.perf_counter()   # set-up is timed from the first statement

import ctypes
import os

# One BLAS thread: solve's two start threads would otherwise each fan out
# to OpenBLAS workers, putting more busy threads than cores on a 2-core
# machine.  Must be set before numpy loads OpenBLAS.
os.environ["OPENBLAS_NUM_THREADS"] = "1"


def _pin_mmap_threshold() -> None:
    """Fix glibc's mmap threshold at 32 MiB, the ceiling of its dynamic rule.

    glibc raises the threshold after large frees, so the same fiber-m128
    work peaked at 256 or 280 MiB depending on allocation history and
    address layout; pinned at the value it converges to, the spread of
    peak RSS across runs fell from 9 % to under 3 %.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return   # not glibc: keep the allocator's defaults
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 * 1024 * 1024)   # -3 is M_MMAP_THRESHOLD


_pin_mmap_threshold()

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
SETUP_PROBES = 4            # fresh processes timed for setup_s, plus this one
MAX_RUN_S = 150.0           # start no optional operation past this point
KNOWN_LIMITATION = ("build_kernel at alpha=2.5, m=32, L=24 raises KernelError "
                    "('kernel symbol went negative'); param-sweep draws alpha "
                    "from [1, 2], the range criterion 2 validates")


class BenchError(Exception):
    pass


def import_choqlab():
    """Namespace of choqlab's modules, imported from ./src.

    The package re-exports functions under module names (`choqlab.energy`
    is the function), so modules are taken from sys.modules.
    """
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import choqlab
        import choqlab.cli
    except ImportError as exc:
        raise BenchError(f"cannot import choqlab from {src}: {exc}") from exc
    if Path(choqlab.__file__).resolve().parent.parent != src:
        raise BenchError(f"imported choqlab from {choqlab.__file__}, not {src}")
    return types.SimpleNamespace(package=choqlab, **{
        name: sys.modules[f"choqlab.{name}"] for name in (
            "problem", "grid", "riesz", "energy", "thresholds", "minimize",
            "fiber", "cli")})


def setup(name: str, seed: int):
    """Imports, cold kernel and inputs; returns (package, workload)."""
    ch = import_choqlab()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=OUT)
    return ch, WORKLOADS[name](ch, seed, workdir)


def run_op(workload, i, call):
    """Time one operation and check it; returns (seconds, problems)."""
    t0 = time.perf_counter()
    try:
        result = call(i)
    except Exception:
        return time.perf_counter() - t0, [traceback.format_exc(limit=3)]
    seconds = time.perf_counter() - t0
    try:
        return seconds, workload.check(i, result)
    except Exception:
        return seconds, [traceback.format_exc(limit=3)]


def run_rounds(workload, seconds):
    """Whole rounds of operations until `seconds` have passed."""
    per = workload.ops_per_round
    times, failures = [], []
    t0 = time.perf_counter()
    i = 0
    while True:
        if i % per == 0 and i > 0:
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds or elapsed + elapsed / i * per > MAX_RUN_S:
                break
        dt, problems = run_op(workload, i, workload.op)
        times.append(dt)
        if problems:
            failures.append((i, problems))
        i += 1
    return times, failures


def probe_setups(name, seed) -> list[float]:
    """Set-up times of fresh processes that stop before their first op."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()[-400:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def environment(ch, workload, seed, seconds) -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "CHOQLAB_THREADS": os.environ.get("CHOQLAB_THREADS", "unset"),
        "start_threads": ch.minimize.thread_count(5),
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "known_limitation": KNOWN_LIMITATION,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def op_seconds(times, per) -> float:
    """Median over rounds of the mean operation time within each round.

    A round of param-sweep spans alpha in [1, 2], whose points differ in
    cost by 3x; its mean does not depend on where the seeded draws fell
    within their strata the way a median over single points does.
    """
    return statistics.median(statistics.fmean(times[j:j + per])
                             for j in range(0, len(times), per))


def untraced_run(args, ch, workload, setup_s):
    times, failures = run_rounds(workload, args.seconds)
    rss = peak_rss_mb()
    setups = [setup_s] + probe_setups(args.workload, args.seed)
    attempted = len(times)
    metrics = {
        "op_s": metric(op_seconds(times, workload.ops_per_round), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(rss, "MiB"),
        "ok_frac": metric((attempted - len(failures)) / attempted, "fraction"),
    }
    print(f"{workload.name}: {attempted} ops, op times "
          + " ".join(f"{t:.3f}" for t in times)
          + "; setup samples " + " ".join(f"{t:.3f}" for t in setups))
    return attempted, failures, metrics


def traced_run(args, ch, workload):
    import layermetrics
    import tracing
    from layers import layer_pass

    ops = workload.traced_ops
    tracer = tracing.Tracer(ch.package)
    walls = {}

    def traced(rnd):
        def call(i):
            op_id = f"r{rnd}-{i}"
            t0 = time.perf_counter()
            try:
                return tracer.operation(op_id, workload.op, i)
            finally:
                walls[op_id] = time.perf_counter() - t0
        return call

    times = {0: [], 1: [], 2: []}    # pass 0 untraced, passes 1 and 2 traced
    failures = []

    def run_pass(rnd, call):
        for i in ops:
            dt, problems = run_op(workload, i, call)
            times[rnd].append(dt)
            if problems:
                failures.append((f"r{rnd}-{i}", problems))

    run_pass(0, workload.op)
    tracer.install()
    try:
        run_pass(1, traced(1))
        run_pass(2, traced(2))
    finally:
        tracer.uninstall()

    per_op = {op_id: layermetrics.op_metrics(tracer, op_id, wall)
              for op_id, wall in walls.items()}
    mismatched = layermetrics.count_mismatches(
        [per_op[f"r1-{i}"] for i in ops], [per_op[f"r2-{i}"] for i in ops])
    failures += [(f"r2-{ops[k]}", [f"counts differ between traced passes: {diff}"])
                 for k, diff in mismatched]
    failures += [(op_id, [f"root span covers {op['trace.root_coverage']:.4f}"
                          " of the measured wall time"])
                 for op_id, op in per_op.items()
                 if op["trace.root_coverage"] < layermetrics.MIN_ROOT_COVERAGE]
    metrics = layermetrics.summarize(list(per_op.values()))
    n = len(ops)
    metrics["trace.op_s"] = op_seconds(times[1] + times[2], n)
    metrics["trace.overhead_s"] = metrics["trace.op_s"] - op_seconds(times[0], n)
    metrics["trace.repeat_mismatches"] = len(mismatched)
    metrics.update(layer_pass(ch, args.seed))
    tracer.write_jsonl(str(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"))

    units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"per-layer metrics not produced: {sorted(missing)}")
    return 3 * n, failures, {k: metric(metrics[k], units[k]) for k in units}


def kernel_limitation(ch) -> str:
    grid = ch.grid.Grid(3, 32, 24.0)
    try:
        ch.riesz.build_kernel(grid, 2.5)
    except ch.riesz.KernelError as exc:
        return f"confirmed: KernelError: {exc}"
    return "not reproduced: build_kernel(alpha=2.5, m=32) succeeded"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("preset-solve", "fiber-m128", "param-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)

    try:
        ch, workload = setup(args.workload, args.seed)
        setup_s = time.perf_counter() - _T_START
        try:
            if args.setup_probe:
                print(json.dumps({"setup_s": setup_s}))
                return 0
            env = environment(ch, workload, args.seed, args.seconds)
            if args.trace:
                attempted, failures, metrics = traced_run(args, ch, workload)
                env["kernel_alpha_2.5"] = kernel_limitation(ch)
            else:
                attempted, failures, metrics = untraced_run(args, ch, workload,
                                                            setup_s)
        finally:
            shutil.rmtree(workload.workdir, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    failed = {}
    for i, problems in failures:
        failed.setdefault(i, []).extend(problems)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"env-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(env, fh, indent=2)
    print("env: " + json.dumps(env))
    for i, problems in sorted(failed.items(), key=str):
        print(f"FAILED op {i}: " + "; ".join(problems))
    print(f"failed_frac: {len(failed) / attempted:.6g} "
          f"({len(failed)} of {attempted})")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
