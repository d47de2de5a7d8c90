"""Run one ncstokes benchmark workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
measures the first half of the window untraced and the second half traced
over the same operations, and reports per-layer self times and counts per
operation plus the tracing overhead. ``--size tiny`` shrinks every input for
the self-check.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record, with
the environment, failing request classes and sample counts, goes to
``.perfbench/results/``; the spans of a traced run go to ``.perfbench/traces/``.
The program runs single threaded: BLAS and OpenMP get one thread each.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("table2", "serve-mix", "infsup")
# Set-up (the library import, and input generation with one warm-up
# operation) is repeated this many times and the median of each part is
# reported, so one slow repetition does not show.
SETUP_REPEATS = 5
IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import numpy, scipy.sparse.linalg, ncstokes; print(time.perf_counter() - start)"
)


def import_library():
    """Import ncstokes from this checkout's ``src``."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ncstokes

    if Path(ncstokes.__file__).resolve().parent.parent != src:
        raise ImportError(f"ncstokes imported from {ncstokes.__file__}, not from {src}")


def import_times():
    """Seconds to import numpy, scipy and ncstokes, each in a fresh interpreter.

    An import happens once per process, so each repetition needs its own.
    """
    return [
        float(subprocess.run([sys.executable, "-c", IMPORT_CODE, str(ROOT / "src")],
                             check=True, capture_output=True, text=True, timeout=60).stdout)
        for _ in range(SETUP_REPEATS)
    ]


def _blas_libraries():
    """Version string and thread count of every OpenBLAS loaded in this process."""
    paths = set()
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower():
                paths.add(path)
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
                    entry["threads"] = int(threads())
                    break
            if "config" in entry:
                break
        found.append(entry)
    return found


def _cpu_model():
    with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def environment():
    """What the timings depend on besides the code; compare.py refuses mixed records."""
    import numpy
    import scipy

    blas = _blas_libraries()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": max((b.get("threads", 0) for b in blas), default=0),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "machine": platform.machine(),
    }


def percentile(values, q):
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


class Run:
    """Outcome of the operations of one measurement window."""

    def __init__(self):
        self.latencies = []
        self.failures = Counter()
        self.unexpected = []
        self.keys_seen = set()
        self.repeats = 0

    @property
    def attempted(self):
        return len(self.latencies)


def measure(workload, seconds, whole_groups, tracer=None):
    """Closed loop: run operations until ``seconds`` would be exceeded.

    A group starts only if it is expected to end inside the window, judged
    from the median operation so far; the first group always runs. With
    ``whole_groups`` a group is never cut, so every run covers whole blocks.
    """
    run = Run()
    wrap = tracer.wrap_problem if tracer else (lambda problem: problem)
    start = time.perf_counter()
    for group in workload.groups(wrap):
        for index, op in enumerate(group):
            if run.latencies and (index == 0 or not whole_groups):
                planned = len(group) - index if whole_groups else 1
                expected = statistics.median(run.latencies) * planned
                if time.perf_counter() - start + expected > seconds:
                    return run
            if tracer:
                tracer.op = run.attempted
            begin = time.perf_counter()
            try:
                result = op.run()
                error = None
            except Exception as exc:  # every failed operation is counted, none aborts
                error = exc
            run.latencies.append(time.perf_counter() - begin)
            if tracer:
                tracer.op = None
            if op.key is not None:
                run.repeats += op.key in run.keys_seen
                run.keys_seen.add(op.key)
            if error is not None:
                run.failures[f"{op.label}: {type(error).__name__}"] += 1
                run.unexpected.append(f"{op.label}: {type(error).__name__}: {error}")
                continue
            problems = op.check(result)
            if problems:
                run.failures[f"{op.label}: gate"] += 1
                run.unexpected.extend(f"{op.label}: {p}" for p in problems)
    return run


def end_to_end_metrics(run, setup_s):
    latencies_ms = [t * 1e3 for t in run.latencies]
    return {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (percentile(latencies_ms, 50), "ms"),
        "ops_per_s": (len(latencies_ms) / sum(run.latencies), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import ncstokes from this checkout: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    import workloads

    reference = workloads.load_reference()
    workdir = OUT / f"scratch-{os.getpid()}"
    try:
        import_runs = import_times()
        setup_runs = []
        for _ in range(SETUP_REPEATS):
            begin = time.perf_counter()
            workload = workloads.make_workload(args.workload, args.size, reference)
            workload.setup(np.random.default_rng(args.seed), workdir)
            workload.warm_up()
            setup_runs.append(time.perf_counter() - begin)
        setup_s = statistics.median(import_runs) + statistics.median(setup_runs)

        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "size": args.size, "import_runs_s": import_runs,
                  "setup_runs_s": setup_runs, "env": environment()}
        if args.trace:
            import tracing

            half = args.seconds / 2.0
            plain = measure(workload, half, whole_groups=False)
            tracer = tracing.Tracer()
            workload = workloads.make_workload(args.workload, args.size, reference)
            workload.setup(np.random.default_rng(args.seed), workdir)
            tracer.install()
            try:
                run = measure(workload, half, whole_groups=False, tracer=tracer)
            finally:
                tracer.uninstall()
            common = min(plain.attempted, run.attempted)
            overhead_ms = 1e3 * (statistics.median(run.latencies[:common])
                                 - statistics.median(plain.latencies[:common]))
            metrics = tracer.layer_metrics(run.attempted)
            metrics["trace.overhead_ms"] = (overhead_ms, "ms")
            record["overhead_ops"] = common
        else:
            run = measure(workload, args.seconds, whole_groups=True)
            metrics = end_to_end_metrics(run, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = [plain, run] if args.trace else [run]
    failures = sum((r.failures for r in runs), Counter())
    unexpected = [line for r in runs for line in r.unexpected]
    attempted = sum(r.attempted for r in runs)
    failed = sum(failures.values())
    record.update(
        attempted=attempted,
        failed=failed,
        fail_ratio=failed / attempted,
        failures=dict(sorted(failures.items())),
        unexpected=unexpected[:50],
        timed_samples=run.attempted,
        latencies_ms=[t * 1e3 for t in run.latencies],
        latency_p95_ms=1e3 * percentile(run.latencies, 95),
        samples_beyond_p95=sum(t > percentile(run.latencies, 95) for t in run.latencies),
        repeated_key_share=run.repeats / run.attempted if run.keys_seen else None,
        metrics={name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    )
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{stamp}.json", "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "traces" / f"{stamp}.jsonl.gz")

    print(f"{args.workload}: {attempted} ops, {failed} failed; latency over "
          f"{run.attempted} samples, {record['samples_beyond_p95']} beyond p95", file=sys.stderr)
    for label, count in record["failures"].items():
        print(f"  failed x{count}: {label}", file=sys.stderr)
    for line in unexpected[:10]:
        print(f"  unexpected: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
