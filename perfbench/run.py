"""sentfolio benchmark runner: one workload, one seed, one process.

    python3 perfbench/run.py --workload study|allocate|cli --seed N \
        --seconds S --trace 0|1

Run it from the repository root.  It imports ``sentfolio`` from ``src/``,
builds the workload's inputs from ``--seed`` and runs passes back to back
(one client, closed loop) for about ``--seconds`` seconds, never fewer than
the workload's minimum.  Every pass's outputs are checked and hashed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it runs one untraced and one traced pass
over the same inputs and carries the per-layer metrics.  The line before it
is a full report: provenance, failure counts with their base, output
digests and the paper's edge.  Reports and spans are also written under
``.perfbench/``.
"""

import time

_PROCESS_T0 = time.perf_counter()

import os  # noqa: E402

# Every matrix here is at most 64x64: one BLAS thread, set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# Seed kept out of development runs; a claimed gain is confirmed on it last.
HELD_OUT_SEED = 7919
SETUP_REPEATS = 3


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import sentfolio from this checkout's src/, never from elsewhere."""
    if not (SRC / "sentfolio" / "__init__.py").is_file():
        fail(f"no sentfolio sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import sentfolio
    from sentfolio import (  # noqa: F401  (import cost belongs to set-up)
        backtest, cli, forecast_lstm, market_data, pipeline, portfolio_opt,
        sentiment, stats, svg, synthetic,
    )

    if Path(sentfolio.__file__).resolve().parent != (SRC / "sentfolio").resolve():
        fail(f"sentfolio imported from {sentfolio.__file__}, not {SRC}")


def blas_info() -> dict:
    import ctypes
    import glob

    import numpy as np

    deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": deps.get("name"), "version": deps.get("version"),
            "threads_requested": int(BLAS_THREADS), "threads": None}
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in glob.glob(str(libs_dir / "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                info["threads"] = int(getter())
                return info
    return info


def git_commit() -> str | None:
    """HEAD of the checkout's .git, read without running git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sentfolio").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance() -> dict:
    import numpy as np
    import sentfolio

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "sentfolio": sentfolio.__version__,
    }


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} missing")
    return json.loads(path.read_text())


def timed_pass(workload, inputs, index, tracer):
    """(seconds, PassResult); a pass that raises fails all its operations."""
    from workloads import PassResult

    start = time.perf_counter()
    try:
        result = workload.run_pass(inputs, index, tracer)
    except Exception as exc:  # report a broken program instead of stopping
        traceback.print_exc(file=sys.stderr)
        ops = workload.attempted_per_pass(inputs)
        result = PassResult(attempted=ops, failed=ops, digest=None,
                            problems=[f"pass raised {exc!r}"])
    return time.perf_counter() - start, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")
    import_program()
    import_s = time.perf_counter() - _PROCESS_T0

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workdir = OUT / f"work-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            inputs = workload.setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setup_times)
        run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
        report, tracer = measure(workload, inputs, args.seconds, args.trace, run_id)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report.update(
        workload=args.workload, seed=args.seed, held_out_seed=HELD_OUT_SEED,
        seconds=args.seconds, trace=args.trace, setup_s=setup_s,
        setup_import_s=import_s, setup_generate_s=setup_times,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        provenance=provenance(),
    )
    metrics = report.pop("_metrics")
    if not args.trace:
        metrics.update(setup_s=setup_s, peak_rss_mb=report["peak_rss_mb"])
    group = "per_layer" if args.trace else "end_to_end"
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)),
                                "unit": m["unit"]} for m in spec[group]},
    }
    OUT.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"report-{stem}.json").write_text(json.dumps({**report, "result": result},
                                                        indent=1))
    print(json.dumps({"perfbench_report": report}))
    print(json.dumps(result))
    return 0


def measure(workload, inputs, seconds: float, trace: int, run_id: str):
    """Run the passes; return (report, tracer or None).  ``report["_metrics"]``
    holds the end-to-end metrics, or with ``trace`` the per-layer ones."""
    from spans import NullTracer, Tracer, install

    untraced = NullTracer()
    times, results = [], []
    if not trace:
        while (len(times) < workload.min_passes
               or sum(times) + statistics.median(times) <= seconds):
            elapsed, result = timed_pass(workload, inputs, len(times), untraced)
            times.append(elapsed)
            results.append(result)
        traced_s = tracer = None
    else:
        elapsed, result = timed_pass(workload, inputs, 0, untraced)
        times.append(elapsed)
        results.append(result)
        tracer = Tracer(run_id=run_id)
        restore = install(tracer)
        try:
            traced_s, result = timed_pass(workload, inputs, 0, tracer)
        finally:
            restore()
        results.append(result)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    problems = sorted({p for r in results for p in r.problems})
    # equal inputs must give byte-equal outputs, traced or not
    keys = [workload.input_key(inputs, 0 if trace else i) for i in range(len(results))]
    digests: dict[int, set] = {}
    for key, r in zip(keys, results):
        digests.setdefault(key, set()).add(r.digest)
    deterministic = all(len(d) == 1 and None not in d for d in digests.values())
    if not deterministic:
        problems.append("outputs differ between passes over the same inputs")
    edges = {key: r.edge_fapv for key, r in zip(keys, results)
             if r.edge_fapv is not None}
    edge = statistics.fmean(edges.values()) if edges else None

    report = {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": {"value": failed / attempted, "base": attempted,
                         "operation": workload.op_name},
        "problems": problems,
        "digests": {str(k): sorted(map(str, v)) for k, v in digests.items()},
        "pass_seconds": times,
        "edge_fapv": edge,
        "work_per_pass": workload.work_per_pass(inputs),
        "work_unit": workload.work_unit,
    }
    if not trace:
        report["_metrics"] = {
            "wall_s": statistics.median(times),
            "throughput": workload.work_per_pass(inputs) * len(times) / sum(times),
        }
        return report, None

    overhead = traced_s - times[0]
    report.update(traced_pass_seconds=traced_s, trace_overhead_s=overhead)
    metrics = {**tracer.totals(), **tracer.counters}
    if tracer.best_epoch_ratios:
        metrics["forecast_lstm.best_epoch_ratio"] = statistics.fmean(tracer.best_epoch_ratios)
    if edge is not None:
        metrics["pipeline.edge_fapv"] = edge
    metrics["trace_overhead_s"] = overhead
    metrics["trace.spans"] = len(tracer.spans)
    report["_metrics"] = metrics
    return report, tracer


if __name__ == "__main__":
    sys.exit(main())
