"""drgame benchmark: one workload, measured from outside the library.

    python3 bench/run.py --workload mc-lsmc|lattice-game|cli-artifacts|all
                         [--seed N] [--seconds S] [--trace 0|1] [--size full|smoke]

Run from the root of a source checkout; ``drgame`` is imported from its
``src/`` directory and nowhere else.  BLAS threads are capped at the number
of usable cores.  Set-up (a fresh interpreter importing numpy, scipy and
drgame, plus building the workload's inputs from the seed) is repeated five
times and its median is ``setup_s``.  Iterations then run back to back until
the next one would end after ``--seconds``; each is gated for correctness
after its timed part.  With ``--trace 0`` the metrics are the end-to-end
ones of BENCHMARK.json; with ``--trace 1`` iterations alternate between
untraced and traced, and the metrics are the per-layer ones.  The last line
of standard output is the JSON result; a fuller record with the environment
and the raw samples goes to ``.bench_out/``, and the traced run's spans to
``.bench_out/trace-<workload>-seed<n>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
META = json.loads((Path(__file__).parent / "meta.json").read_text())
SETUP_REPEATS = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_CHECK = "import sys; sys.path.insert(0, sys.argv[1]); import numpy, scipy, drgame"


def cap_blas_threads():
    """Limit BLAS/OpenMP pools to the usable cores; must precede numpy's import."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        cur = os.environ.get(var, "")
        keep = cur.isdigit() and 0 < int(cur) < nproc
        os.environ[var] = cur if keep else str(nproc)
    return nproc, int(os.environ[BLAS_VARS[0]])


def span_of(metric):
    """Span name whose total time a ``*_s`` per-layer metric reports."""
    if "_s." in metric:
        return metric.replace("_s.", ".", 1)
    return metric[:-2] if metric.endswith("_s") else None


def attempt(fn, *args):
    """Run one gated step; an exception is a failed operation, not a crash."""
    try:
        return fn(*args), None
    except Exception:  # noqa: BLE001 - counted and reported, the run goes on
        traceback.print_exc(file=sys.stderr)
        return None, traceback.format_exc(limit=1).strip().splitlines()[-1]


def measure(wl, inp, seconds, trace, work, per_layer):
    """Iterate until the next iteration, with its gates, would end past the deadline."""
    tracer, null = Tracer(), NullTracer()
    deadline = time.perf_counter() + seconds
    iters, cycles = [], []
    while True:
        cycle_start = time.perf_counter()
        traced = trace and len(iters) % 2 == 1
        tr = tracer if traced else null
        it_dir = work / f"it{len(iters)}"
        it_dir.mkdir()
        if traced and hasattr(wl, "instrument"):
            wl.instrument(tr)
        root = len(tracer.spans)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with tr.span("iteration"):
                out, error = attempt(wl.run, inp, tr, it_dir)
        finally:
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            tracer.close()
        rec = {"wall": wall, "cpu": cpu, "traced": traced, "failures": [error]}
        if error is None:
            fails, error = attempt(wl.check, inp, out, it_dir)
            rec["failures"] = fails if error is None else [error]
        if traced and error is None:
            totals = tracer.totals(root)
            extra, error = attempt(wl.layer_metrics, inp, out, totals, it_dir)
            if error is None:
                spans = {m: totals.get(span_of(m), 0.0) for m in per_layer if span_of(m)}
                rec["layers"], rec["root"] = {**spans, **extra}, root
            else:
                rec["failures"].append(error)
        del out
        shutil.rmtree(it_dir)
        iters.append(rec)
        cycles.append(time.perf_counter() - cycle_start)
        if len(iters) >= (2 if trace else 1) \
                and time.perf_counter() + statistics.median(cycles) > deadline:
            return iters, tracer


def untraced_frac(tracer, root):
    """Share of an iteration outside every library call.

    The iteration span and the batch runner's ``cli.run.*`` spans are
    containers: their self time is code that no wrapped layer covers.
    """
    self_t = tracer.self_times()
    spans = tracer.spans
    inside = self_t[root] + sum(
        self_t[i] for i, s in enumerate(spans)
        if s.parent == root and s.name.startswith("cli.run."))
    return inside / (spans[root].end - spans[root].start)


def environment(nproc, blas, np_mod, scipy_mod, sizes):
    return {"python": platform.python_version(), "numpy": np_mod.__version__,
            "scipy": scipy_mod.__version__, "nproc": nproc,
            "blas_threads": blas, "machine": platform.machine(), "sizes": sizes}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [w["name"] for w in spec["workloads"]]
    ap.add_argument("--workload", required=True, choices=names + ["all"],
                    help="'all' runs every workload, each in its own process")
    ap.add_argument("--seed", type=int, default=META["seeds"]["default"])
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)

    if not (SRC / "drgame" / "__init__.py").is_file():
        print(f"error: no drgame sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, *argv,
                                 "--workload", name]).returncode for name in names]
        return max(codes)
    nproc, blas = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import workloads

    if not Path(workloads.game.__file__).resolve().is_relative_to(SRC):
        print("error: drgame was not imported from this checkout", file=sys.stderr)
        return 2
    per_layer = [m["name"] for m in spec["per_layer"]]
    wl = workloads.WORKLOADS[args.workload]

    setup_samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_CHECK, str(SRC)], check=True)
        inp = wl.setup(args.seed, args.size)
        setup_samples.append(time.perf_counter() - t0)

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        iters, tracer = measure(wl, inp, args.seconds, bool(args.trace), work,
                                per_layer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = [r["wall"] for r in iters]
    failed = sum(1 for r in iters if r["failures"])
    values = {
        "setup_s": statistics.median(setup_samples),
        "solve_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wanted = spec["end_to_end"]
    if args.trace:
        traced = [r for r in iters if "layers" in r]
        plain = [r for r in iters if not r["traced"]]
        values = {m: statistics.median(r["layers"].get(m, 0.0) for r in traced)
                  for m in per_layer} if traced else {}
        values["bench.cpu_s"] = statistics.median(r["cpu"] for r in plain)
        values["bench.untraced_frac"] = statistics.median(
            untraced_frac(tracer, r["root"]) for r in traced) if traced else 1.0
        # Each traced iteration against the untraced ones around it, so a
        # drift of machine speed during the run cancels.
        values["bench.trace_overhead_frac"] = statistics.median(
            r["wall"] / statistics.mean(iters[j]["wall"] for j in (i - 1, i + 1)
                                        if j < len(iters)) - 1.0
            for i, r in enumerate(iters) if r["traced"])
        wanted = spec["per_layer"]
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    result = {"correct": failed == 0, "attempted": len(iters), "failed": failed,
              "metrics": metrics}

    env = environment(nproc, blas, numpy, scipy, workloads.SIZES[args.workload][args.size])
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "setup_samples_s": setup_samples, "iterations": [
                  {k: v for k, v in r.items() if k != "root"} for r in iters],
              "result": result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("env " + json.dumps(env))
    for r in iters:
        for msg in r["failures"]:
            print(f"FAILED: {msg}")
    if not args.trace:
        print(f"{args.workload} seed {args.seed}: "
              f"setup_s {values['setup_s']:.4f} s (median of {SETUP_REPEATS}), "
              f"solve_s {values['solve_s']:.4f} s (median of {len(walls)}), "
              f"peak_rss_mb {values['peak_rss_mb']:.1f} MiB, "
              f"fail_frac {failed / len(iters):.4g} ratio ({failed}/{len(iters)})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
