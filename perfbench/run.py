"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload denoise-64x64x31 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
Set-up makes the inputs from the seed and runs one warm-up op; then ops run
back to back until --seconds of op time have passed (at least one op), each
checked after its clock stops. The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under --trace 0. Under --trace 1 the run adds a
GEMM probe, one untraced op and one traced op, and reports the per-layer
metrics instead. The line before it is a record with the machine, sample
counts, failure messages and fail_frac. Traced spans are written to
.bench_out/ in the checkout.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("HSDENOISE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# Fixed at 2 (fewer if the process may use fewer CPUs) so that results from
# machines with more cores stay comparable with the recorded baseline.
MAX_THREADS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """The hsdenoise package from this checkout's src/, nowhere else."""
    if not (SRC / "hsdenoise" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import hsdenoise
    from hsdenoise import cli, gcs, hsio, metrics, network, noise, qru, tensors, training
    if Path(hsdenoise.__file__).resolve().parent != SRC / "hsdenoise":
        raise SystemExit(f"error: imported hsdenoise from {hsdenoise.__file__}")
    return argparse.Namespace(cli=cli, gcs=gcs, hsio=hsio, metrics=metrics, network=network,
                              noise=noise, qru=qru, tensors=tensors, training=training)


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_op(op, collect, label, results):
    """One op, timed alone; its outputs are collected after the clock stops
    and appended to results as (label, outputs, error). Returns seconds."""
    t0 = time.perf_counter()
    try:
        op()
    except Exception:
        results.append((label, None, "raised " + traceback.format_exc(limit=3)))
        return time.perf_counter() - t0
    seconds = time.perf_counter() - t0
    try:
        results.append((label, collect(), None))
    except Exception:
        results.append((label, None, "outputs unreadable: " + traceback.format_exc(limit=3)))
    return seconds


def main(argv=None):
    args = parse_args(argv)
    threads = str(min(MAX_THREADS, len(os.sched_getaffinity(0))))
    for var in THREAD_VARS:
        os.environ[var] = threads
    hs = import_program()
    # Imported here, not at the top: numpy must load after the thread pinning.
    import probe
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, record = measure(hs, args, workdir, int(threads), probe, tracing, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    record["machine"] = probe.machine_record(ROOT, int(threads))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


def measure(hs, args, workdir, threads, probe, tracing, workloads):
    results = []
    t0 = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](hs, str(workdir), args.seed)
    warm_s = run_op(getattr(wl, "warm_up", wl.op), wl.collect, "warm-up", results)
    setup_s = time.perf_counter() - t0

    durations = []
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "warm_up_s": warm_s}
    if args.trace:
        rates = probe.gemm_rates(threads)
        untraced_s = run_op(wl.op, wl.collect, "untraced op", results)
        tracer = tracing.Tracer()
        tracer.install(hs)
        if hasattr(wl, "model"):
            tracer.instrument_model(wl.model)
        # The op's own glue (removing old outputs, silencing stdout) gets a
        # span too, so that the spans cover the whole op.
        for helper in ("_remove", "_quiet"):
            tracer.patch(workloads, helper, "bench.glue")

        def traced_op():
            with tracer.op_span(0):
                wl.op()

        try:
            traced_s = run_op(traced_op, wl.collect, "traced op", results)
        finally:
            tracer.unpatch_all()
        durations = [untraced_s, traced_s]
        metrics = tracing.per_layer_metrics(tracer.spans, 0, rates, untraced_s)
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        with open(out / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"fields": tracing.SPAN_FIELDS, "spans": tracer.spans}, fh)
    else:
        while not durations or sum(durations) < args.seconds:
            durations.append(run_op(wl.op, wl.collect, f"op {len(durations) + 1}", results))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # The references are set-up work, done last so that their memory stays
    # out of the peak above.
    t_ref = time.perf_counter()
    wl.reference()
    setup_s += time.perf_counter() - t_ref
    failures, oks = [], []
    for label, outputs, error in results:
        fails = [error] if error else wl.check(outputs)
        failures.extend(f"{label}: {f}" for f in fails)
        oks.append(not fails)
    if hasattr(wl, "check_run"):
        run_fails = wl.check_run()
        failures.extend(f"run: {f}" for f in run_fails)
        if run_fails:
            oks[-1] = False
    failed = oks.count(False)

    if not args.trace:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "op_s_p50": metric(statistics.median(durations), "s"),
            "voxels_per_s": metric(wl.voxels * len(durations) / sum(durations), "voxel/s"),
            "peak_rss_mb": metric(peak_rss_mb, "MiB"),
        }
    record.update({
        "op_s": durations,
        "samples": {"setup_s": 1, "op_s_p50": len(durations),
                    "voxels_per_s": len(durations), "peak_rss_mb": 1},
        "fail_frac": failed / len(oks),
        "failures": failures,
    })
    for key in ("losses", "first_grad_rel_err", "first_grad_fd_err"):
        if hasattr(wl, key):
            record[key] = getattr(wl, key)
    result = {"correct": failed == 0, "attempted": len(oks), "failed": failed,
              "metrics": metrics}
    return result, record


if __name__ == "__main__":
    sys.exit(main())
