"""Run the workloads one process each and print every metric by name and unit.

    python3 perfbench/report.py                     # every workload, seed 1
    python3 perfbench/report.py --trace 1           # per-layer metrics instead
    python3 perfbench/report.py --seeds 1 2 3 4 5 6 7 8 9 10 --out set1.json
    python3 perfbench/report.py --compare set1.json set2.json

With several seeds it prints each metric's median and its spread, the
distance between the first and third quartiles as a share of the median,
next to the bound from BENCHMARK.json. Every run lasts BENCHMARK.json's
run_seconds. --compare checks that two such sets agree on every end-to-end
metric of every workload: each set's spread within the metric's bound, and
the two medians apart by at most the bound, in either direction.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("denoise-64x64x31", "train-4x16x16x31", "gcs-24x24x220")


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def spread(values):
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(runs):
    """{metric: {median, unit, runs, spread, samples}} over a list of runs."""
    out = {}
    for name in runs[0][1]["metrics"]:
        values = [r[1]["metrics"][name]["value"] for r in runs]
        out[name] = {"median": statistics.median(values),
                     "unit": runs[0][1]["metrics"][name]["unit"],
                     "runs": len(values), "spread": spread(values),
                     "samples": sum(r[0]["samples"].get(name, 1) for r in runs),
                     "values": values}
    return out


def print_table(workload, summary, runs, bounds):
    attempted = sum(r[1]["attempted"] for r in runs)
    failed = sum(r[1]["failed"] for r in runs)
    print(f"\n== {workload}  ({len(runs)} run(s))")
    print(f"  {'metric':40s} {'median':>14s} {'unit':10s} {'samples':>7s} "
          f"{'spread':>7s} {'bound':>6s}")
    for name, s in summary.items():
        sp = "" if s["spread"] is None else f"{s['spread']:.3f}"
        bound = bounds.get(name)
        print(f"  {name:40s} {s['median']:14.6g} {s['unit']:10s} {s['samples']:7d} "
              f"{sp:>7s} {'' if bound is None else bound:>6}")
    print(f"  {'fail_frac':40s} {failed / attempted:14.6g} {'ratio':10s} {attempted:7d}")
    for rec, _ in runs:
        for f in rec["failures"]:
            print(f"  FAIL seed {rec['seed']}: {f}")


def compare(path_a, path_b, spec):
    a, b = json.loads(Path(path_a).read_text()), json.loads(Path(path_b).read_text())
    ok = True
    for workload in WORKLOADS:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            if name not in a.get(workload, {}) or name not in b.get(workload, {}):
                ok = False
                print(f"{workload:18s} {name:14s} missing from a set  FAIL")
                continue
            ma, mb = a[workload][name], b[workload][name]
            diff = (mb["median"] - ma["median"]) / ma["median"]
            spreads = [ma["spread"], mb["spread"]]
            bad = None in spreads or abs(diff) > bound or max(spreads) > bound
            ok &= not bad
            shown = " ".join("-" if x is None else f"{x:.3f}" for x in spreads)
            print(f"{workload:18s} {name:14s} median {ma['median']:.6g} -> {mb['median']:.6g} "
                  f"apart by {diff:+.3f}  spreads {shown}  bound {bound}  "
                  f"{'FAIL' if bad else 'ok'}")
    print("sets agree" if ok else "sets DISAGREE")
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", nargs="+", type=int, default=[1])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the summary as JSON here")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = p.parse_args(argv)
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result = {}
    for workload in WORKLOADS:
        runs = [run_one(workload, seed, spec["run_seconds"], args.trace) for seed in args.seeds]
        result[workload] = summarize(runs)
        print_table(workload, result[workload], runs, bounds)
        print(f"  machine: {json.dumps(runs[0][0]['machine'])}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
