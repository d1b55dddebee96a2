#!/usr/bin/env python3
"""End-to-end benchmark runner (see README.md in this directory).

Builds the benchmark binary from the source tree, then runs it.

  run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
         [--json PATH]
      One workload in a fresh process. Its last stdout line is the result:
      {"correct", "attempted", "failed", "metrics"}; --trace 1 reports the
      per-layer metrics instead of the end-to-end ones.

  run.py --all [--runs R] [--seed N] [--seconds S] [--quick] [--json PATH]
      Every workload R times, seeds N .. N+R-1, each in a fresh traced
      process. Prints each metric's median and quartile spread across the
      runs; --json writes the combined record (every value, quartiles,
      provenance).

  run.py --compare A.json B.json
      Compares two --all records (A = before, B = after) under the
      directions and bounds in BENCHMARK.json: pass, regress or unresolved
      per (workload, end-to-end metric). Exits 1 on any regression or
      changed output.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; nothing is written elsewhere.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ["fig10_grid", "multiq_q256", "churn_spill", "knn_lossy"]
CHILD_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures (once) and builds the e2e binary; returns its path."""
    out = build_dir() / "e2e"
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B",
                          str(out), "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(out), "--target", "e2e",
                      "-j", jobs])
        for step in steps:
            # Build output goes to stderr: stdout carries only results.
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                if not (out / "e2e").exists():
                    shutil.rmtree(out, ignore_errors=True)
                sys.exit("e2e: build failed: " + " ".join(step))
    return out / "e2e"


def run_child(binary, workload, seed, seconds, trace, quick, json_path):
    """Runs one workload in a fresh process; returns (exit code, stdout)."""
    scratch = build_dir() / "scratch" / f"{os.getpid()}-{workload}-{seed}"
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}", f"--scratch={scratch}"]
    if quick:
        cmd.append("--quick")
    if json_path:
        cmd.append(f"--json={json_path}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"e2e: {workload} did not finish in {CHILD_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return proc.returncode, proc.stdout


def summarize(values):
    """Median, quartiles and quartile spread as the statistics module
    computes them (the 'exclusive' method)."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"samples": values, "q1": q1, "median": med, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def run_all(args):
    binary = build()
    tmp = build_dir() / "records"
    tmp.mkdir(parents=True, exist_ok=True)
    record = {"seed": args.seed, "runs": args.runs, "seconds": args.seconds,
              "quick": args.quick, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        runs = []
        for r in range(args.runs):
            seed = args.seed + r
            path = tmp / f"{os.getpid()}-{workload}-{seed}.json"
            code, _ = run_child(binary, workload, seed, args.seconds, 1,
                                args.quick, path)
            try:
                runs.append(json.loads(path.read_text()))
            except (OSError, ValueError):
                sys.exit(f"e2e: {workload} seed {seed} exited {code} "
                         "without a record")
            path.unlink()
            ok = ok and code == 0
            log(f"{workload} seed {seed}: exit {code}")
        record.setdefault("provenance", runs[0]["provenance"])
        w = {"seeds": [r["seed"] for r in runs],
             "outputs_digests": [r["outputs_digest"] for r in runs],
             "correct": all(r["correct"] for r in runs),
             "attempted": sum(r["attempted"] for r in runs),
             "failed": sum(r["failed"] for r in runs),
             "failures": [f for r in runs for f in r["failures"]],
             "end_to_end": {}, "per_layer": {}, "context": {},
             "breakdown": {}}
        for section in ("end_to_end", "per_layer", "context", "breakdown"):
            for name, m in runs[0][section].items():
                if not all(name in r[section] for r in runs):
                    continue  # e.g. a p90 some runs lack the samples for
                entry = {"unit": m["unit"]}
                entry.update(summarize([r[section][name]["value"]
                                        for r in runs]))
                if "n" in m:
                    entry["n"] = [r[section][name]["n"] for r in runs]
                w[section][name] = entry
        record["workloads"][workload] = w

    for workload, w in record["workloads"].items():
        print(f"{workload}: correct={w['correct']} attempted={w['attempted']} "
              f"failed={w['failed']}")
        for section in ("end_to_end", "per_layer"):
            for name, m in w[section].items():
                print(f"  {name:34s} {m['median']:14.6g} {m['unit']:10s} "
                      f"spread {100 * m['spread']:6.2f}%")
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n")
        log(f"wrote {args.json}")
    return 0 if ok else 1


def compare(path_a, path_b):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    bad = False
    print(f"{'workload':13s} {'metric':22s} {'A median':>12s} "
          f"{'B median':>12s} {'change':>8s} {'bound':>6s}  verdict")
    for workload in WORKLOADS:
        if workload not in a or workload not in b:
            continue
        wa, wb = a[workload], b[workload]
        same_seeds = wa["seeds"] == wb["seeds"]
        if same_seeds and wa["outputs_digests"] != wb["outputs_digests"]:
            print(f"{workload:13s} outputs differ for equal seeds")
            bad = True
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            ma, mb = wa["end_to_end"][name], wb["end_to_end"][name]
            sign = 1 if metric["better"] == "higher" else -1
            worse = sign * (ma["median"] - mb["median"]) / ma["median"]
            if max(ma["spread"], mb["spread"]) > bound:
                b_wins = (min(sign * x for x in mb["samples"]) >
                          max(sign * x for x in ma["samples"]))
                verdict = "pass" if b_wins else "unresolved"
            else:
                verdict = "regress" if worse > bound else "pass"
            bad = bad or verdict == "regress"
            print(f"{workload:13s} {name:22s} {ma['median']:12.6g} "
                  f"{mb['median']:12.6g} {-100 * worse:+7.2f}% "
                  f"{100 * bound:5.0f}%  {verdict}")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--json")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 1 if args.quick else 20
    if args.compare:
        return compare(*args.compare)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("one of --workload, --all or --compare is required")
    json_path = Path(args.json).resolve() if args.json else None
    code, out = run_child(build(), args.workload, args.seed, args.seconds,
                          args.trace, args.quick, json_path)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
