#!/usr/bin/env python3
"""Build ltpbench from source and run its workloads.

One workload (the last stdout line is the result object):

    python3 bench/ltpbench/run.py --workload p2p32-base --seed 1 \
        --seconds 30 --trace 0

Every workload, each traced, written to a results file plus a Chrome
trace (<out>.trace.json):

    python3 bench/ltpbench/run.py --seed 1 --out results.json

Add --smoke for one pass per workload at a tenth of the inputs with the
simulator's guard checkers armed (a quick check, not a measurement).

The ltpbench binary is compiled with bench/ltpbench/CMakeLists.txt into
<build-dir>/ltpbench (default build dir: .bench_build at the repository
root). Exits nonzero when the build fails, a run fails, or any check
fails. compare.py compares two results files.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"ltpbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def run_quiet(cmd):
    """Run a build step; show its output only when it fails."""
    try:
        proc = subprocess.run([str(c) for c in cmd], capture_output=True,
                              text=True)
    except OSError as e:
        fail(f"cannot run {cmd[0]}: {e}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail(f"build step failed: {' '.join(str(c) for c in cmd)}")


def build(build_dir):
    """Configure (once) and build; returns (executable, compile line)."""
    bdir = build_dir / "ltpbench"
    if not ((bdir / "build.ninja").exists() or (bdir / "Makefile").exists()):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", HERE, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=Release", *gen])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", bdir, "--target", "ltpbench", "-j", jobs])
    compile_line = None
    try:
        for entry in json.loads((bdir / "compile_commands.json").read_text()):
            if entry["file"].endswith("ltpbench.cc"):
                compile_line = entry["command"]
    except (OSError, ValueError, KeyError):
        pass
    return bdir / "ltpbench", compile_line


def git_head():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(exe, workload, args, trace, spans=None):
    """Run one workload in its own process; returns the parsed result."""
    cmd = [str(exe), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0"]
    if args.smoke:
        cmd.append("--smoke")
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    # Exit code 3: the run finished but a check failed; its result
    # still reports which.
    if proc.returncode not in (0, 3) or not lines:
        fail(f"{workload}: ltpbench exited with code {proc.returncode}")
    return json.loads(lines[-1])


def print_metrics(title, metrics):
    print(f"# {title}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")


def print_result(res):
    print(f"# workload {res['workload']}  seed {res['seed']}  "
          f"passes {res['passes']}  checks {res['attempted']} "
          f"failed {res['failed']}")
    for f in res["failures"]:
        print(f"  FAILED: {f}")
    print_metrics("end to end", res["end_to_end"])
    print_metrics("per layer", res["per_layer"])


def select(res, names):
    """The result's metrics named in BENCHMARK.json, in its order."""
    pool = {**res["end_to_end"], **res["per_layer"]}
    missing = [n for n in names if n not in pool]
    if missing:
        fail(f"result lacks metrics {missing}")
    return {n: pool[n] for n in names}


def assemble_trace(out_path, span_files):
    """Join the per-workload span files (one event per line)."""
    with open(out_path, "w") as out:
        out.write('{"displayTimeUnit":"ms","traceEvents":[')
        sep = "\n"
        for path in span_files:
            with open(path) as f:
                for line in f:
                    if line.strip():
                        out.write(sep + line.rstrip("\n"))
                        sep = ",\n"
            os.remove(path)
        out.write("\n]}\n")


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=workloads,
                    help="run one workload (default: all, traced)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="timed-pass budget per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="one workload: report per-layer (1) or "
                         "end-to-end (0) metrics")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", type=Path, help="results file (all workloads)")
    ap.add_argument("--build-dir", type=Path, default=ROOT / ".bench_build")
    args = ap.parse_args()

    exe, compile_line = build(args.build_dir.resolve())
    provenance = {
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "compile": compile_line,
        "git": git_head(),
    }
    for key, value in provenance.items():
        print(f"# {key}: {value}")

    if args.workload:
        trace = args.trace == 1
        res = run_workload(exe, args.workload, args, trace)
        print_result(res)
        section = "per_layer" if trace else "end_to_end"
        names = [m["name"] for m in spec[section]]
        print(json.dumps({"correct": res["correct"],
                          "attempted": res["attempted"],
                          "failed": res["failed"],
                          "metrics": select(res, names)}))
        return 0 if res["correct"] else 1

    results = {"provenance": provenance, "workloads": {}}
    span_files = []
    ok = True
    for w in workloads:
        spans = None
        if args.out:
            spans = args.build_dir.resolve() / f"spans-{w}.jsonl"
            span_files.append(spans)
        res = run_workload(exe, w, args, True, spans)
        print_result(res)
        ok &= res["correct"]
        results["workloads"][w] = res
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n")
        trace_path = Path(str(args.out) + ".trace.json")
        assemble_trace(trace_path, span_files)
        print(f"# wrote {args.out} and {trace_path}")
    print(f"# {'all checks passed' if ok else 'CHECKS FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
