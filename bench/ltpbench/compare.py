#!/usr/bin/env python3
"""Compare two ltpbench results files (written by run.py --out).

    python3 bench/ltpbench/compare.py A.json B.json

For every workload and end-to-end metric, prints A, B, the change from A
to B, and FAIL when B is worse than A by more than the metric's bound
in BENCHMARK.json. When both files used the same seed, the exact
(deterministic) metrics, the paper errors among them, must match to
the last digit. Both runs must have passed their own checks. Exits 1
on any failure.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        sys.exit(f"compare: cannot read {path}: {e}")


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    spec = load(ROOT / "BENCHMARK.json")
    a, b = load(argv[1]), load(argv[2])
    same_seed = a["provenance"]["seed"] == b["provenance"]["seed"]
    failures = 0

    def report(ok, line):
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {line}")

    if not same_seed:
        print(f"# seeds differ ({a['provenance']['seed']} vs "
              f"{b['provenance']['seed']}): exact metrics not compared")
    for w in (w["name"] for w in spec["workloads"]):
        ra, rb = a["workloads"].get(w), b["workloads"].get(w)
        if ra is None or rb is None:
            report(False, f"{w}: missing from {'A' if ra is None else 'B'}")
            continue
        for r, label in ((ra, "A"), (rb, "B")):
            report(r["correct"], f"{w}: {label} checks "
                   f"({r['failed']} of {r['attempted']} failed)")
        for m in spec["end_to_end"]:
            va = ra["end_to_end"][m["name"]]["value"]
            vb = rb["end_to_end"][m["name"]]["value"]
            change = (vb - va) / va if va else 0.0
            worse = change if m["better"] == "lower" else -change
            report(worse <= m["bound"],
                   f"{w:18s} {m['name']:14s} {va:14.6g} {vb:14.6g} "
                   f"{100 * change:+7.2f}%  (bound {100 * m['bound']:.0f}%, "
                   f"{m['better']} is better)")
        if same_seed:
            for name in ra["exact"]:
                va = ra["per_layer"][name]["value"]
                vb = rb["per_layer"].get(name, {}).get("value")
                if va != vb:
                    report(False, f"{w:18s} {name}: exact {va!r} vs {vb!r}")
    print(f"# {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
