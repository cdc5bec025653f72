#!/usr/bin/env bash
# Regenerate the committed golden outputs of the figure/table/ablation
# benches.
#
#   $ tools/regen_goldens.sh [build-dir] [output-dir]
#
# Defaults: build/ and bench/golden/. The benches are bit-deterministic
# (no wall-clock content), so these files only change when a change to
# the code changes simulation behavior — which is exactly what the
# golden_<bench> ctest cases (tools/check_golden.sh) diff for. Rerun
# this script (Release build!) and commit the result whenever such a
# change is intentional.
set -euo pipefail

build_dir="${1:-build}"
out_dir="${2:-bench/golden}"

benches=(
    bench_ablation
    bench_fig6_accuracy
    bench_fig7_signature
    bench_fig8_global
    bench_fig9_speedup
    bench_table3_storage
    bench_table4_timeliness
)

mkdir -p "$out_dir"
for b in "${benches[@]}"; do
    if [[ ! -x "$build_dir/$b" ]]; then
        echo "error: $build_dir/$b not built (cmake --build $build_dir)" >&2
        exit 1
    fi
    echo "running $b ..."
    "$build_dir/$b" > "$out_dir/$b.txt"
done
echo "golden outputs written to $out_dir/"
