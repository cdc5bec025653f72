#!/usr/bin/env bash
# Write the stats dumps of a fixed 87-run ltp_debug matrix, one file per
# configuration, so that two builds (or two environments) can be
# compared with `diff -r`.
#
#   $ tools/dump_matrix.sh <ltp_debug> <out-dir>
#
# Every run is at iterScale 0.3 on 32 nodes:
#   - 9 kernels x base (no predictor)                   <kernel>-base.txt
#   - 9 kernels x {ltp, ltp-global, last-pc, dsi}
#               x {active, passive}                     <kernel>-<pred>-<mode>.txt
#   - em3d and ocean with Passive LTP on a 2-sharded
#     adaptive mesh                  <kernel>-ltp-passive-mesh-adaptive-2.txt
#   - barnes and appbt x {ltp, dsi} Active on a DOR mesh
#                                         <kernel>-<pred>-active-mesh-dor.txt
#
# The environment passes through to every run, so the same script checks
# the observer-only contract (LTP_CHECK=all, LTP_SIM_THREADS=2, ...): the
# dumps must not change. Each run takes LTP_SIM_THREADS threads (default
# 1), so as many runs go at once as fill the cores without
# oversubscribing them. Exits 1 if any run fails.
set -euo pipefail

if [[ $# -ne 2 ]]; then
    echo "usage: $0 <ltp_debug> <out-dir>" >&2
    exit 2
fi
ltp_debug="$1"
out="$2"
threads="${LTP_SIM_THREADS:-1}"
[[ "$threads" =~ ^[1-9][0-9]*$ ]] || threads=1 # ltp_debug reports it
jobs_max=$(($(nproc) / threads))
((jobs_max >= 1)) || jobs_max=1
kernels=(tomcatv em3d moldyn ocean barnes raytrace appbt dsmc unstructured)

mkdir -p "$out"

# run_one <name> <ltp_debug args...>
run_one() {
    local name="$1"
    shift
    if ! "$ltp_debug" "$@" > "$out/$name.txt"; then
        echo "error: ltp_debug $* failed" >&2
        return 1
    fi
}

configs=()
for k in "${kernels[@]}"; do
    configs+=("$k-base $k 0.3 32")
    for p in ltp ltp-global last-pc dsi; do
        for m in active passive; do
            configs+=("$k-$p-$m $k 0.3 32 $p $m")
        done
    done
done
for k in em3d ocean; do
    configs+=("$k-ltp-passive-mesh-adaptive-2 $k 0.3 32 ltp passive mesh adaptive 2")
done
for k in barnes appbt; do
    for p in ltp dsi; do
        configs+=("$k-$p-active-mesh-dor $k 0.3 32 $p active mesh dor")
    done
done

fail=0
running=0
for c in "${configs[@]}"; do
    read -r -a args <<< "$c"
    run_one "${args[@]}" &
    running=$((running + 1))
    if ((running >= jobs_max)); then
        wait -n || fail=1
        running=$((running - 1))
    fi
done
while ((running > 0)); do
    wait -n || fail=1
    running=$((running - 1))
done
exit "$fail"
