#!/usr/bin/env bash
# Diff one figure/table bench's output against its committed golden.
#
#   $ tools/check_golden.sh <bench-binary> <golden-file>
#
# The golden_<bench> ctest cases run this. The benches are
# bit-deterministic, so the output must match byte for byte; on a
# mismatch the script prints the unified diff and exits 1. When a model
# change is intended, regenerate the goldens with tools/regen_goldens.sh
# (Release build) and commit them with the change.
set -euo pipefail

bench="$1"
golden="$2"

out="$(mktemp)"
trap 'rm -f "$out"' EXIT
"$bench" > "$out"
if ! diff -u "$golden" "$out"; then
    echo "error: $(basename "$bench") diverged from $golden" >&2
    exit 1
fi
