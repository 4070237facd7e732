#!/usr/bin/env bash
# The benchmark's one command: builds the `divbench` package and runs it.
#
#   run.sh                     every workload, end-to-end + traced, result.json
#   run.sh --quick             the same as a <= 20 s smoke run (invalid for claims)
#   run.sh --check-repeat      two full sets of the same build, compared per bound
#   run.sh --record            also append result.json to results/history.jsonl
#   run.sh --workload NAME --seed N --seconds S --trace 0|1
#                              one workload process (the BENCHMARK.json contract)
#
# Everything it writes stays under this directory (out/, target/) or under
# CARGO_TARGET_DIR when that is set.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="$(realpath -m "${CARGO_TARGET_DIR:-$here/target}")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
mkdir -p "$here/out/tmp"
# Spill directories go to the system temp dir: keep that inside out/ too.
export TMPDIR="$here/out/tmp"
exec "$CARGO_TARGET_DIR/release/divbench" --home "$here" "$@"
