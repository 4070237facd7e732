#!/usr/bin/env bash
# Run a criterion bench group and record its medians as JSON — the repo's
# recorded perf-trajectory points.
#
# Usage: scripts/bench_snapshot.sh [bench] [output.json]
#
#   scripts/bench_snapshot.sh                  # key_pipeline -> BENCH_key_pipeline.json
#   scripts/bench_snapshot.sh serving          # serving      -> BENCH_serving.json
#
# Each snapshot records per-benchmark median iteration times in nanoseconds
# plus a fast-vs-slow speedup for every paired workload:
#
#   * key_pipeline pairs `keyvector` labels against their `rowkey` replicas
#     (vectorized key pipeline vs the pre-pipeline kernels);
#   * observability pairs `untraced` labels against their `traced`
#     counterparts (per-operator wall-clock tracing off vs on — the
#     "speedup" is the tracing overhead, expected close to 1.0);
#   * governance pairs `unguarded` labels against their `guarded`
#     counterparts (QueryGuard cancellation/deadline/budget checks off vs
#     fully armed — the "speedup" is the guard overhead, expected close
#     to 1.0);
#   * out_of_core pairs `inmemory` labels against their `spilled`
#     counterparts (unbudgeted execution vs hybrid hash operators squeezed
#     to an eighth of their input — the "speedup" is the spill overhead
#     factor), plus unpaired `file_scan/*` medians for the persistent
#     columnar format (full drain vs zone-map skip vs RAM baseline).
#
# Re-run after touching the measured modules and commit the refreshed JSON
# alongside the change.
set -euo pipefail
cd "$(dirname "$0")/.."

bench="${1:-key_pipeline}"

# The serving bench is not a criterion group: it drives a real TCP server
# with concurrent clients and emits the snapshot JSON itself (QPS and
# latency percentiles per workload mix — ad-hoc vs prepared vs mutating).
if [ "$bench" = serving ]; then
    out="${2:-BENCH_serving.json}"
    BENCH_RECORDED_AT="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
        cargo run --release --bin serving_bench >"$out"
    echo "wrote $out"
    exit 0
fi

case "$bench" in
key_pipeline)
    fast="keyvector"
    slow="rowkey"
    ;;
observability)
    fast="untraced"
    slow="traced"
    ;;
governance)
    fast="unguarded"
    slow="guarded"
    ;;
out_of_core)
    fast="inmemory"
    slow="spilled"
    ;;
*)
    echo "unknown bench '$bench' (expected key_pipeline, observability, governance or out_of_core)" >&2
    exit 1
    ;;
esac
out="${2:-BENCH_${bench}.json}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

cargo bench -p div-bench --bench "$bench" | tee "$tmp"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    -v cores="$(nproc 2>/dev/null || echo 1)" \
    -v bench="$bench" -v fast="$fast" -v slow="$slow" '
# Bench lines look like:  key_pipeline/string_join/keyvector/1000   28.54µs/iter
$NF ~ /\/iter$/ && NF == 2 {
    label = $1
    v = $2
    sub(/\/iter$/, "", v)
    mult = 1000000000
    if (v ~ /ns$/)      { mult = 1;       sub(/ns$/, "", v) }
    else if (v ~ /µs$/) { mult = 1000;    sub(/µs$/, "", v) }
    else if (v ~ /ms$/) { mult = 1000000; sub(/ms$/, "", v) }
    else                {                 sub(/s$/,  "", v) }
    ns[label] = v * mult
    order[n++] = label
}
END {
    printf "{\n"
    printf "  \"bench\": \"%s\",\n", bench
    printf "  \"recorded_at\": \"%s\",\n", date
    printf "  \"host_parallelism\": %s,\n", cores
    printf "  \"median_ns\": {\n"
    for (i = 0; i < n; i++) {
        printf "    \"%s\": %.0f%s\n", order[i], ns[order[i]], (i < n - 1) ? "," : ""
    }
    printf "  },\n"
    printf "  \"speedup_vs_%s\": {\n", slow
    m = 0
    for (i = 0; i < n; i++) {
        label = order[i]
        if (label !~ fast) continue
        other = label
        sub(fast, slow, other)
        if (other in ns && ns[label] > 0) {
            pair = label
            sub("/" fast, "", pair)
            lines[m++] = sprintf("    \"%s\": %.2f", pair, ns[other] / ns[label])
        }
    }
    for (i = 0; i < m; i++) printf "%s%s\n", lines[i], (i < m - 1) ? "," : ""
    printf "  }\n"
    printf "}\n"
}' "$tmp" > "$out"

echo "wrote $out"
