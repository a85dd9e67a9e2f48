#!/usr/bin/env bash
# bench.sh — run the end-to-end pipeline benchmark and the ranged-read
# benchmark, emit the ranged-read results as BENCH_ranged.json, emit the
# chunked-codec results (intra-product parallel decode) as BENCH_codec.json,
# emit span-derived per-phase medians of the fixed observability workload
# as BENCH_obs.json, emit the error-target retrieval sweep (requested eps
# vs achieved error vs bytes moved, self-asserting) as BENCH_tolerance.json,
# emit the Zipfian static-vs-adaptive placement comparison as
# BENCH_placement.json, and emit the multi-tenant serving load bench as
# BENCH_serve.json.
#
# Usage: scripts/bench.sh [benchtime]
#   benchtime  value for go test -benchtime (default 1x for a quick sweep;
#              use e.g. 2s for stable numbers)
#
# BENCH_ranged.json carries, per benchmark case: ns/op, the bytes the
# retrieval fetched (modeled extents and real backend traffic), and the
# allocation footprint (peak working set scales with extents fetched, not
# container size — see DESIGN.md "Read path"). BENCH_obs.json carries, per
# trace span name, the occurrence count and median/total durations of a
# fixed refactor-and-retrieve workload (see DESIGN.md §8 "Observability").
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${1:-1x}"
OUT="BENCH_ranged.json"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench 'BenchmarkPipelineWriteRead|BenchmarkRangedRead' \
	-benchtime "$BENCHTIME" -benchmem . | tee "$RAW"

awk '
/^BenchmarkRangedRead\// {
	name = $1
	ns = ""; modeled = ""; real = ""; bytes = ""; allocs = ""; dns = ""
	for (i = 2; i <= NF; i++) {
		if ($(i) == "ns/op") ns = $(i-1)
		if ($(i) == "modeled-bytes/op") modeled = $(i-1)
		if ($(i) == "real-bytes/op") real = $(i-1)
		if ($(i) == "B/op") bytes = $(i-1)
		if ($(i) == "allocs/op") allocs = $(i-1)
		if ($(i) == "decompress-ns/op") dns = $(i-1)
	}
	printf "%s{\"name\":\"%s\",\"ns_per_op\":%s,\"modeled_bytes_per_op\":%s,\"real_bytes_per_op\":%s,\"alloc_bytes_per_op\":%s,\"allocs_per_op\":%s,\"decompress_ns_per_op\":%s}", sep, name, ns, modeled, real, bytes, allocs, dns == "" ? "null" : dns
	sep = ",\n "
}
BEGIN { printf "[" }
END { print "]" }
' "$RAW" > "$OUT"

echo "wrote $OUT"

# BENCH_codec.json: the chunked-codec micro-benchmarks (encode/decode of one
# large product through the v2 frame, per codec and worker count, against
# the unframed v1 baseline). The end-to-end ranged-read numbers the codec
# path is accountable for are in BENCH_ranged.json above.
CODEC_OUT="BENCH_codec.json"
CODEC_RAW="$(mktemp)"
trap 'rm -f "$RAW" "$CODEC_RAW"' EXIT

go test -run '^$' -bench 'BenchmarkChunked|BenchmarkV1Decode' \
	-benchtime "$BENCHTIME" -benchmem ./internal/compress | tee "$CODEC_RAW"

{
	printf '{"codec":'
	awk '
	/^Benchmark(Chunked|V1Decode)/ {
		name = $1
		ns = ""; mbs = ""; bytes = ""; allocs = ""
		for (i = 2; i <= NF; i++) {
			if ($(i) == "ns/op") ns = $(i-1)
			if ($(i) == "MB/s") mbs = $(i-1)
			if ($(i) == "B/op") bytes = $(i-1)
			if ($(i) == "allocs/op") allocs = $(i-1)
		}
		printf "%s{\"name\":\"%s\",\"ns_per_op\":%s,\"mb_per_s\":%s,\"alloc_bytes_per_op\":%s,\"allocs_per_op\":%s}", sep, name, ns, mbs == "" ? "null" : mbs, bytes, allocs
		sep = ",\n  "
	}
	BEGIN { printf "[" }
	END { printf "]" }
	' "$CODEC_RAW"
	printf '}\n'
} > "$CODEC_OUT"

echo "wrote $CODEC_OUT"

go run ./cmd/canopus-bench -obs-json BENCH_obs.json -scale quick

# BENCH_tolerance.json: RetrieveToTolerance sweep across every recorded
# per-level error bound plus midpoints; the run itself fails if any sweep
# point misses its requested eps (see DESIGN.md §11 "Retrieval planning").
go run ./cmd/canopus-bench -tolerance-sweep BENCH_tolerance.json -scale quick

# BENCH_placement.json: static LRU vs workload-adaptive placement on a
# Zipfian trace with the fast tier sized to 10% of the working set; the run
# fails unless the best adaptive policy's fast-tier hit rate beats static
# by >= 1.5x (see DESIGN.md §12 "Placement policy").
go run ./cmd/canopus-bench -placement-bench BENCH_placement.json -scale quick

# BENCH_serve.json: the multi-tenant serving load bench — ~1200 concurrent
# in-process clients against the sharded HTTP front end; the run fails
# unless uncapped tenants see zero failures, the capped tenant is throttled
# with well-formed 429s, and p99 latency is under target (see DESIGN.md
# §15 "Serving Canopus").
go run ./cmd/canopus-bench -serve-bench BENCH_serve.json -scale quick
