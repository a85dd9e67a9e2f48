package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"syscall"

	"repro/internal/obs"
)

// spec names a metric the result reports. The end-to-end and per-layer
// lists are the ones BENCHMARK.json declares; TestMetricsMatchBenchmarkJSON
// keeps the two in step.
type spec struct {
	name, unit, better string
}

// endToEnd are the metrics a user of Canopus sees, measured with tracing off.
// Every workload reports every one of them (README.md says what each means
// on each workload).
var endToEnd = []spec{
	{"setup_s", "s", "lower"},
	{"write_p50_ms", "ms", "lower"},
	{"write_raw_mb_per_s", "MB/s", "higher"},
	{"write_modeled_io_ms", "ms", "lower"},
	{"stored_bytes_per_raw_byte", "ratio", "lower"},
	{"read_p50_ms", "ms", "lower"},
	{"reads_per_s", "1/s", "higher"},
	{"stream_first_view_p50_ms", "ms", "lower"},
	{"read_modeled_io_ms", "ms", "lower"},
	{"read_kb_per_read", "KiB", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// reportOnly are end-to-end figures printed in the report but kept out of
// the JSON result: tail percentiles exist only where enough samples lie
// beyond them, and error_rate is zero on a healthy run.
var reportOnly = []spec{
	{"write_p90_ms", "ms", "lower"},
	{"read_p90_ms", "ms", "lower"},
	{"read_p99_ms", "ms", "lower"},
	{"error_rate", "ratio", "lower"},
}

// perLayer are the traced run's metrics. A layer a workload never calls
// reports 0.
var perLayer = []spec{
	{"decimate.ms_per_write", "ms", "lower"},
	{"decimate.share_of_write", "ratio", "lower"},
	{"decimate.accept_ratio", "ratio", "higher"},
	{"delta.compute_ms_per_step", "ms", "lower"},
	{"delta.build_ms_per_write", "ms", "lower"},
	{"delta.restore_ms_per_read", "ms", "lower"},
	{"compress.encode_mb_per_s", "MB/s", "higher"},
	{"compress.bytes_per_value", "B", "lower"},
	{"compress.decode_mb_per_s", "MB/s", "higher"},
	{"compress.tile_hit_ratio", "ratio", "higher"},
	{"storage.put_ms_per_write", "ms", "lower"},
	{"storage.real_to_modeled_bytes", "ratio", "lower"},
	{"storage.fast_tier_read_share", "ratio", "higher"},
	{"adios.open_ms", "ms", "lower"},
	{"adios.page_hit_ratio", "ratio", "higher"},
	{"plan.modeled_kb_per_tolerance_read", "KiB", "lower"},
	{"core.retrieve_level_ms", "ms", "lower"},
	{"core.retrieve_tolerance_ms", "ms", "lower"},
	{"core.retrieve_region_ms", "ms", "lower"},
	{"core.stream_first_view_ms", "ms", "lower"},
	{"server.overhead_ms_per_read", "ms", "lower"},
	{"server.response_kb_per_read", "KiB", "lower"},
	{"bill.decompress_ms_per_read", "ms", "lower"},
	{"bill.restore_ms_per_read", "ms", "lower"},
	{"bill.io_ms_per_read", "ms", "lower"},
	{"bill.tile_cache_hits_per_read", "count", "higher"},
	{"bill.page_cache_hits_per_read", "count", "higher"},
	{"unattributed_share", "ratio", "lower"},
	{"trace_overhead_share", "ratio", "lower"},
}

// minTail is how many samples must lie beyond a tail percentile before the
// benchmark reports it.
const minTail = 10

// median returns the middle of vals (the mean of the two middle values for
// an even count), or NaN for no samples.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(vals)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the nearest-rank p-quantile of vals (0 < p < 1)
// and whether at least minTail samples lie beyond it. A percentile without
// that support is noise, so callers report it only when ok.
func tailPercentile(vals []float64, p float64) (float64, bool) {
	n := len(vals)
	if n == 0 || p <= 0 || p >= 1 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	return sortedCopy(vals)[rank-1], n-rank >= minTail
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

func sum(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// opStats collects one operation kind's samples.
type opStats struct {
	ms          []float64 // wall-clock latency per operation
	modeledIOMS []float64 // modeled storage time per operation
	modeledKiB  []float64 // modeled bytes per operation (reads)
	rawBytes    int64     // input bytes (writes)
	storedBytes int64     // bytes stored (writes)
}

// billSum totals the cost bills the program returns with each read.
type billSum struct {
	n                    int
	modeled, real        int64
	ioS, decS, resS      float64
	pageHits, pageMisses int64
	tileHits, tileMisses int64
}

func (s *billSum) add(c *obs.CostReport) {
	if c == nil {
		return
	}
	s.n++
	s.modeled += c.ModeledBytes
	s.real += c.RealBytes
	s.ioS += c.IOSeconds
	s.decS += c.DecompressSecs
	s.resS += c.RestoreSecs
	s.pageHits += c.CacheHits
	s.pageMisses += c.CacheMisses
	s.tileHits += c.TileCacheHits
	s.tileMisses += c.TileCacheMisses
}

// metric is one reported figure with the number of samples behind it.
type metric struct {
	name, unit string
	value      float64
	samples    int
	ok         bool // false: not reportable (too few samples beyond a tail)
	note       string
}

// result is a finished run.
type result struct {
	cfg       config
	host      host
	attempted int
	failed    int
	failures  []string
	e2e       []metric
	extra     []metric
	layer     []metric
	layerRows []layerRow
	bill      billSum
	spans     int
	dropped   int
}

func (r *result) correct() bool { return r.failed == 0 }

// jsonMetrics are the metrics the JSON line carries.
func (r *result) jsonMetrics() []metric {
	if r.cfg.trace {
		return r.layer
	}
	return r.e2e
}

// summarize turns the collected samples into the run's metrics.
func (b *bench) summarize() *result {
	r := &result{
		cfg: b.cfg, host: thisHost(),
		attempted: b.attempted, failed: b.failed, failures: b.failures,
		bill: b.bills,
	}
	w, rd := &b.writes, &b.reads
	writeS := sum(w.ms) / 1000
	readS := sum(rd.ms) / 1000
	r.e2e = []metric{
		{name: "setup_s", value: median(b.setupS), samples: len(b.setupS)},
		{name: "write_p50_ms", value: median(w.ms), samples: len(w.ms)},
		{name: "write_raw_mb_per_s", value: ratio(float64(w.rawBytes), writeS) / 1e6, samples: len(w.ms)},
		{name: "write_modeled_io_ms", value: mean(w.modeledIOMS), samples: len(w.modeledIOMS)},
		{name: "stored_bytes_per_raw_byte", value: ratio(float64(w.storedBytes), float64(w.rawBytes)), samples: len(w.ms)},
		{name: "read_p50_ms", value: median(rd.ms), samples: len(rd.ms)},
		{name: "reads_per_s", value: ratio(float64(len(rd.ms)), readS), samples: len(rd.ms)},
		{name: "stream_first_view_p50_ms", value: median(b.firstViewMS), samples: len(b.firstViewMS)},
		{name: "read_modeled_io_ms", value: mean(rd.modeledIOMS), samples: len(rd.modeledIOMS)},
		{name: "read_kb_per_read", value: mean(rd.modeledKiB), samples: len(rd.modeledKiB)},
		{name: "peak_rss_mb", value: peakRSSMiB(), samples: 1},
	}
	withUnits(r.e2e, endToEnd)
	tail := func(name string, vals []float64, p float64) metric {
		v, ok := tailPercentile(vals, p)
		m := metric{name: name, value: v, samples: len(vals), ok: ok}
		if !ok {
			m.note = fmt.Sprintf("needs %d samples beyond it", minTail)
		}
		return m
	}
	r.extra = []metric{
		tail("write_p90_ms", w.ms, 0.90),
		tail("read_p90_ms", rd.ms, 0.90),
		tail("read_p99_ms", rd.ms, 0.99),
		{name: "error_rate", value: ratio(float64(b.failed), float64(b.attempted)), samples: b.attempted, ok: true},
	}
	withUnits(r.extra, reportOnly)
	if b.cfg.trace {
		r.layer, r.layerRows = b.layerMetrics()
		withUnits(r.layer, perLayer)
		r.spans, r.dropped = len(b.tr.spans), b.tr.dropped
	}
	return r
}

// withUnits fills each metric's unit from its spec and marks plain metrics
// reportable. The lists are built in spec order.
func withUnits(ms []metric, specs []spec) {
	for i := range ms {
		if ms[i].name != specs[i].name {
			panic(fmt.Sprintf("perfbench: metric %q out of order, want %q", ms[i].name, specs[i].name))
		}
		ms[i].unit = specs[i].unit
		if ms[i].note == "" {
			ms[i].ok = true
		}
	}
}

// writeReport prints the human-readable report: host block, every metric
// with its unit and sample count, and in traced runs the layer table and
// the program's own bill.
func (r *result) writeReport(w io.Writer) {
	h := r.host
	fmt.Fprintf(w, "host: num_cpu=%d gomaxprocs=%d goarch=%s goos=%s go=%s steal_s=%.2f\n", h.NumCPU, h.GOMAXPROCS, h.GOARCH, h.GOOS, h.Go, h.StealS)
	fmt.Fprintf(w, "run: workload=%s seed=%d seconds=%g trace=%t load=closed loop, one caller\n",
		r.cfg.workload, r.cfg.seed, r.cfg.seconds, r.cfg.trace)
	fmt.Fprintf(w, "ops: attempted=%d failed=%d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "failure: %s\n", f)
	}
	row := func(m metric) {
		if !m.ok {
			fmt.Fprintf(w, "  %-36s %14s %-6s n=%d (%s)\n", m.name, "n/a", m.unit, m.samples, m.note)
			return
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
	}
	fmt.Fprintln(w, "end-to-end:")
	for _, m := range r.e2e {
		row(m)
	}
	for _, m := range r.extra {
		row(m)
	}
	if !r.cfg.trace {
		return
	}
	fmt.Fprintf(w, "layer self time (spans=%d dropped=%d):\n", r.spans, r.dropped)
	for _, lr := range r.layerRows {
		fmt.Fprintf(w, "  %-7s %-14s %12.3f ms %8.2f%%\n", lr.phase, lr.layer, lr.selfMS, 100*lr.share)
	}
	b := r.bill
	fmt.Fprintf(w, "program bill over %d reads: decompress_seconds=%.6g restore_seconds=%.6g io_seconds=%.6g tile_cache_hits=%d tile_cache_misses=%d page_cache_hits=%d page_cache_misses=%d modeled_bytes=%d real_bytes=%d\n",
		b.n, b.decS, b.resS, b.ioS, b.tileHits, b.tileMisses, b.pageHits, b.pageMisses, b.modeled, b.real)
	fmt.Fprintln(w, "per-layer:")
	for _, m := range r.layer {
		row(m)
	}
}
