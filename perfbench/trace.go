package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one traced call: a program call the workload made (an operation's
// root, or the in-process core call paired with an HTTP request), or a
// layer call the traced run replays on the operation's data. Replayed spans
// run right after the operation they decompose and name it as their parent,
// so their durations stand in for parts of the operation the program does
// not expose. Weight is the share of a replayed call the operation actually
// paid (below 1 where a cache hit skipped the work).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Weight float64 `json:"weight"`
}

func (s *span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// attributedMS is the part of the span charged to its parent.
func (s *span) attributedMS() float64 { return s.ms() * s.Weight }

// maxSpans bounds the in-memory span buffer; spans beyond it are counted,
// not kept.
const maxSpans = 1 << 20

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0      time.Time
	spans   []span
	dropped int
	ops     int
	setup   map[int]bool // operations made during set-up
}

func newTracer() *tracer { return &tracer{t0: time.Now(), setup: map[int]bool{}} }

// newOp starts a new operation id for a timed operation.
func (t *tracer) newOp() int {
	t.ops++
	return t.ops
}

// newSetupOp starts a new operation id for a set-up operation. Set-up
// operations get their own layer table.
func (t *tracer) newSetupOp() int {
	op := t.newOp()
	t.setup[op] = true
	return op
}

// add records a finished span and returns its id. parent 0 makes a root;
// a negative parent (a dropped span) drops this span too, so a lost parent
// never turns its children into roots.
func (t *tracer) add(op, parent int, name, layer string, start, end time.Time) int {
	if parent < 0 || len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name, Layer: layer,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Weight: 1,
	})
	return id
}

// call runs fn inside a span and returns the span id and fn's duration.
func (t *tracer) call(op, parent int, name, layer string, fn func() error) (int, float64, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	return t.add(op, parent, name, layer, start, end), end.Sub(start).Seconds(), err
}

// weigh sets the share of span id its parent paid for.
func (t *tracer) weigh(id int, w float64) {
	if id > 0 {
		t.spans[id-1].Weight = w
	}
}

// selfMS returns each span's self time: its attributed duration minus the
// attributed durations of its children. Summed over all spans this equals
// the summed duration of the roots, so layer self times plus the
// unattributed remainder add up to the traced end-to-end wall time.
func (t *tracer) selfMS() []float64 {
	self := make([]float64, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		self[i] += s.attributedMS()
		if s.Parent > 0 {
			self[s.Parent-1] -= s.attributedMS()
		}
	}
	return self
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerRow is one line of the traced run's layer tables.
type layerRow struct {
	phase  string // "timed" or "set-up"
	layer  string
	selfMS float64
	share  float64
}

// layerOrder lists the layers in request order. "core" spans are the
// program calls themselves; their self time is the part no replayed layer
// call accounts for, reported as unattributed.
var layerOrder = []string{"server", "core", "adios", "storage", "compress", "delta", "decimate"}

// layerCounts are the traced run's counts, recorded where the replayed work
// happens.
type layerCounts struct {
	writeOps  int     // traced write operations (writes, series set-ups, steps)
	writeMS   float64 // their summed end-to-end wall time
	readOps   int     // traced read operations
	collapses int64   // decimate: edge collapses performed
	rejected  int64   // decimate: collapses the guards refused
	encValues int64   // compress: values encoded
	encBytes  int64   // compress: encoded bytes
	encS      float64 // compress: encode seconds
	decValues int64   // compress: values decoded
	decS      float64 // compress: decode seconds
	fastBytes int64   // storage: payload bytes read from the fast tier
	readBytes int64   // storage: payload bytes read from any tier
	tolReads  int     // plan: tolerance reads
	tolKiB    float64 // plan: modeled KiB those reads touched
	httpReads int     // server: traced requests
	respBytes int64   // server: response body bytes
	coreMS    map[string][]float64
	// Primary operations split by whether they were traced, for the
	// tracing overhead.
	tracedMS, plainMS []float64
}

// layerMetrics derives the per-layer metrics from the spans and counts.
func (b *bench) layerMetrics() ([]metric, []layerRow) {
	t, lc := b.tr, &b.lay
	self := t.selfMS()
	// Layer self times per phase; the timed phase's are the workload's.
	byLayer := map[bool]map[string]float64{false: {}, true: {}}
	rootMS := map[bool]float64{}
	byName := map[string]float64{}
	count := map[string]int{}
	for i := range t.spans {
		s := &t.spans[i]
		setup := t.setup[s.Op]
		byLayer[setup][s.Layer] += self[i]
		byName[s.Name] += s.attributedMS()
		count[s.Name]++
		if s.Parent == 0 {
			rootMS[setup] += s.ms()
		}
	}
	var rows []layerRow
	for _, setup := range []bool{false, true} {
		phase := "timed"
		if setup {
			phase = "set-up"
		}
		if rootMS[setup] == 0 {
			continue
		}
		for _, l := range layerOrder {
			name := l
			if l == "core" {
				name = "unattributed"
			}
			rows = append(rows, layerRow{phase, name, byLayer[setup][l], ratio(byLayer[setup][l], rootMS[setup])})
		}
		rows = append(rows, layerRow{phase, "total (e2e)", rootMS[setup], 1})
	}

	nW, nR := float64(lc.writeOps), float64(lc.readOps)
	decimateMS := byName["decimate.Decimate"] + byName["decimate.Restriction.ApplyInto"]
	bs := &b.bills
	perRead := func(v float64) float64 { return ratio(v, float64(bs.n)) }
	overhead := 0.0
	if len(lc.tracedMS) > 0 && len(lc.plainMS) > 0 {
		overhead = median(lc.tracedMS)/median(lc.plainMS) - 1
	}
	ms := []metric{
		{name: "decimate.ms_per_write", value: ratio(decimateMS, nW), samples: lc.writeOps},
		{name: "decimate.share_of_write", value: ratio(decimateMS, lc.writeMS), samples: lc.writeOps},
		{name: "decimate.accept_ratio", value: ratio(float64(lc.collapses), float64(lc.collapses+lc.rejected)), samples: count["decimate.Decimate"]},
		{name: "delta.compute_ms_per_step", value: ratio(byName["delta.ComputeInto"], nW), samples: lc.writeOps},
		{name: "delta.build_ms_per_write", value: ratio(byName["delta.Build"], nW), samples: lc.writeOps},
		{name: "delta.restore_ms_per_read", value: ratio(byName["delta.RestoreInto"], nR), samples: lc.readOps},
		{name: "compress.encode_mb_per_s", value: ratio(float64(8*lc.encValues), lc.encS) / 1e6, samples: count["compress.ChunkedEncode"]},
		{name: "compress.bytes_per_value", value: ratio(float64(lc.encBytes), float64(lc.encValues)), samples: count["compress.ChunkedEncode"]},
		{name: "compress.decode_mb_per_s", value: ratio(float64(8*lc.decValues), lc.decS) / 1e6, samples: count["compress.ChunkedDecodeInto"]},
		{name: "compress.tile_hit_ratio", value: ratio(float64(bs.tileHits), float64(bs.tileHits+bs.tileMisses)), samples: bs.n},
		{name: "storage.put_ms_per_write", value: ratio(byName["storage.Hierarchy.Put"], nW), samples: lc.writeOps},
		{name: "storage.real_to_modeled_bytes", value: ratio(float64(bs.real), float64(bs.modeled)), samples: bs.n},
		{name: "storage.fast_tier_read_share", value: ratio(float64(lc.fastBytes), float64(lc.readBytes)), samples: lc.readOps},
		{name: "adios.open_ms", value: ratio(byName["adios.IO.Open"], float64(count["adios.IO.Open"])), samples: count["adios.IO.Open"]},
		{name: "adios.page_hit_ratio", value: ratio(float64(bs.pageHits), float64(bs.pageHits+bs.pageMisses)), samples: bs.n},
		{name: "plan.modeled_kb_per_tolerance_read", value: ratio(lc.tolKiB, float64(lc.tolReads)), samples: lc.tolReads},
		classMean(lc, "core.retrieve_level_ms", "level"),
		classMean(lc, "core.retrieve_tolerance_ms", "tolerance"),
		classMean(lc, "core.retrieve_region_ms", "region"),
		classMean(lc, "core.stream_first_view_ms", "first_view"),
		{name: "server.overhead_ms_per_read", value: ratio(byLayer[false]["server"], float64(lc.httpReads)), samples: lc.httpReads},
		{name: "server.response_kb_per_read", value: ratio(float64(lc.respBytes)/1024, float64(lc.httpReads)), samples: lc.httpReads},
		{name: "bill.decompress_ms_per_read", value: perRead(1000 * bs.decS), samples: bs.n},
		{name: "bill.restore_ms_per_read", value: perRead(1000 * bs.resS), samples: bs.n},
		{name: "bill.io_ms_per_read", value: perRead(1000 * bs.ioS), samples: bs.n},
		{name: "bill.tile_cache_hits_per_read", value: perRead(float64(bs.tileHits)), samples: bs.n},
		{name: "bill.page_cache_hits_per_read", value: perRead(float64(bs.pageHits)), samples: bs.n},
		{name: "unattributed_share", value: ratio(byLayer[false]["core"], rootMS[false]), samples: len(t.spans)},
		{name: "trace_overhead_share", value: overhead, samples: len(lc.tracedMS)},
	}
	return ms, rows
}

// classMean is the mean in-process latency of one read class.
func classMean(lc *layerCounts, name, class string) metric {
	v := lc.coreMS[class]
	return metric{name: name, value: ratio(sum(v), float64(len(v))), samples: len(v)}
}
