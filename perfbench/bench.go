package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/adios"
	"repro/internal/bp"
	"repro/internal/compress"
	"repro/internal/decimate"
	"repro/internal/delta"
	"repro/internal/engine"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/storage"
)

// tmpfsBytes is the fast-tier capacity of every hierarchy the benchmark
// builds, canopus-serve's default.
const tmpfsBytes = 64 << 20

// bench collects one run's samples and, in traced runs, its spans.
type bench struct {
	cfg  config
	tr   *tracer
	pool *engine.Pool // replays use the program's default pool width

	setupS      []float64
	writes      opStats
	reads       opStats
	firstViewMS []float64
	bills       billSum

	attempted int
	failed    int
	failures  []string

	lay     layerCounts
	timedOp int
}

func newBench(cfg config) *bench {
	return &bench{
		cfg:  cfg,
		tr:   newTracer(),
		pool: engine.NewPool(0),
		lay:  layerCounts{coreMS: map[string][]float64{}},
	}
}

// traceNext reports whether the next timed operation is traced: in a
// traced run every other one is, so the untraced ones measure the tracing
// overhead in the same process.
func (b *bench) traceNext() bool {
	if !b.cfg.trace {
		return false
	}
	b.timedOp++
	return b.timedOp%2 == 0
}

// fail records a failed operation or check.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.failures) < 10 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// msBetween is the time from start to end in milliseconds.
func msBetween(start, end time.Time) float64 { return float64(end.Sub(start).Nanoseconds()) / 1e6 }

// recordRead adds one read's latency and the program's bill for it.
func (b *bench) recordRead(ms float64, cost *obs.CostReport) {
	b.reads.ms = append(b.reads.ms, ms)
	if cost != nil {
		b.reads.modeledIOMS = append(b.reads.modeledIOMS, 1000*cost.IOSeconds)
		b.reads.modeledKiB = append(b.reads.modeledKiB, float64(cost.ModeledBytes)/1024)
	}
	b.bills.add(cost)
}

// checkWithin fails unless got is within bound of want everywhere.
func (b *bench) checkWithin(what string, got, want []float64, bound float64) {
	if len(got) != len(want) {
		b.fail("%s: %d values, want %d", what, len(got), len(want))
		return
	}
	var worst float64
	for i := range got {
		worst = math.Max(worst, math.Abs(got[i]-want[i]))
	}
	if !(worst <= bound) {
		b.fail("%s: max error %g exceeds the view's bound %g", what, worst, bound)
	}
}

// keysWithPrefix lists the hierarchy's keys under prefix.
func keysWithPrefix(h *storage.Hierarchy, prefix string) []string {
	var out []string
	for _, k := range h.Keys() {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	return out
}

// newKeys lists the keys of h not in before.
func newKeys(h *storage.Hierarchy, before map[string]bool) []string {
	var out []string
	for _, k := range h.Keys() {
		if !before[k] {
			out = append(out, k)
		}
	}
	return out
}

func keySet(h *storage.Hierarchy) map[string]bool {
	set := map[string]bool{}
	for _, k := range h.Keys() {
		set[k] = true
	}
	return set
}

// product is one stored level container: its key and the payload variables
// (the base field or the delta tiles) a read of that level fetches.
type product struct {
	key  string
	vars []bp.VarInfo
}

// material is what a write replay derives from its input — level meshes,
// fields, mappings, deltas and their encodings — plus where the program
// stored each level. Read replays of the same data reuse it.
type material struct {
	meshes       []*mesh.Mesh
	fields       [][]float64
	restrictions []decimate.Restriction // series only
	maps         []delta.Mapping
	deltas       [][]float64
	chunks       int         // tiles per axis
	tiles        [][][]int32 // per delta level: the vertex ids of each spatial tile
	enc          [][][]byte  // per level: the delta's encoded tiles, or the one encoded base field
	codec        compress.Codec
	est          delta.Estimator
	prods        []product
}

func (m *material) levels() int { return len(m.meshes) }

// locate finds, among keys, the container holding each level's payload.
func (m *material) locate(ctx context.Context, h *storage.Hierarchy, keys []string) error {
	aio := adios.NewIO(h, nil)
	m.prods = make([]product, m.levels())
	dataVar := engine.Product{Kind: engine.KindData}.VarName()
	deltaPrefix := strings.TrimSuffix(engine.Product{Kind: engine.KindDelta}.VarName(), "0")
	for _, k := range keys {
		hd, err := aio.Open(ctx, k, 1)
		if err != nil {
			return err
		}
		for _, v := range hd.BP.Vars() {
			if v.Name != dataVar && !strings.HasPrefix(v.Name, deltaPrefix) {
				continue
			}
			if v.Level < 0 || v.Level >= m.levels() {
				return fmt.Errorf("%s: payload level %d out of range", k, v.Level)
			}
			m.prods[v.Level].key = k
			m.prods[v.Level].vars = append(m.prods[v.Level].vars, v)
		}
	}
	for l, p := range m.prods {
		if p.key == "" {
			return fmt.Errorf("no stored payload for level %d", l)
		}
		sort.Slice(p.vars, func(i, j int) bool { return p.vars[i].Offset < p.vars[j].Offset })
	}
	return nil
}
