package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[n-1-i] = float64(i + 1) // descending, so sorting matters
		}
		return v
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.90, 90, true},   // ranks 91..100 lie beyond: 10
		{99, 0.90, 90, false},   // rank ceil(89.1) = 90 leaves 9 beyond
		{1000, 0.99, 990, true}, // 10 beyond
		{999, 0.99, 990, false}, // rank 990 leaves 9 beyond
		{20, 0.50, 10, true},
		{5, 0.90, 5, false},
	}
	for _, c := range cases {
		got, ok := tailPercentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(n=%d, p=%g) = %g, %t; want %g, %t", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := tailPercentile(nil, 0.9); ok {
		t.Error("no samples must not be reportable")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
}

// TestSelfTimesAddUp checks the accounting identity the layer table rests
// on: self times over all spans sum to the roots' durations, with weights
// and over-attribution (a child longer than its parent) included.
func TestSelfTimesAddUp(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add(1, 0, "http", "server", at(0), at(10))
	core := tr.add(1, root, "core", "core", at(10), at(16))
	dec := tr.add(1, core, "decode", "compress", at(16), at(20))
	tr.weigh(dec, 0.5)
	tr.add(1, core, "restore", "delta", at(20), at(27)) // longer than what is left
	tr.add(2, 0, "write", "core", at(30), at(35))
	var total float64
	for _, s := range tr.selfMS() {
		total += s
	}
	if math.Abs(total-15) > 1e-9 {
		t.Fatalf("self times sum to %g ms, want the roots' 15 ms", total)
	}
	self := tr.selfMS()
	if want := 6 - 2 - 7.0; math.Abs(self[core-1]-want) > 1e-9 {
		t.Errorf("core self = %g, want %g", self[core-1], want)
	}
	if dropped := tr.add(3, -1, "lost", "core", at(40), at(41)); dropped != -1 || tr.dropped != 1 {
		t.Errorf("a span under a dropped parent must be dropped too")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables and BENCHMARK.json
// in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ","); got != "refactor,campaign,serve" {
		t.Errorf("workloads = %s", got)
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		if s := endToEnd[i]; m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("end_to_end[%d] = %s %s %s, program has %s %s %s", i, m.Name, m.Unit, m.Better, s.name, s.unit, s.better)
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if s := perLayer[i]; m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("per_layer[%d] = %s %s %s, program has %s %s %s", i, m.Name, m.Unit, m.Better, s.name, s.unit, s.better)
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that the outputs were correct and every metric appears with its
// unit in the JSON line.
func TestSmoke(t *testing.T) {
	for _, wl := range []string{"refactor", "campaign", "serve"} {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: wl, seed: 7, seconds: 0.3, trace: traced, size: tinySize}
			res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", wl, traced, err)
			}
			if !res.correct() || res.attempted < 1 {
				t.Fatalf("%s trace=%t: attempted %d, failed %d: %v", wl, traced, res.attempted, res.failed, res.failures)
			}
			var out bytes.Buffer
			if err := res.writeJSON(&out); err != nil {
				t.Fatalf("%s trace=%t: %v", wl, traced, err)
			}
			var line struct {
				Correct bool
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(out.Bytes(), &line); err != nil {
				t.Fatalf("%s trace=%t: %v", wl, traced, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", wl, traced, len(line.Metrics), len(want))
			}
			for _, s := range want {
				m, ok := line.Metrics[s.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s missing", wl, traced, s.name)
				case m.Unit != s.unit:
					t.Errorf("%s trace=%t: %s unit %q, want %q", wl, traced, s.name, m.Unit, s.unit)
				case !traced && !(m.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", wl, s.name, m.Value)
				}
			}
		}
	}
}
