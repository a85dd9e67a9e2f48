package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestConcurrentTimingRace exercises the invariant documented on
// addHandleIO: per-view PhaseTimings fields are plain and owned by one
// goroutine, while cross-retrieval accumulation happens in the atomic obs
// counters. Concurrent retrievals under -race must neither trip the
// detector nor lose bytes: the process-wide real-byte counter advances by
// exactly the sum of the per-view totals.
func TestConcurrentTimingRace(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 24)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 3, RelTolerance: 1e-9, Chunks: 2}); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}

	realBefore := obs.NewCounter("canopus_core_io_real_bytes_total").Value()
	modeledBefore := obs.NewCounter("canopus_core_io_modeled_bytes_total").Value()

	const workers = 8
	views := make([]*View, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			views[i], errs[i] = r.Retrieve(context.Background(), 0)
		}(i)
	}
	wg.Wait()

	var sumReal, sumModeled int64
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("retrieve %d: %v", i, errs[i])
		}
		sumReal += views[i].Timings.IORealBytes
		sumModeled += views[i].Timings.IOBytes
	}
	if sumReal == 0 || sumModeled == 0 {
		t.Fatal("retrievals moved no bytes")
	}
	realDelta := obs.NewCounter("canopus_core_io_real_bytes_total").Value() - realBefore
	modeledDelta := obs.NewCounter("canopus_core_io_modeled_bytes_total").Value() - modeledBefore
	if realDelta != sumReal {
		t.Errorf("process-wide real bytes advanced %d, per-view sum %d", realDelta, sumReal)
	}
	if modeledDelta != sumModeled {
		t.Errorf("process-wide modeled bytes advanced %d, per-view sum %d", modeledDelta, sumModeled)
	}
}

// TestBaseRetrieveTouchesNoDeltaTier is the paper's core I/O claim stated
// as a request-attribution assertion: a base-only retrieve fetches from the
// fast tier only. The request's per-tier bill must show fast-tier reads
// (the metadata and base containers) and zero slow-tier reads — the delta
// containers beside the base are never touched. (Healthy storage reads no
// longer emit per-read spans — the per-tier counters carry this claim.)
func TestBaseRetrieveTouchesNoDeltaTier(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 24)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 3, RelTolerance: 1e-9}); err != nil {
		t.Fatal(err)
	}

	ctx, root := obs.Trace(context.Background(), "test.base_only")
	ctx, req, owned := obs.BeginRequest(ctx, "test.base_only")
	if !owned {
		t.Fatal("expected to own the request")
	}
	r, err := OpenReader(ctx, aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.Base(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rep := req.Report(nil)
	root.End()

	dump := root.Dump()
	var sawBase, sawDecompress bool
	dump.Walk(func(s obs.SpanDump) {
		switch s.Name {
		case "core.base":
			sawBase = true
		case "core.decompress":
			sawDecompress = true
		}
	})
	if !sawBase || !sawDecompress {
		t.Fatalf("span tree missing phases: base=%v decompress=%v", sawBase, sawDecompress)
	}
	var fast int64
	for tier, tc := range rep.Tiers {
		if tier == "lustre" {
			t.Errorf("base-only retrieve billed %d slow-tier reads (%d bytes), want none", tc.Reads, tc.Bytes)
			continue
		}
		fast += tc.Reads
	}
	if fast == 0 {
		t.Fatal("request billed no storage reads")
	}
	if v.Timings.IOBytes == 0 {
		t.Fatal("base view recorded no modeled IO")
	}
}

// TestRetrieveSpanTree checks the shape of a full retrieval's trace: the
// root covers the entry point's span (core.retrieve, or core.retrieve_step
// for a campaign step), which nests core.base plus one core.augment per
// refined level, each augment carrying a core.restore child.
func TestRetrieveSpanTree(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 24)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 3, RelTolerance: 1e-9}); err != nil {
		t.Fatal(err)
	}
	sw, m := newSeries(t, 3, 1)
	if _, err := sw.WriteStep(context.Background(), seriesField(m, 0)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		op   string
		read func(ctx context.Context) error
	}{
		{"core.retrieve", func(ctx context.Context) error {
			r, err := OpenReader(ctx, aio, "dpot")
			if err != nil {
				return err
			}
			_, err = r.Retrieve(ctx, 0)
			return err
		}},
		{"core.retrieve_step", func(ctx context.Context) error {
			sr, err := OpenSeriesReader(ctx, sw.aio, "dpot")
			if err != nil {
				return err
			}
			_, err = sr.RetrieveStep(ctx, 0, 0)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.op, func(t *testing.T) {
			ctx, root := obs.Trace(context.Background(), "test.retrieve")
			if err := tc.read(ctx); err != nil {
				t.Fatal(err)
			}
			root.End()

			counts := map[string]int{}
			root.Dump().Walk(func(s obs.SpanDump) { counts[s.Name]++ })
			if counts[tc.op] != 1 {
				t.Errorf("%s spans = %d, want 1", tc.op, counts[tc.op])
			}
			if counts["core.base"] != 1 {
				t.Errorf("core.base spans = %d, want 1", counts["core.base"])
			}
			if counts["core.augment"] != 2 {
				t.Errorf("core.augment spans = %d, want 2", counts["core.augment"])
			}
			if counts["core.restore"] != 2 {
				t.Errorf("core.restore spans = %d, want 2", counts["core.restore"])
			}
			if counts["adios.open"] == 0 {
				t.Error("no adios.open spans in retrieval trace")
			}
		})
	}
}
