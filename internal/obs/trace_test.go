package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	s.SetAttr("k", "v")
	s.End()
	if c := s.Child("x"); c != nil {
		t.Fatal("nil span child should be nil")
	}
	if d := s.Duration(); d != 0 {
		t.Fatalf("nil span duration = %v", d)
	}
	ctx, sp := StartSpan(context.Background(), "orphan")
	if sp != nil {
		t.Fatal("StartSpan without a root should return a nil span")
	}
	if FromContext(ctx) != nil {
		t.Fatal("context should stay span-free")
	}
}

func TestTraceTreeAndRing(t *testing.T) {
	ResetTraces()
	ctx, root := Trace(context.Background(), "retrieve")
	root.SetAttr("name", "dpot")
	ctx2, base := StartSpan(ctx, "core.base")
	if FromContext(ctx2) != base {
		t.Fatal("child context should carry the child span")
	}
	fetch := base.Child("storage.get_range")
	fetch.SetAttr("tier", "tmpfs")
	fetch.End()
	base.End()
	_, aug := StartSpan(ctx, "core.augment")
	aug.End()
	root.End()

	traces := LastTraces(1)
	if len(traces) != 1 {
		t.Fatalf("ring has %d traces, want 1", len(traces))
	}
	d := traces[0]
	if d.Name != "retrieve" || d.Attrs["name"] != "dpot" {
		t.Fatalf("root dump = %+v", d)
	}
	if len(d.Children) != 2 || d.Children[0].Name != "core.base" || d.Children[1].Name != "core.augment" {
		t.Fatalf("children = %+v", d.Children)
	}
	if len(d.Children[0].Children) != 1 || d.Children[0].Children[0].Attrs["tier"] != "tmpfs" {
		t.Fatalf("grandchildren = %+v", d.Children[0].Children)
	}
	var names []string
	d.Walk(func(s SpanDump) { names = append(names, s.Name) })
	if len(names) != 4 {
		t.Fatalf("walk visited %v", names)
	}
	if _, err := json.Marshal(d); err != nil {
		t.Fatalf("dump does not marshal: %v", err)
	}
}

// TestConcurrentChildCreation is the span-tree acceptance test for the
// parallel delta-tile decode path: many goroutines hang children (and
// grandchildren) off one parent at once.
func TestConcurrentChildCreation(t *testing.T) {
	ResetTraces()
	_, root := Trace(context.Background(), "retrieve")
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c := root.Child(fmt.Sprintf("tile-%d-%d", w, i))
				c.SetAttr("worker", fmt.Sprint(w))
				gc := c.Child("decode")
				gc.End()
				c.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	d := LastTraces(1)[0]
	if len(d.Children) != workers*perWorker {
		t.Fatalf("root has %d children, want %d", len(d.Children), workers*perWorker)
	}
	for _, c := range d.Children {
		if len(c.Children) != 1 {
			t.Fatalf("child %s has %d children, want 1", c.Name, len(c.Children))
		}
	}
}

// TestDumpWhileTreeGrows snapshots an open trace while other goroutines are
// still adding spans — the /debug/trace path racing a live retrieval.
func TestDumpWhileTreeGrows(t *testing.T) {
	_, root := Trace(context.Background(), "live")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				root.Child("c").End()
			}
		}
	}()
	for i := 0; i < 100; i++ {
		d := root.Dump()
		if _, err := json.Marshal(d); err != nil {
			t.Fatalf("marshal: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	root.End()
}

// TestChildCapDropsAndCounts pins the per-span child cap: children past
// maxChildren are refused as nil no-op spans, and every refusal is counted
// on the parent's dump and in canopus_obs_spans_dropped_total.
func TestChildCapDropsAndCounts(t *testing.T) {
	_, root := Trace(context.Background(), "capped")
	before := metricSpansDropped.Value()
	const extra = 10
	var nils int
	for i := 0; i < maxChildren+extra; i++ {
		c := root.Child("c")
		if c == nil {
			nils++
		}
		c.Child("grandchild").End() // a dropped child stays a safe no-op
		c.End()
	}
	root.End()
	d := root.Dump()
	if len(d.Children) != maxChildren {
		t.Errorf("root kept %d children, want %d", len(d.Children), maxChildren)
	}
	if nils != extra || d.DroppedChildren != extra {
		t.Errorf("dropped: %d nil spans, dump reports %d, want %d", nils, d.DroppedChildren, extra)
	}
	if got := metricSpansDropped.Value() - before; got != extra {
		t.Errorf("canopus_obs_spans_dropped_total advanced %d, want %d", got, extra)
	}
}

func TestTraceRingBounded(t *testing.T) {
	ResetTraces()
	for i := 0; i < DefaultTraceRetention+10; i++ {
		_, r := Trace(context.Background(), fmt.Sprintf("t%d", i))
		r.End()
	}
	all := LastTraces(0)
	if len(all) != DefaultTraceRetention {
		t.Fatalf("ring retained %d, want %d", len(all), DefaultTraceRetention)
	}
	if all[0].Name != fmt.Sprintf("t%d", DefaultTraceRetention+9) {
		t.Fatalf("newest-first order violated: first is %s", all[0].Name)
	}
}

func TestSpanDurationMonotonic(t *testing.T) {
	_, root := Trace(context.Background(), "timed")
	time.Sleep(time.Millisecond)
	root.End()
	if root.Duration() < time.Millisecond {
		t.Fatalf("duration %v < 1ms", root.Duration())
	}
	end := root.Duration()
	root.End() // double End keeps the first end time
	if root.Duration() != end {
		t.Fatal("second End changed the duration")
	}
}
