package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/adios"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/storage"
)

// runRefactor is the paper's one-shot refactoring: core.Write of
// independent XGC1 snapshots, each into a fresh Titan-like hierarchy,
// followed by an analyst's first look — the first progressive view and one
// full-accuracy read, checked against the input. Decimation dominates.
func runRefactor(ctx context.Context, b *bench) error {
	sz := b.cfg.size
	opts := core.Options{Levels: sz.levels, Chunks: sz.chunks, Codec: "zfp"}
	snapshot := func(i int64) *core.Dataset {
		cfg := sim.XGC1Config{Rings: sz.rings, Segments: sz.segments, Seed: b.cfg.seed*1_000_003 + i}
		return sim.XGC1(cfg).Dataset
	}
	// Set-up is a warm-up refactor-and-read; the snapshot is generated
	// before the clock starts.
	for i := 0; i < sz.setups; i++ {
		ds := snapshot(-1 - int64(i))
		start := time.Now()
		if err := b.refactorOnce(ctx, ds, opts, false, false); err != nil {
			return err
		}
		b.setupS = append(b.setupS, time.Since(start).Seconds())
	}
	deadline := time.Now().Add(time.Duration(b.cfg.seconds * float64(time.Second)))
	for i := int64(0); time.Now().Before(deadline); i++ {
		ds := snapshot(i)
		if err := b.refactorOnce(ctx, ds, opts, true, b.traceNext()); err != nil {
			return err
		}
	}
	return nil
}

// lookers is how many analysts take a first look at each refactoring; more
// than one gives the read metrics enough samples.
const lookers = 3

// refactorOnce writes ds into a fresh hierarchy, then lets each analyst take
// a first look. record keeps the samples; traced replays each operation's
// layer calls.
func (b *bench) refactorOnce(ctx context.Context, ds *core.Dataset, opts core.Options, record, traced bool) error {
	h := storage.TitanTwoTier(tmpfsBytes)
	aio := adios.NewIO(h, nil)

	b.attempted++
	start := time.Now()
	rep, err := core.Write(ctx, aio, ds, opts)
	end := time.Now()
	if err != nil {
		b.fail("write %s: %v", ds.Name, err)
		return nil
	}
	ms := msBetween(start, end)
	if record {
		b.writes.ms = append(b.writes.ms, ms)
		b.writes.rawBytes += rep.RawBytes
		b.writes.storedBytes += rep.StoredBytes()
		b.writes.modeledIOMS = append(b.writes.modeledIOMS, 1000*rep.Timings.IOSeconds)
	}
	var mat *material
	if traced {
		op := b.tr.newOp()
		root := b.tr.add(op, 0, "core.Write", "core", start, end)
		b.lay.writeOps++
		b.lay.writeMS += ms
		b.lay.tracedMS = append(b.lay.tracedMS, ms)
		if mat, err = b.replayWrite(ctx, op, root, ds, opts, h, keysWithPrefix(h, ds.Name+"/")); err != nil {
			return fmt.Errorf("replay write: %w", err)
		}
	} else if record && b.cfg.trace {
		b.lay.plainMS = append(b.lay.plainMS, ms)
	}
	rio := adios.NewIO(h, nil)
	for i := 0; i < lookers; i++ {
		if err := b.firstLook(ctx, aio, rio, ds, rep, mat, record, traced); err != nil {
			return err
		}
	}
	return nil
}

// firstLook is one analyst's first look at a fresh refactoring: open a
// reader, take the first view of a stream, then read at full accuracy.
func (b *bench) firstLook(ctx context.Context, aio, rio *adios.IO, ds *core.Dataset, rep *core.WriteReport, mat *material, record, traced bool) error {
	base := rep.Levels - 1

	// First view: open the campaign and subscribe to a stream refining to
	// full accuracy; the base arrives first. The rest of the stream is
	// cancelled.
	b.attempted++
	start := time.Now()
	rd, err := core.OpenReader(ctx, aio, ds.Name)
	if err != nil {
		b.fail("open %s: %v", ds.Name, err)
		return nil
	}
	sctx, cancel := context.WithCancel(ctx)
	ch, err := rd.Subscribe(sctx, rep.Bounds[0])
	if err != nil {
		cancel()
		b.fail("subscribe %s: %v", ds.Name, err)
		return nil
	}
	first, ok := <-ch
	end := time.Now()
	cancel()
	for range ch {
	}
	switch {
	case !ok:
		b.fail("subscribe %s: stream closed before its first view", ds.Name)
	case first.Level != base:
		b.fail("subscribe %s: first view at level %d, want the base %d", ds.Name, first.Level, base)
	default:
		fv := msBetween(start, end)
		if record {
			b.firstViewMS = append(b.firstViewMS, fv)
		}
		if traced {
			op := b.tr.newOp()
			root := b.tr.add(op, 0, "core.Reader.Subscribe", "core", start, end)
			b.lay.coreMS["first_view"] = append(b.lay.coreMS["first_view"], fv)
			if err := b.replayRead(ctx, op, root, mat, rio, base, nil, nil); err != nil {
				return fmt.Errorf("replay first view: %w", err)
			}
		}
	}

	// Full-accuracy read, within the view's error bound of the input.
	b.attempted++
	start = time.Now()
	v, err := rd.Retrieve(ctx, 0)
	end = time.Now()
	if err != nil {
		b.fail("retrieve %s: %v", ds.Name, err)
		return nil
	}
	b.checkWithin(ds.Name+" level 0", v.Data, ds.Data, v.ErrorBound)
	ms := msBetween(start, end)
	if record {
		b.recordRead(ms, v.Cost)
	}
	if traced {
		op := b.tr.newOp()
		root := b.tr.add(op, 0, "core.Reader.Retrieve", "core", start, end)
		b.lay.coreMS["level"] = append(b.lay.coreMS["level"], ms)
		if err := b.replayRead(ctx, op, root, mat, rio, 0, nil, v.Cost); err != nil {
			return fmt.Errorf("replay read: %w", err)
		}
	}
	return nil
}
