package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/adios"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/storage"
)

// runCampaign is a simulation campaign on one shared mesh: the series
// hierarchy is decimated once in set-up, then each round writes a batch of
// steps with SeriesWriter.WriteStep and scans them once with
// SeriesReader.RetrieveStep at mixed levels. Writes skip decimation, so
// delta, encode and placement show; reads decode and restore with no cache.
// A round's step products are deleted after its scan, which keeps the
// hierarchy at one round's size however long the run.
func runCampaign(ctx context.Context, b *bench) error {
	sz := b.cfg.size
	opts := core.Options{Levels: sz.levels, Chunks: sz.chunks, Codec: "zfp"}
	seq := sim.XGC1Sequence(sim.XGC1Config{Rings: sz.rings, Segments: sz.segments, Seed: b.cfg.seed}, sz.roundSteps)
	fields := make([][]float64, len(seq))
	for i, s := range seq {
		fields[i] = s.Dataset.Data
	}
	m := seq[0].Dataset.Mesh
	valueRange := fieldRange(fields...)

	var c *campaign
	for i := 0; i < sz.setups; i++ {
		start := time.Now()
		var err error
		traceSetup := b.cfg.trace && i == sz.setups-1
		if c, err = b.newCampaign(ctx, m, valueRange, opts, fields[0], traceSetup); err != nil {
			return err
		}
		b.setupS = append(b.setupS, time.Since(start).Seconds())
	}
	pick := rand.New(rand.NewSource(b.cfg.seed))
	deadline := time.Now().Add(time.Duration(b.cfg.seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		if err := c.round(ctx, b, fields, pick, b.traceNext()); err != nil {
			return err
		}
	}
	return nil
}

// fieldRange is max-min over every value of fields.
func fieldRange(fields ...[]float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, f := range fields {
		for _, v := range f {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
	}
	return hi - lo
}

// campaign is one series hierarchy and its writer.
type campaign struct {
	name    string
	h       *storage.Hierarchy
	aio     *adios.IO
	rio     *adios.IO // cacheless IO for read replays
	sw      *core.SeriesWriter
	opts    core.Options
	cascade *material // the series set-up's replayed cascade (traced runs)
	steps   int
}

// newCampaign builds the series hierarchy (the decimation happens here) and
// warms up with one step written, read back and dropped. traced replays the
// set-up's layer calls, which later step replays build on.
func (b *bench) newCampaign(ctx context.Context, m *mesh.Mesh, fieldRange float64, opts core.Options, warm []float64, traced bool) (*campaign, error) {
	h := storage.TitanTwoTier(tmpfsBytes)
	c := &campaign{name: "dpot", h: h, aio: adios.NewIO(h, nil), rio: adios.NewIO(h, nil), opts: opts}
	b.attempted++
	start := time.Now()
	sw, err := core.NewSeriesWriter(ctx, c.aio, c.name, m, fieldRange, opts)
	end := time.Now()
	if err != nil {
		return nil, fmt.Errorf("new series writer: %w", err)
	}
	c.sw = sw
	if traced {
		op := b.tr.newSetupOp()
		root := b.tr.add(op, 0, "core.NewSeriesWriter", "core", start, end)
		b.lay.writeOps++
		b.lay.writeMS += msBetween(start, end)
		if c.cascade, err = b.replayCascade(op, root, m, make([]float64, m.NumVerts()), opts, true); err != nil {
			return nil, fmt.Errorf("replay series set-up: %w", err)
		}
	}
	before := keySet(h)
	b.attempted += 2
	if _, err := sw.WriteStep(ctx, warm); err != nil {
		return nil, fmt.Errorf("warm-up step: %w", err)
	}
	c.steps++
	sr, err := core.OpenSeriesReader(ctx, c.aio, c.name)
	if err != nil {
		return nil, err
	}
	v, err := sr.RetrieveStep(ctx, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("warm-up read: %w", err)
	}
	if c.cascade != nil {
		if c.cascade.codec, err = compress.New(opts.Codec, sr.Tolerance()); err != nil {
			return nil, err
		}
	}
	b.checkWithin("warm-up step level 0", v.Data, warm, v.ErrorBound)
	return c, c.drop(newKeys(h, before))
}

// scanLevel picks the level a scan reads a step at: full accuracy 35% of the
// time, the next level 30%, and the rest spread evenly over the coarser
// ones. The shares keep the median read inside one level's latencies
// rather than on the edge between two, where it would jump run to run.
func scanLevel(pick *rand.Rand, levels int) int {
	switch u := pick.Float64(); {
	case u < 0.35 || levels == 1:
		return 0
	case u < 0.65 || levels == 2:
		return 1
	default:
		return 2 + pick.Intn(levels-2)
	}
}

// drop deletes step products once scanned.
func (c *campaign) drop(keys []string) error {
	for _, k := range keys {
		if err := c.h.Delete(k); err != nil {
			return err
		}
	}
	return nil
}

// round writes one step per field, then reads every one of them once at a
// level picked at random; level-0 reads are checked against the input.
func (c *campaign) round(ctx context.Context, b *bench, fields [][]float64, pick *rand.Rand, traced bool) error {
	roundKeys := keySet(c.h)
	first := c.steps
	mats := make([]*material, len(fields))
	for s, data := range fields {
		var before map[string]bool
		if traced {
			before = keySet(c.h)
		}
		b.attempted++
		start := time.Now()
		rep, err := c.sw.WriteStep(ctx, data)
		end := time.Now()
		if err != nil {
			return fmt.Errorf("write step %d: %w", c.steps, err)
		}
		c.steps++
		ms := msBetween(start, end)
		b.writes.ms = append(b.writes.ms, ms)
		b.writes.rawBytes += int64(8 * len(data))
		b.writes.storedBytes += rep.PayloadBytes
		b.writes.modeledIOMS = append(b.writes.modeledIOMS, 1000*rep.Timings.IOSeconds)
		if !traced {
			if b.cfg.trace {
				b.lay.plainMS = append(b.lay.plainMS, ms)
			}
			continue
		}
		op := b.tr.newOp()
		root := b.tr.add(op, 0, "core.SeriesWriter.WriteStep", "core", start, end)
		b.lay.writeOps++
		b.lay.writeMS += ms
		b.lay.tracedMS = append(b.lay.tracedMS, ms)
		if mats[s], err = b.replayStep(ctx, op, root, c.cascade, data, c.h, newKeys(c.h, before)); err != nil {
			return fmt.Errorf("replay step: %w", err)
		}
	}

	b.attempted++
	sr, err := core.OpenSeriesReader(ctx, c.aio, c.name)
	if err != nil {
		return fmt.Errorf("open series: %w", err)
	}
	base := c.opts.Levels - 1
	for s := range fields {
		level := scanLevel(pick, c.opts.Levels)
		b.attempted++
		start := time.Now()
		v, err := sr.RetrieveStep(ctx, first+s, level)
		end := time.Now()
		if err != nil {
			b.fail("read step %d level %d: %v", first+s, level, err)
			continue
		}
		ms := msBetween(start, end)
		if v.Level != level {
			b.fail("read step %d: got level %d, want %d", first+s, v.Level, level)
		}
		if level == 0 {
			b.checkWithin(fmt.Sprintf("step %d level 0", first+s), v.Data, fields[s], v.ErrorBound)
		}
		b.recordRead(ms, v.Cost)
		if level == base {
			b.firstViewMS = append(b.firstViewMS, ms)
		}
		if traced {
			op := b.tr.newOp()
			root := b.tr.add(op, 0, "core.SeriesReader.RetrieveStep", "core", start, end)
			b.lay.coreMS["level"] = append(b.lay.coreMS["level"], ms)
			if err := b.replayRead(ctx, op, root, mats[s], c.rio, level, nil, v.Cost); err != nil {
				return fmt.Errorf("replay step read: %w", err)
			}
		}
	}
	return c.drop(newKeys(c.h, roundKeys))
}
