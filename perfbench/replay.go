package main

import (
	"context"
	"strconv"

	"repro/internal/adios"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/decimate"
	"repro/internal/delta"
	"repro/internal/engine"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/storage"
)

// The traced run replays, right after each traced operation, the layer calls
// the operation made, on the same data, each inside a span whose parent is
// the operation. Nothing inside the program is instrumented; the replays
// call the same public functions the program calls. Two approximations are
// stated where they arise: levels the program processes concurrently are
// replayed one after another, and a read's decode and fetch are weighted by
// the cache-miss shares on its bill.

// replayCascade decimates level by level (Algorithm 1) and builds each
// level's mapping, as core.Write and core.NewSeriesWriter do. track asks
// for the restrictions a series writer keeps.
func (b *bench) replayCascade(op, parent int, m *mesh.Mesh, field []float64, opts core.Options, track bool) (*material, error) {
	mat := &material{meshes: []*mesh.Mesh{m}, fields: [][]float64{field}, chunks: opts.Chunks}
	// The workloads leave RatioPerLevel and Estimator at core's defaults:
	// halve the vertices per level, and the mean estimator.
	est, err := delta.EstimatorByName("mean")
	if err != nil {
		return nil, err
	}
	mat.est = est
	for l := 0; l < opts.Levels-1; l++ {
		cur := mat.meshes[l]
		var res *decimate.Result
		_, _, err := b.tr.call(op, parent, "decimate.Decimate", "decimate", func() (err error) {
			res, err = decimate.Decimate(cur, mat.fields[l], decimate.TargetForRatio(cur.NumVerts(), 2),
				decimate.Options{TrackRestriction: track})
			return err
		})
		if err != nil {
			return nil, err
		}
		b.lay.collapses += int64(res.Collapses)
		b.lay.rejected += int64(res.Rejected)
		mat.meshes = append(mat.meshes, res.Coarse)
		mat.fields = append(mat.fields, res.Data)
		mat.restrictions = append(mat.restrictions, res.Restriction)
	}
	mat.maps = make([]delta.Mapping, opts.Levels-1)
	for l := range mat.maps {
		_, _, err := b.tr.call(op, parent, "delta.Build", "delta", func() (err error) {
			mat.maps[l], err = delta.Build(mat.meshes[l], mat.meshes[l+1])
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	mat.tiles = make([][][]int32, opts.Levels-1)
	for l := range mat.tiles {
		mat.tiles[l] = tileVerts(mat.meshes[l], opts.Chunks)
	}
	return mat, nil
}

// replayEncode computes each level's delta (Algorithm 2) and encodes the
// deltas tile by tile and the base field whole, with the program's codec.
func (b *bench) replayEncode(ctx context.Context, op, parent int, mat *material) error {
	n := mat.levels()
	mat.deltas = make([][]float64, n-1)
	for l := range mat.deltas {
		_, _, err := b.tr.call(op, parent, "delta.ComputeInto", "delta", func() (err error) {
			mat.deltas[l], err = delta.ComputeInto(ctx, b.pool, mat.meshes[l], mat.fields[l],
				mat.meshes[l+1], mat.fields[l+1], mat.maps[l], mat.est, nil)
			return err
		})
		if err != nil {
			return err
		}
	}
	mat.enc = make([][][]byte, n)
	encode := func(l, part int, vals []float64) error {
		_, secs, err := b.tr.call(op, parent, "compress.ChunkedEncode", "compress", func() (err error) {
			mat.enc[l][part], err = compress.ChunkedEncode(ctx, b.pool, mat.codec, vals, 0)
			return err
		})
		b.lay.encValues += int64(len(vals))
		b.lay.encBytes += int64(len(mat.enc[l][part]))
		b.lay.encS += secs
		return err
	}
	for l := 0; l < n-1; l++ {
		mat.enc[l] = make([][]byte, len(mat.tiles[l]))
		for ci, ids := range mat.tiles[l] {
			if len(ids) == 0 {
				continue
			}
			sub := make([]float64, len(ids))
			for j, id := range ids {
				sub[j] = mat.deltas[l][id]
			}
			if err := encode(l, ci, sub); err != nil {
				return err
			}
		}
	}
	mat.enc[n-1] = make([][]byte, 1)
	return encode(n-1, 0, mat.fields[n-1])
}

// replayPut stores the bytes the program stored under keys again, into a
// scratch hierarchy on the same tiers.
func (b *bench) replayPut(ctx context.Context, op, parent int, src *storage.Hierarchy, keys []string) error {
	dst := storage.TitanTwoTier(tmpfsBytes)
	for _, k := range keys {
		data, _, err := src.Get(ctx, k, 1)
		if err != nil {
			return err
		}
		pref := src.Where(k)
		_, _, err = b.tr.call(op, parent, "storage.Hierarchy.Put", "storage", func() error {
			_, err := dst.Put(ctx, k, data, pref, 1)
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// replayWrite decomposes one core.Write of ds that stored keys in h.
func (b *bench) replayWrite(ctx context.Context, op, parent int, ds *core.Dataset, opts core.Options, h *storage.Hierarchy, keys []string) (*material, error) {
	mat, err := b.replayCascade(op, parent, ds.Mesh, ds.Data, opts, false)
	if err != nil {
		return nil, err
	}
	if mat.codec, _, err = core.CodecFor(opts, ds.Data); err != nil {
		return nil, err
	}
	if err := b.replayEncode(ctx, op, parent, mat); err != nil {
		return nil, err
	}
	if err := b.replayPut(ctx, op, parent, h, keys); err != nil {
		return nil, err
	}
	return mat, mat.locate(ctx, h, keys)
}

// replayStep decomposes one SeriesWriter.WriteStep of data over the
// campaign's cascade: restriction instead of decimation, then delta,
// encode and put.
func (b *bench) replayStep(ctx context.Context, op, parent int, cascade *material, data []float64, h *storage.Hierarchy, keys []string) (*material, error) {
	mat := *cascade
	mat.fields = make([][]float64, cascade.levels())
	mat.fields[0] = data
	for l, r := range cascade.restrictions {
		_, _, err := b.tr.call(op, parent, "decimate.Restriction.ApplyInto", "decimate", func() error {
			mat.fields[l+1] = r.ApplyInto(mat.fields[l], nil)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if err := b.replayEncode(ctx, op, parent, &mat); err != nil {
		return nil, err
	}
	if err := b.replayPut(ctx, op, parent, h, keys); err != nil {
		return nil, err
	}
	return &mat, mat.locate(ctx, h, keys)
}

// box is a region query.
type box struct{ minX, minY, maxX, maxY float64 }

// missShares reads a bill's page-cache and tile-cache miss shares: the part
// of fetch and decode work the read really did. Without a cache every
// fetch and decode is a miss.
func missShares(c *obs.CostReport) (page, tile float64) {
	page, tile = 1, 1
	if c == nil {
		return
	}
	if n := c.CacheHits + c.CacheMisses; n > 0 {
		page = float64(c.CacheMisses) / float64(n)
	}
	if n := c.TileCacheHits + c.TileCacheMisses; n > 0 {
		tile = float64(c.TileCacheMisses) / float64(n)
	}
	return
}

// replayRead decomposes a read that restored mat from its base down to
// level target: per level, open the container, fetch the payload ranges,
// decode and restore. region, when set, limits delta levels to the tiles it
// overlaps, as a focused read does.
func (b *bench) replayRead(ctx context.Context, op, parent int, mat *material, rio *adios.IO, target int, region *box, bill *obs.CostReport) error {
	b.lay.readOps++
	pageMiss, tileMiss := missShares(bill)
	n := mat.levels()
	for l := n - 1; l >= target; l-- {
		p := mat.prods[l]
		if _, _, err := b.tr.call(op, parent, "adios.IO.Open", "adios", func() error {
			_, err := rio.Open(ctx, p.key, 1)
			return err
		}); err != nil {
			return err
		}
		parts := []int{0}
		share := 1.0
		if l < n-1 {
			parts, share = mat.tilesFor(l, region)
		}
		vars := map[string]bool{}
		for _, ci := range parts {
			vars[tileVar(l, n, ci)] = true
		}
		var fetched int64
		id, _, err := b.tr.call(op, parent, "storage.Hierarchy.GetRange", "storage", func() error {
			for _, v := range p.vars {
				if !vars[v.Name] {
					continue
				}
				if _, _, err := rio.H.GetRange(ctx, p.key, v.Offset, v.Size, 1); err != nil {
					return err
				}
				fetched += v.Size
			}
			return nil
		})
		if err != nil {
			return err
		}
		b.lay.readBytes += fetched
		if rio.H.Where(p.key) == 0 {
			b.lay.fastBytes += fetched
		}
		b.tr.weigh(id, pageMiss)
		for _, ci := range parts {
			var out []float64
			id, secs, err := b.tr.call(op, parent, "compress.ChunkedDecodeInto", "compress", func() (err error) {
				out, err = compress.ChunkedDecodeInto(ctx, b.pool, mat.codec, nil, mat.enc[l][ci])
				return err
			})
			if err != nil {
				return err
			}
			b.tr.weigh(id, tileMiss)
			b.lay.decValues += int64(len(out))
			b.lay.decS += secs
		}
		if l == n-1 {
			continue
		}
		id, _, err = b.tr.call(op, parent, "delta.RestoreInto", "delta", func() error {
			_, err := delta.RestoreInto(ctx, b.pool, mat.meshes[l], mat.meshes[l+1], mat.fields[l+1],
				mat.maps[l], mat.deltas[l], mat.est, nil)
			return err
		})
		if err != nil {
			return err
		}
		b.tr.weigh(id, share)
	}
	return nil
}

// tileVar is the stored variable holding part ci of level l's payload.
func tileVar(l, levels, ci int) string {
	if l == levels-1 {
		return engine.Product{Kind: engine.KindData}.VarName()
	}
	return engine.Product{Kind: engine.KindDelta, Chunk: ci}.VarName()
}

// tileVerts splits a level's vertices over an n×n grid across the mesh's
// bounding box, the spatial tiling core.Options.Chunks asks for.
func tileVerts(m *mesh.Mesh, n int) [][]int32 {
	g := newGrid(m, n)
	tiles := make([][]int32, n*n)
	for vi, v := range m.Verts {
		t := g.tileOf(v.X, v.Y)
		tiles[t] = append(tiles[t], int32(vi))
	}
	return tiles
}

// tilesFor lists the non-empty tiles of delta level l a read fetches — all
// of them, or those a region overlaps — and the share of the level's
// vertices they hold.
func (m *material) tilesFor(l int, region *box) ([]int, float64) {
	tiles, n := m.tiles[l], m.chunks
	g := newGrid(m.meshes[l], n)
	lo, hi := 0, len(tiles)-1
	var loX, loY, hiX, hiY int
	if region != nil {
		lo = g.tileOf(region.minX, region.minY)
		hi = g.tileOf(region.maxX, region.maxY)
	}
	loX, loY, hiX, hiY = lo%n, lo/n, hi%n, hi/n
	var out []int
	var verts int
	for ci, ids := range tiles {
		if len(ids) == 0 || ci%n < loX || ci%n > hiX || ci/n < loY || ci/n > hiY {
			continue
		}
		out = append(out, ci)
		verts += len(ids)
	}
	return out, float64(verts) / float64(m.meshes[l].NumVerts())
}

// grid is the tiling frame: n×n cells over a mesh's bounding box.
type grid struct {
	minX, minY, w, h float64
	n                int
}

func newGrid(m *mesh.Mesh, n int) grid {
	minX, minY, maxX, maxY := m.Bounds()
	g := grid{minX: minX, minY: minY, w: maxX - minX, h: maxY - minY, n: n}
	if g.w <= 0 {
		g.w = 1
	}
	if g.h <= 0 {
		g.h = 1
	}
	return g
}

func (g grid) tileOf(x, y float64) int {
	clamp := func(t int) int { return max(0, min(g.n-1, t)) }
	tx := clamp(int(float64(g.n) * (x - g.minX) / g.w))
	ty := clamp(int(float64(g.n) * (y - g.minY) / g.h))
	return ty*g.n + tx
}

// fmtFloat renders a float so the server parses back the same bits.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
