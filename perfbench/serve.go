package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/adios"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/storage"
)

// runServe is analysts reading pre-written XGC1 campaigns over a real
// loopback socket: canopus-serve's configuration (page cache and decoded
// tile cache on, the tile cache about half the decoded working set) behind
// httptest.NewServer, driven by one keep-alive http.Client in a closed
// loop. Campaigns are picked from a Zipf distribution; the mix is 40% level
// reads, 25% tolerance reads, 20% region reads and 15% SSE streams. Every
// response is compared bit for bit with the same call made in process on a
// mirror reader with caches of its own, so its cache history matches the
// server's.
func runServe(ctx context.Context, b *bench) error {
	sz := b.cfg.size
	opts := core.Options{Levels: sz.levels, Chunks: sz.chunks, Codec: "zfp"}
	var inputs []*core.Dataset
	for i := 0; i < sz.campaigns; i++ {
		ds := sim.XGC1(sim.XGC1Config{Rings: sz.rings, Segments: sz.segments, Seed: b.cfg.seed*1_000_003 + int64(i)}).Dataset
		ds.Name = fmt.Sprintf("dpot-%02d", i)
		inputs = append(inputs, ds)
	}
	var env *serveEnv
	for i := 0; i < sz.setups; i++ {
		if env != nil {
			env.close()
		}
		start := time.Now()
		var err error
		if env, err = b.serveSetup(ctx, inputs, opts, b.cfg.trace && i == sz.setups-1); err != nil {
			return err
		}
		b.setupS = append(b.setupS, time.Since(start).Seconds())
	}
	defer env.close()

	rng := rand.New(rand.NewSource(b.cfg.seed))
	// Campaign i is the i-th most popular for every seed, so which campaigns
	// are hot, and how they share the shards' tile caches, does not change
	// from seed to seed.
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(env.camps)-1))
	deadline := time.Now().Add(time.Duration(b.cfg.seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		c := env.camps[zipf.Uint64()]
		traced := b.traceNext()
		var err error
		switch u := rng.Float64(); {
		case u < 0.40:
			err = env.levelRead(ctx, b, c, rng.Intn(opts.Levels), true, traced)
		case u < 0.65:
			err = env.toleranceRead(ctx, b, c, c.eps(rng), traced)
		case u < 0.85:
			err = env.regionRead(ctx, b, c, rng.Intn(opts.Levels), c.region(rng), traced)
		default:
			err = env.stream(ctx, b, c, c.eps(rng), traced)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// serveShards is how many shards (hierarchies) the server runs.
const serveShards = 2

// served is one campaign as the benchmark knows it.
type served struct {
	ds     *core.Dataset
	bounds []float64    // the recorded per-level error bounds
	mirror *core.Reader // in-process twin of the server's reader
	mat    *material    // traced runs: the write replay's material
	rio    *adios.IO    // traced runs: cacheless IO for read replays
	frame  [4]float64   // mesh bounding box
}

// eps picks a reachable error target: between a random level's recorded
// bound and twice it.
func (c *served) eps(rng *rand.Rand) float64 {
	return c.bounds[rng.Intn(len(c.bounds))] * (1 + rng.Float64())
}

// region picks a box covering 20–50% of the mesh's extent on each axis.
func (c *served) region(rng *rand.Rand) box {
	minX, minY, maxX, maxY := c.frame[0], c.frame[1], c.frame[2], c.frame[3]
	w := (0.2 + 0.3*rng.Float64()) * (maxX - minX)
	h := (0.2 + 0.3*rng.Float64()) * (maxY - minY)
	x := minX + rng.Float64()*(maxX-minX-w)
	y := minY + rng.Float64()*(maxY-minY-h)
	return box{x, y, x + w, y + h}
}

// serveEnv is a running server and its client.
type serveEnv struct {
	ts     *httptest.Server
	client *http.Client
	camps  []*served
}

func (e *serveEnv) close() {
	e.client.CloseIdleConnections()
	e.ts.Close()
}

// newShardIO builds one shard's IO the way canopus-serve does.
func newShardIO(h *storage.Hierarchy, tileCacheBytes int64) *adios.IO {
	aio := adios.NewIO(h, nil)
	aio.SetCache(adios.NewPageCache(64<<20, 0))
	aio.SetTileCache(compress.NewTileCache(tileCacheBytes))
	return aio
}

// serveSetup writes the campaigns onto their shards, starts the server and
// warms every campaign up with one full-accuracy read. traced replays the
// writes, which later read replays build on.
func (b *bench) serveSetup(ctx context.Context, inputs []*core.Dataset, opts core.Options, traced bool) (*serveEnv, error) {
	sz := b.cfg.size
	shards := make([]*adios.IO, serveShards)
	mirrors := make([]*adios.IO, serveShards)
	for i := range shards {
		h := storage.TitanTwoTier(tmpfsBytes)
		shards[i] = newShardIO(h, sz.tileCacheBytes)
		mirrors[i] = newShardIO(h, sz.tileCacheBytes)
	}
	env := &serveEnv{}
	for _, ds := range inputs {
		si := server.ShardIndex(ds.Name, len(shards))
		h := shards[si].H
		b.attempted++
		start := time.Now()
		rep, err := core.Write(ctx, shards[si], ds, opts)
		end := time.Now()
		if err != nil {
			return nil, fmt.Errorf("write %s: %w", ds.Name, err)
		}
		// The write path's end-to-end figures on this workload come from
		// these set-up writes; the timed window only reads.
		ms := msBetween(start, end)
		b.writes.ms = append(b.writes.ms, ms)
		b.writes.rawBytes += rep.RawBytes
		b.writes.storedBytes += rep.StoredBytes()
		b.writes.modeledIOMS = append(b.writes.modeledIOMS, 1000*rep.Timings.IOSeconds)
		c := &served{ds: ds, bounds: rep.Bounds}
		c.frame[0], c.frame[1], c.frame[2], c.frame[3] = ds.Mesh.Bounds()
		if traced {
			op := b.tr.newSetupOp()
			root := b.tr.add(op, 0, "core.Write", "core", start, end)
			b.lay.writeOps++
			b.lay.writeMS += ms
			if c.mat, err = b.replayWrite(ctx, op, root, ds, opts, h, keysWithPrefix(h, ds.Name+"/")); err != nil {
				return nil, fmt.Errorf("replay write: %w", err)
			}
			c.rio = adios.NewIO(h, nil)
		}
		if c.mirror, err = core.OpenReader(ctx, mirrors[si], ds.Name); err != nil {
			return nil, err
		}
		env.camps = append(env.camps, c)
	}
	srv, err := server.New(server.Config{Shards: shards})
	if err != nil {
		return nil, err
	}
	env.ts = httptest.NewServer(srv.Handler())
	env.client = env.ts.Client()
	for _, c := range env.camps {
		if err := env.levelRead(ctx, b, c, 0, false, false); err != nil {
			env.close()
			return nil, err
		}
	}
	return env, nil
}

// wireView is the server's JSON form of a view or region view.
type wireView struct {
	Level       int               `json:"level"`
	ErrorBound  float64           `json:"error_bound"`
	Restored    int               `json:"restored"`
	Data        []byte            `json:"data"`
	Have        []byte            `json:"have"`
	Degradation *core.Degradation `json:"degradation"`
	Cost        *obs.CostReport   `json:"cost"`
}

// get performs one request and reads the whole body.
func (e *serveEnv) get(path string) (body []byte, start, end time.Time, err error) {
	start = time.Now()
	resp, err := e.client.Get(e.ts.URL + path)
	if err != nil {
		return nil, start, time.Now(), err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	end = time.Now()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, start, end, err
}

func f64le(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// sameView checks the server≡direct invariant for one view.
func sameView(w *wireView, v *core.View) error {
	switch {
	case w.Level != v.Level:
		return fmt.Errorf("level %d, in process %d", w.Level, v.Level)
	case w.ErrorBound != v.ErrorBound:
		return fmt.Errorf("error bound %g, in process %g", w.ErrorBound, v.ErrorBound)
	case !bytes.Equal(w.Data, f64le(v.Data)):
		return fmt.Errorf("payload differs from the in-process view")
	}
	return nil
}

// exchange is one checked request and the in-process twin call paired with
// it.
type exchange struct {
	class, route       string          // read class and endpoint
	respBytes          int             // response body size
	start, end         time.Time       // the HTTP request
	bill               *obs.CostReport // the server's bill
	twinStart, twinEnd time.Time       // the in-process call
	twinBill           *obs.CostReport // its bill; nil for a stream
	level              int             // the level the read restored
	region             *box            // region reads: the box
}

// finish records a checked request and, when traced, its spans: the HTTP
// request is the root (layer server), the in-process call its child (layer
// core), and the replayed layer calls the child's children.
func (e *serveEnv) finish(ctx context.Context, b *bench, c *served, ex *exchange, record, traced bool) error {
	if !record {
		return nil
	}
	ms := msBetween(ex.start, ex.end)
	b.recordRead(ms, ex.bill)
	if ex.class == "tolerance" {
		b.lay.tolReads++
		b.lay.tolKiB += float64(ex.bill.ModeledBytes) / 1024
	}
	if !b.cfg.trace {
		return nil
	}
	if !traced {
		b.lay.plainMS = append(b.lay.plainMS, ms)
		return nil
	}
	b.lay.tracedMS = append(b.lay.tracedMS, ms)
	b.lay.httpReads++
	b.lay.respBytes += int64(ex.respBytes)
	op := b.tr.newOp()
	root := b.tr.add(op, 0, "http.GET "+ex.route, "server", ex.start, ex.end)
	child := b.tr.add(op, root, "core.Reader."+ex.class, "core", ex.twinStart, ex.twinEnd)
	if ex.class != "stream" {
		b.lay.coreMS[ex.class] = append(b.lay.coreMS[ex.class], msBetween(ex.twinStart, ex.twinEnd))
	}
	bill := ex.twinBill
	if bill == nil {
		bill = ex.bill
	}
	return b.replayRead(ctx, op, child, c.mat, c.rio, ex.level, ex.region, bill)
}

// request performs one GET and decodes its view; a failure is recorded and
// returns nil.
func (e *serveEnv) request(b *bench, class, route, path string) (*exchange, *wireView) {
	b.attempted++
	ex := &exchange{class: class, route: route}
	body, start, end, err := e.get(path)
	if err != nil {
		b.fail("GET %s: %v", path, err)
		return nil, nil
	}
	var w wireView
	if err := json.Unmarshal(body, &w); err != nil {
		b.fail("GET %s: %v", path, err)
		return nil, nil
	}
	ex.respBytes, ex.start, ex.end, ex.bill = len(body), start, end, w.Cost
	if ex.bill == nil {
		b.fail("GET %s: response carries no cost bill", path)
		return nil, nil
	}
	return ex, &w
}

// levelRead is GET /v1/read/{name}?level=L.
func (e *serveEnv) levelRead(ctx context.Context, b *bench, c *served, level int, record, traced bool) error {
	path := fmt.Sprintf("/v1/read/%s?level=%d", c.ds.Name, level)
	ex, w := e.request(b, "level", "/v1/read?level", path)
	if ex == nil {
		return nil
	}
	ex.twinStart = time.Now()
	v, err := c.mirror.Retrieve(ctx, level)
	ex.twinEnd = time.Now()
	if err != nil {
		b.fail("in-process %s: %v", path, err)
		return nil
	}
	if err := sameView(w, v); err != nil {
		b.fail("%s: %v", path, err)
		return nil
	}
	if level == 0 {
		b.checkWithin(c.ds.Name+" level 0", v.Data, c.ds.Data, v.ErrorBound)
	}
	ex.twinBill, ex.level = v.Cost, v.Level
	return e.finish(ctx, b, c, ex, record, traced)
}

// toleranceRead is GET /v1/read/{name}?tolerance=eps.
func (e *serveEnv) toleranceRead(ctx context.Context, b *bench, c *served, eps float64, traced bool) error {
	path := fmt.Sprintf("/v1/read/%s?tolerance=%s", c.ds.Name, fmtFloat(eps))
	ex, w := e.request(b, "tolerance", "/v1/read?tolerance", path)
	if ex == nil {
		return nil
	}
	ex.twinStart = time.Now()
	v, err := c.mirror.RetrieveToTolerance(ctx, eps)
	ex.twinEnd = time.Now()
	if err != nil {
		b.fail("in-process %s: %v", path, err)
		return nil
	}
	if err := sameView(w, v); err != nil {
		b.fail("%s: %v", path, err)
		return nil
	}
	if !(w.ErrorBound <= eps) || w.Degradation != nil {
		b.fail("%s: bound %g (degradation %v)", path, w.ErrorBound, w.Degradation)
		return nil
	}
	ex.twinBill, ex.level = v.Cost, v.Level
	return e.finish(ctx, b, c, ex, true, traced)
}

// regionRead is GET /v1/region/{name}?level=L&minx=..&maxy=...
func (e *serveEnv) regionRead(ctx context.Context, b *bench, c *served, level int, r box, traced bool) error {
	path := fmt.Sprintf("/v1/region/%s?level=%d&minx=%s&miny=%s&maxx=%s&maxy=%s", c.ds.Name, level,
		fmtFloat(r.minX), fmtFloat(r.minY), fmtFloat(r.maxX), fmtFloat(r.maxY))
	ex, w := e.request(b, "region", "/v1/region", path)
	if ex == nil {
		return nil
	}
	ex.twinStart = time.Now()
	rv, err := c.mirror.RetrieveRegion(ctx, level, r.minX, r.minY, r.maxX, r.maxY)
	ex.twinEnd = time.Now()
	if err != nil {
		b.fail("in-process %s: %v", path, err)
		return nil
	}
	have := make([]byte, len(rv.Have))
	for i, ok := range rv.Have {
		if ok {
			have[i] = 1
		}
	}
	switch {
	case w.Level != rv.Level || w.ErrorBound != rv.ErrorBound || w.Restored != rv.CountHave():
		b.fail("%s: level, bound or restored count differs from the in-process view", path)
		return nil
	case !bytes.Equal(w.Data, f64le(rv.Data)) || !bytes.Equal(w.Have, have):
		b.fail("%s: payload differs from the in-process view", path)
		return nil
	}
	ex.twinBill, ex.level, ex.region = rv.Cost, rv.Level, &r
	return e.finish(ctx, b, c, ex, true, traced)
}

// stream is GET /v1/stream/{name}?tolerance=eps over SSE. The first view's
// arrival is the stream's first-view time; the request ends at the
// terminal event.
func (e *serveEnv) stream(ctx context.Context, b *bench, c *served, eps float64, traced bool) error {
	b.attempted++
	path := fmt.Sprintf("/v1/stream/%s?tolerance=%s", c.ds.Name, fmtFloat(eps))
	ex := &exchange{class: "stream", route: "/v1/stream", start: time.Now()}
	resp, err := e.client.Get(e.ts.URL + path)
	if err != nil {
		b.fail("GET %s: %v", path, err)
		return nil
	}
	var firstView time.Time
	var events [][2]string // event name, data
	rd := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := rd.ReadString('\n')
		ex.respBytes += len(line)
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = strings.TrimSpace(name)
		} else if data, ok := strings.CutPrefix(line, "data: "); ok {
			if event == "view" && firstView.IsZero() {
				firstView = time.Now()
			}
			events = append(events, [2]string{event, data})
		}
		if err != nil {
			break
		}
	}
	resp.Body.Close()
	ex.end = time.Now()
	if resp.StatusCode != http.StatusOK {
		b.fail("GET %s: status %d", path, resp.StatusCode)
		return nil
	}

	var views []wireView
	for _, ev := range events {
		switch ev[0] {
		case "view":
			var w wireView
			if err := json.Unmarshal([]byte(ev[1]), &w); err != nil {
				b.fail("GET %s: %v", path, err)
				return nil
			}
			views = append(views, w)
		case "end":
			var end struct {
				Cost *obs.CostReport `json:"cost"`
			}
			if err := json.Unmarshal([]byte(ev[1]), &end); err != nil {
				b.fail("GET %s: %v", path, err)
				return nil
			}
			ex.bill = end.Cost
		}
	}
	if len(views) == 0 || ex.bill == nil {
		b.fail("GET %s: %d views, terminal bill %t", path, len(views), ex.bill != nil)
		return nil
	}

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ex.twinStart = time.Now()
	ch, err := c.mirror.Subscribe(sctx, eps)
	if err != nil {
		b.fail("in-process %s: %v", path, err)
		return nil
	}
	var direct []*core.View
	var twinFirst time.Time
	for v := range ch {
		if twinFirst.IsZero() {
			twinFirst = time.Now()
		}
		direct = append(direct, v)
	}
	ex.twinEnd = time.Now()
	if len(direct) != len(views) {
		b.fail("%s: %d views, in process %d", path, len(views), len(direct))
		return nil
	}
	for i := range views {
		if err := sameView(&views[i], direct[i]); err != nil {
			b.fail("%s view %d: %v", path, i, err)
			return nil
		}
		if i > 0 && views[i].ErrorBound > views[i-1].ErrorBound {
			b.fail("%s: error bound rose from %g to %g", path, views[i-1].ErrorBound, views[i].ErrorBound)
			return nil
		}
	}
	if last := views[len(views)-1]; !(last.ErrorBound <= eps) {
		b.fail("%s: final bound %g misses eps %g", path, last.ErrorBound, eps)
		return nil
	}
	b.firstViewMS = append(b.firstViewMS, msBetween(ex.start, firstView))
	if traced {
		b.lay.coreMS["first_view"] = append(b.lay.coreMS["first_view"], msBetween(ex.twinStart, twinFirst))
	}
	ex.level = direct[len(direct)-1].Level
	return e.finish(ctx, b, c, ex, true, traced)
}
