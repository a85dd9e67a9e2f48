package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adios"
	"repro/internal/bp"
	"repro/internal/compress"
	"repro/internal/delta"
	"repro/internal/engine"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Reader retrieves refactored variables progressively (§III-E, Fig. 1 right
// of the pyramid). Opening a reader touches only the small metadata
// container on the fastest tier.
//
// One Reader serves both stored layouts. A single variable (Write) keeps
// level l's data product, mesh, mapping and tile frame together in
// levelKey(name, l); a campaign (SeriesWriter) keeps the data product of
// each step in stepKey(name, step, l) and the static hierarchy once in
// hierKey(name, l). Everything else — metadata, planner, plan executor,
// degradation, caches — is shared; SeriesReader is this reader plus a step
// count.
//
// The reader caches each level's hierarchy rung (decoded mesh geometry,
// vertex→triangle mapping and delta tile frame): in the paper's workloads
// the mesh hierarchy is static while the field evolves over many timesteps
// and many analysis passes, so a session pays mesh I/O once and subsequent
// retrievals charge only the data/delta payloads. Retrieval timings on a
// warm reader therefore reflect the steady-state analysis cost the paper
// measures.
//
// A Reader is safe for concurrent use: many goroutines may Retrieve (or
// Base/Augment distinct views) at once. The cache is mutex-guarded and a
// miss loads each rung exactly once even when several retrievals race to
// it. Independent delta tiles within one retrieval are fetched and
// decompressed on the reader's worker pool.
type Reader struct {
	aio       *adios.IO
	name      string
	mode      Mode
	levels    int
	codec     compress.Codec
	estimator delta.Estimator
	tolerance float64
	// campaign selects the campaign key layout (see the type comment).
	campaign bool

	// bounds and levelBytes are the planner inputs recorded at write time:
	// composed absolute error bound and modeled container size per level
	// (campaign-wide running maxima for a campaign). bounds[l] is -1 on
	// hierarchies written before bound recording.
	bounds     []float64
	levelBytes []int64

	// degrade switches the read paths to best-effort: stop at the best
	// restored accuracy on a degradable storage failure instead of
	// erroring (see degrade.go). Guarded by mu so SetDegrade is safe against
	// concurrent retrievals.
	degrade bool

	pool *engine.Pool

	mu       sync.RWMutex // guards degrade, rungs and hierCost
	rungs    []*rung      // indexed by level; nil until loaded
	hierCost storage.Cost // campaign layout: one-time hierarchy loads
	flight   engine.Group
}

// rung is one cached level of the mesh hierarchy: its geometry, the
// vertex→triangle mapping onto the next coarser level (nil at the base and
// in direct mode, which store none), and the frame its delta tiles were cut
// in.
type rung struct {
	mesh    *mesh.Mesh
	mapping delta.Mapping
	tb      tileBox
	full    bool // every part loaded; false on a fill that was cut short
}

// OpenReaderWith loads the metadata for a refactored variable and applies
// the read-side options (currently only opts.Degrade; layout options come
// from the stored metadata, not from opts).
func OpenReaderWith(ctx context.Context, aio *adios.IO, name string, opts Options) (*Reader, error) {
	r, err := OpenReader(ctx, aio, name)
	if err != nil {
		return nil, err
	}
	r.SetDegrade(opts.Degrade)
	return r, nil
}

// SetDegrade toggles graceful degradation on the reader (see
// Options.Degrade). Safe to call concurrently with retrievals; in-flight
// retrievals may use either setting.
func (r *Reader) SetDegrade(on bool) {
	r.mu.Lock()
	r.degrade = on
	r.mu.Unlock()
}

func (r *Reader) degradeOn() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.degrade
}

// OpenReader loads the metadata for a refactored variable.
func OpenReader(ctx context.Context, aio *adios.IO, name string) (*Reader, error) {
	r, _, err := openReader(ctx, aio, name, false)
	return r, err
}

// openReader parses the metadata container of either layout: metaKey for a
// single variable, seriesMetaKey for a campaign, which records no mode
// (campaigns are delta-mode) but a step count, returned as steps.
func openReader(ctx context.Context, aio *adios.IO, name string, campaign bool) (r *Reader, steps int, err error) {
	key, what := metaKey(name), "metadata"
	if campaign {
		key, what = seriesMetaKey(name), "series metadata"
	}
	h, err := aio.Open(ctx, key, 1)
	if err != nil {
		return nil, 0, fmt.Errorf("canopus: open %s for %q: %w", what, name, err)
	}
	attr := func(key string) (string, error) {
		v, ok := h.BP.Attr(key)
		if !ok {
			return "", fmt.Errorf("canopus: %s for %q missing %s", what, name, key)
		}
		return v, nil
	}
	r = &Reader{aio: aio, name: name, campaign: campaign, pool: engine.NewPool(0)}
	if campaign {
		stepsStr, err := attr("steps")
		if err != nil {
			return nil, 0, err
		}
		if steps, err = strconv.Atoi(stepsStr); err != nil || steps < 0 {
			return nil, 0, fmt.Errorf("canopus: bad steps attribute %q", stepsStr)
		}
	} else {
		modeStr, err := attr("mode")
		if err != nil {
			return nil, 0, err
		}
		if r.mode, err = ModeByName(modeStr); err != nil {
			return nil, 0, err
		}
	}
	levelsStr, err := attr("levels")
	if err != nil {
		return nil, 0, err
	}
	if r.levels, err = strconv.Atoi(levelsStr); err != nil || r.levels < 1 {
		return nil, 0, fmt.Errorf("canopus: bad levels attribute %q", levelsStr)
	}
	codecName, err := attr("codec")
	if err != nil {
		return nil, 0, err
	}
	tolStr, err := attr("tolerance")
	if err != nil {
		return nil, 0, err
	}
	if r.tolerance, err = strconv.ParseFloat(tolStr, 64); err != nil {
		return nil, 0, fmt.Errorf("canopus: bad tolerance attribute %q", tolStr)
	}
	if r.codec, err = compress.New(codecName, r.tolerance); err != nil {
		return nil, 0, err
	}
	estName, err := attr("estimator")
	if err != nil {
		return nil, 0, err
	}
	if r.estimator, err = delta.EstimatorByName(estName); err != nil {
		return nil, 0, err
	}
	r.rungs = make([]*rung, r.levels)
	r.bounds, r.levelBytes = readPlanAttrs(h, r.levels)
	return r, steps, nil
}

// SetWorkers resizes the reader's worker pool (n <= 0 means NumCPU). It must
// not be called concurrently with retrievals.
func (r *Reader) SetWorkers(n int) { r.pool = engine.NewPool(n) }

// Levels reports the total number of stored accuracy levels N.
func (r *Reader) Levels() int { return r.levels }

// Mode reports the stored refactoring mode.
func (r *Reader) Mode() Mode { return r.mode }

// Tolerance reports the absolute codec error bound used at write time.
func (r *Reader) Tolerance() float64 { return r.tolerance }

// View is data restored to some accuracy level, plus the accumulated cost
// of producing it. Augment refines it in place, one level at a time. A View
// is not shared: concurrent retrievals each build their own.
type View struct {
	// Level is the current accuracy level (N-1 = base, 0 = full).
	Level int
	// Mesh is G^Level; Data is L^Level.
	Mesh *mesh.Mesh
	Data []float64
	// Timings accumulates I/O (simulated), decompression and
	// restoration costs across the retrievals that built this view.
	Timings PhaseTimings
	// ErrorBound is the composed absolute error bound of the view at its
	// current level, from the per-level bounds recorded at write time
	// (DESIGN.md §11). -1 on hierarchies that predate bound recording,
	// except at full accuracy where the codec tolerance is still known.
	ErrorBound float64
	// Degradation is non-nil when the view stopped short of the requested
	// accuracy under Options.Degrade; Level then equals AchievedLevel.
	Degradation *Degradation
	// Cost is the request-scoped bill for the Retrieve / RetrieveToTolerance
	// / RetrieveStep call that produced this view: per-tier reads and
	// retries, modeled vs real bytes, cache behavior, decode seconds, and
	// the degradation verdict. Nil on views built by hand through Base /
	// Augment (their costs accumulate in Timings as before).
	Cost *obs.CostReport
}

// DecimationRatio reports |V^0| / |V^Level| relative to the full mesh, when
// known (0 when the reader lacks the full vertex count).
func (v *View) DecimationRatio(fullVerts int) float64 {
	if v.Mesh.NumVerts() == 0 {
		return 0
	}
	return float64(fullVerts) / float64(v.Mesh.NumVerts())
}

// decodeProduct decodes one container's whole base/direct data product,
// serving repeats from the handle's decoded-tile cache when one is attached
// (keyed under compress.BaseTile). By the time this runs the payload bytes
// have already been fetched, so a hit skips only the decompress CPU — the
// request's I/O bill is identical either way (TileCache's cost invariant).
// Cached slices are shared and read-only, while View data is caller-owned
// and mutated in place by Augment/restore, so cache results are copied out.
func decodeProduct(ctx context.Context, pool *engine.Pool, codec compress.Codec, h *adios.Handle, level int, payload []byte) ([]float64, error) {
	tc := h.TileCache()
	if tc == nil {
		return compress.ChunkedDecode(ctx, pool, codec, payload)
	}
	vals, hit, err := tc.GetOrDecode(h.Key(), level, compress.BaseTile, func() ([]float64, error) {
		return compress.ChunkedDecode(ctx, pool, codec, payload)
	})
	if err != nil {
		return nil, err
	}
	if hit {
		obs.RequestFrom(ctx).AddTileCache(1, 0)
	} else {
		obs.RequestFrom(ctx).AddTileCache(0, 1)
	}
	out := make([]float64, len(vals))
	copy(out, vals)
	return out, nil
}

// Base retrieves the lowest-accuracy view: read L^(N-1) from the fast tier
// and decompress — option (1) in §III-B's walkthrough.
func (r *Reader) Base(ctx context.Context) (*View, error) {
	return r.advance(ctx, 0, nil, r.levels-1)
}

// Augment refines v by one level (toward full accuracy): it retrieves
// delta^((Level-1)-(Level)) and the finer mesh from storage, then applies
// Algorithm 3. The paper's progressive exploration loop is Base() followed
// by Augment() until the accuracy satisfies the analysis.
func (r *Reader) Augment(ctx context.Context, v *View) error {
	if v.Level == 0 {
		return fmt.Errorf("canopus: %q already at full accuracy", r.name)
	}
	nv, err := r.advance(ctx, 0, v, v.Level-1)
	if err != nil {
		return err
	}
	*v = *nv
	return nil
}

// Retrieve restores the variable to the requested accuracy level. The
// retrieval planner resolves the level into a fetch plan — the base plus
// every required delta in progressive mode, a single product in direct
// mode — and Retrieve executes it. Cancelling ctx aborts the retrieval
// mid-fetch. With degradation enabled, a delta that cannot be read leaves
// the view at the last level that restored cleanly, reported via
// View.Degradation; the base itself must still be readable.
func (r *Reader) Retrieve(ctx context.Context, targetLevel int) (*View, error) {
	return r.retrieveLevel(ctx, opRetrieve, 0, targetLevel)
}

// RetrieveToTolerance restores the variable to the cheapest accuracy whose
// composed error bound meets eps: the planner picks the coarsest level with
// a recorded bound <= eps and the executor fetches exactly the products
// that level needs, stopping early instead of refining to full accuracy.
// Hierarchies written before bound recording degrade to a conservative
// level-order plan to full accuracy. An eps tighter than the finest
// recorded bound retrieves full accuracy and reports how close it got via
// View.Degradation (RequestedTolerance set, Reason explains the gap).
func (r *Reader) RetrieveToTolerance(ctx context.Context, eps float64) (*View, error) {
	return r.retrieveTolerance(ctx, opRetrieve, 0, eps)
}

// readOp is an entry point of the plan executor: the request and span it
// bills under, its call counter and its latency histogram.
type readOp struct {
	name  string
	calls *obs.Counter
	hist  *obs.Histogram
}

var (
	opRetrieve  = readOp{"core.retrieve", metricRetrievals, metricRetrieveSeconds}
	opStep      = readOp{"core.retrieve_step", metricSeriesSteps, metricRetrieveStepSeconds}
	opSubscribe = readOp{"core.subscribe", metricStreams, metricSubscribeSeconds}
)

// retrieveLevel plans and executes a read of one accuracy level of step
// (the campaign layout; 0 otherwise).
func (r *Reader) retrieveLevel(ctx context.Context, op readOp, step, targetLevel int) (*View, error) {
	if targetLevel < 0 || targetLevel >= r.levels {
		return nil, fmt.Errorf("canopus: level %d out of range [0,%d)", targetLevel, r.levels)
	}
	p, err := r.planner(step)
	if err != nil {
		return nil, err
	}
	pl, err := p.ForLevel(targetLevel)
	if err != nil {
		return nil, err
	}
	return r.execute(ctx, op, step, pl, nil)
}

// retrieveTolerance plans and executes a read of step to the error
// tolerance eps.
func (r *Reader) retrieveTolerance(ctx context.Context, op readOp, step int, eps float64) (*View, error) {
	p, err := r.planner(step)
	if err != nil {
		return nil, err
	}
	pl, err := p.ForTolerance(eps)
	if err != nil {
		return nil, err
	}
	metricToleranceRetrievals.Inc()
	return r.execute(ctx, op, step, pl, nil)
}

// execute is the plan executor behind every view-producing read. It walks a
// planner-produced plan over step's containers, one advance per plan step,
// and owns the request, the span and the degradation path: on a degradable
// storage failure a progressive read stops at the last level that restored
// cleanly, and a direct read whose product is unreadable falls back along
// pl.Fallbacks. All level selection lives in the plan; execute only follows
// it (and truncates it on degradation).
//
// With a nil emit the final view is returned. Otherwise (Subscribe) each
// completed step is sent to emit as a private snapshot and the final view
// last; the stream degrades whatever SetDegrade says, since every view
// already sent is valid, and emit returning false (the subscriber left)
// ends the walk.
func (r *Reader) execute(ctx context.Context, op readOp, step int, pl *plan.Plan, emit func(*View) bool) (*View, error) {
	ctx, req, owned := obs.BeginRequest(ctx, op.name)
	ctx, span := obs.StartSpan(ctx, op.name)
	span.SetAttr("name", r.name)
	if r.campaign {
		span.SetAttrInt("step", step)
	}
	span.SetAttrInt("target_level", pl.Target)
	if pl.Tolerance > 0 {
		span.SetAttr("tolerance", strconv.FormatFloat(pl.Tolerance, 'g', -1, 64))
	}
	defer span.End()
	op.calls.Inc()

	var v *View
	var err error
	for i, st := range pl.Steps {
		if v, err = r.advance(ctx, step, v, st.Level); err != nil {
			break
		}
		if emit != nil && i < len(pl.Steps)-1 && !emit(snapshotView(v)) {
			return nil, ctx.Err()
		}
	}
	if err != nil {
		if ctx.Err() != nil || !degradable(err) || (emit == nil && !r.degradeOn()) {
			return nil, err
		}
		if v == nil {
			fb, ferr := r.fallback(ctx, step, pl.Fallbacks, err)
			if ferr != nil {
				return nil, ferr
			}
			v = fb
		}
		if emit != nil {
			metricStreamFaults.Inc()
		}
		v.Degradation = newDegradation(pl.Target, v.Level, err, r.boundAt(v.Level))
		markDegraded(ctx, span, v.Degradation)
	}
	if pl.Tolerance > 0 {
		finishTolerance(ctx, v, pl)
	}
	finishView(v, req, owned, span, op.hist)
	if emit != nil {
		emit(v)
	}
	return v, nil
}

// fallback is the direct-mode degradation path: the target product failed
// with cause, so each coarser level of levels is read in turn, nearest
// first, until one decodes. A non-degradable failure ends the walk with its
// own error; exhausting the list returns cause.
func (r *Reader) fallback(ctx context.Context, step int, levels []int, cause error) (*View, error) {
	for _, l := range levels {
		v, err := r.decodeLevel(ctx, step, l)
		if err == nil || !degradable(err) {
			return v, err
		}
	}
	return nil, cause
}

// advance moves a view one plan step toward level l. The first step
// (v == nil) and every direct-mode step decode level l's data product into
// a new view, which carries the costs already spent; a progressive step
// refines v in place by one delta. On failure v is returned unchanged.
func (r *Reader) advance(ctx context.Context, step int, v *View, l int) (*View, error) {
	if v != nil && r.mode == ModeDelta {
		return v, r.refine(ctx, step, v)
	}
	nv, err := r.decodeLevel(ctx, step, l)
	if err != nil {
		return v, err
	}
	if v != nil {
		nv.Timings.Add(v.Timings)
	}
	return nv, nil
}

// decodeLevel reads level l's whole data product into a new view: the base
// of a progressive read (span core.base), or one independently stored level
// of a direct read (span core.direct, the §II-B baseline).
func (r *Reader) decodeLevel(ctx context.Context, step, l int) (*View, error) {
	name := "core.base"
	if r.mode == ModeDirect {
		name = "core.direct"
	}
	ctx, span := obs.StartSpan(ctx, name)
	span.SetAttr("name", r.name)
	span.SetAttrInt("level", l)
	defer span.End()
	h, lv, err := r.openLevel(ctx, step, l)
	if err != nil {
		return nil, err
	}
	span.SetAttr("tier", h.TierName)
	data, secs, err := r.decodeData(ctx, h, l, lv.mesh)
	if err != nil {
		return nil, err
	}
	v := &View{Level: l, Mesh: lv.mesh, Data: data, ErrorBound: r.boundAt(l)}
	v.Timings.addHandleIO(ctx, h)
	v.Timings.DecompressSeconds = secs
	return v, nil
}

// decodeData fetches level l's data product from h and decodes it — the one
// decode of a whole base or direct product on every read path — checking
// that it covers m. The decode time is folded into the metrics and the
// request here and returned for the caller's PhaseTimings.
func (r *Reader) decodeData(ctx context.Context, h *adios.Handle, l int, m *mesh.Mesh) ([]float64, float64, error) {
	p, err := fetchProduct(h, l, engine.KindData, 0)
	if err != nil {
		return nil, 0, err
	}
	dspan := obs.FromContext(ctx).Child("core.decompress")
	t0 := time.Now()
	data, err := decodeProduct(ctx, r.pool, r.codec, h, l, p.Payload)
	secs := time.Since(t0).Seconds()
	dspan.End()
	metricDecompressSeconds.Add(secs)
	obs.RequestFrom(ctx).AddDecompress(secs)
	if err != nil {
		return nil, secs, fmt.Errorf("canopus: decompress level %d: %w", l, err)
	}
	if len(data) != m.NumVerts() {
		return nil, secs, fmt.Errorf("canopus: level %d data %d values for %d vertices", l, len(data), m.NumVerts())
	}
	return data, secs, nil
}

// refine applies one delta to v (toward full accuracy): it fetches level
// v.Level-1's delta tiles and restores against the view's coarse data
// (Algorithm 3), in place — the delta buffer becomes the fine data and the
// per-vertex loop shards over the reader's pool. v is only mutated on
// success, so a failed refinement leaves a complete view of the coarser
// level — what degradation returns.
func (r *Reader) refine(ctx context.Context, step int, v *View) error {
	l := v.Level - 1
	ctx, span := obs.StartSpan(ctx, "core.augment")
	span.SetAttr("name", r.name)
	span.SetAttrInt("level", l)
	defer span.End()
	metricAugments.Inc()
	h, lv, err := r.openLevel(ctx, step, l)
	if err != nil {
		return err
	}
	span.SetAttr("tier", h.TierName)
	d := make([]float64, lv.mesh.NumVerts())
	var decompress engine.Counter
	if err := r.readDeltaChunks(ctx, h, lv.tb, l, nil, d, nil, &decompress); err != nil {
		return err
	}
	v.Timings.addHandleIO(ctx, h)
	v.Timings.DecompressSeconds += decompress.Value()

	rspan := span.Child("core.restore")
	rspan.SetAttrInt("level", l)
	t0 := time.Now()
	fineData, err := delta.RestoreInto(ctx, r.pool, lv.mesh, v.Mesh, v.Data, lv.mapping, d, r.estimator, d)
	restoreSecs := time.Since(t0).Seconds()
	rspan.End()
	v.Timings.RestoreSeconds += restoreSecs
	metricRestoreSeconds.Add(restoreSecs)
	obs.RequestFrom(ctx).AddRestore(restoreSecs)
	if err != nil {
		return fmt.Errorf("canopus: restore level %d: %w", l, err)
	}
	v.Level = l
	v.Mesh = lv.mesh
	v.Data = fineData
	v.ErrorBound = r.boundAt(l)
	return nil
}

// dataKey is the storage key of level l's data product: the level
// container, or step's payload container in the campaign layout.
func (r *Reader) dataKey(step, l int) string {
	if r.campaign {
		return stepKey(r.name, step, l)
	}
	return levelKey(r.name, l)
}

// openLevel opens level l's data container (of step, in the campaign
// layout) and returns it with the level's hierarchy rung — the shared level
// loader of every read path.
func (r *Reader) openLevel(ctx context.Context, step, l int) (*adios.Handle, *rung, error) {
	h, err := r.aio.Open(ctx, r.dataKey(step, l), 1)
	if err != nil {
		return nil, nil, err
	}
	lv, err := r.rung(ctx, h, l)
	if err != nil {
		return nil, nil, err
	}
	return h, lv, nil
}

// rung returns level l's hierarchy rung, filling it at most once across all
// concurrent retrievals (single-flight on a miss). A single variable keeps
// the rung in the level's data container, so it loads from h, the handle
// the caller already opened, and its bytes land on that read's bill. A
// campaign keeps it in its own container, whose one-time cost accrues to
// HierarchyCost instead. A fill cut short — typically by its requester's
// cancellation — keeps the parts it loaded, so the next fill fetches only
// the rest; a retrieval that joined a fill its leader abandoned that way
// leads a fill of its own rather than fail with the leader's cancellation.
func (r *Reader) rung(ctx context.Context, h *adios.Handle, l int) (*rung, error) {
	r.mu.RLock()
	lv := r.rungs[l]
	r.mu.RUnlock()
	if lv != nil && lv.full {
		return lv, nil
	}
	for {
		lv, err := r.fillOnce(ctx, h, l)
		if err != nil && ctx.Err() == nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			continue
		}
		return lv, err
	}
}

// fillOnce runs or joins the single-flight fill of level l's rung.
func (r *Reader) fillOnce(ctx context.Context, h *adios.Handle, l int) (*rung, error) {
	got, err := r.flight.Do(strconv.Itoa(l), func() (any, error) {
		r.mu.RLock()
		lv := r.rungs[l]
		r.mu.RUnlock()
		if lv != nil && lv.full {
			return lv, nil
		}
		src := h
		if r.campaign {
			var err error
			if src, err = r.aio.Open(ctx, hierKey(r.name, l), 1); err != nil {
				return nil, err
			}
		}
		next := &rung{}
		if lv != nil {
			*next = *lv
		}
		err := r.fillRung(src, l, next)
		r.mu.Lock()
		r.rungs[l] = next
		if r.campaign {
			r.hierCost.Add(src.Cost())
		}
		r.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return next, nil
	})
	if err != nil {
		return nil, err
	}
	return got.(*rung), nil
}

// fillRung loads the parts of level l's rung that lv still lacks from an
// open container, marking it full once every part is present. Delta levels
// also carry a mapping and must record their tile frame.
func (r *Reader) fillRung(h *adios.Handle, l int, lv *rung) error {
	withDelta := r.mode == ModeDelta && l < r.levels-1
	if withDelta && lv.mapping == nil {
		raw, err := fetchDeflated(h, l, engine.KindMapping)
		if err != nil {
			return err
		}
		mp, _, err := delta.DecodeMapping(raw)
		if err != nil {
			return fmt.Errorf("canopus: mapping %d: %w", l, err)
		}
		lv.mapping = mp
	}
	if lv.mesh == nil {
		m, err := fetchMesh(h, l)
		if err != nil {
			return err
		}
		lv.mesh = m
	}
	if s, ok := h.BP.Attr("tile-frame"); ok {
		tb, err := parseTileBox(s)
		if err != nil {
			return err
		}
		lv.tb = tb
	} else if withDelta {
		return fmt.Errorf("canopus: level %d container missing tile-frame attribute", l)
	}
	lv.full = true
	return nil
}

// floatScratchPool recycles the per-shard decode buffers of the tile reader:
// every shard of the fan-out decodes its tiles into one reused []float64
// instead of allocating a fresh output per tile.
var floatScratchPool = sync.Pool{
	New: func() any {
		s := make([]float64, 0, 4096)
		return &s
	},
}

// readDeltaChunks reads level's delta tiles from an open data container,
// cut in frame tb, and scatters the decoded values into out (sized to the
// fine vertex count). When wantChunks is nil every stored tile is read (full
// augmentation); otherwise only the listed tile indices are fetched — the
// focused-read path. have, when non-nil, is marked true for each vertex
// whose delta was loaded. Decompression time accumulates into decompress.
//
// The I/O happens first, as one planned pass: the wanted tiles' extents are
// coalesced per the tier's gap threshold and fetched as a few ranged reads
// (Handle.ReadManyBytes), so the storage layer sees contiguous range
// requests instead of one operation per tile. Decoding then fans out on the
// pool, sharded over tiles: tiles cover disjoint vertex id sets, so
// concurrent scatters into out and have are race-free, and the restored
// field does not depend on the worker count. When the container holds fewer
// tiles than the pool has workers (the Chunks=1 layout), the chunked codec
// container supplies the parallelism instead: each tile's frame fans out
// chunk-wise on the same pool.
func (r *Reader) readDeltaChunks(ctx context.Context, h *adios.Handle, tb tileBox, level int, wantChunks []int, out []float64, have []bool, decompress *engine.Counter) error {
	chunks := wantChunks
	if chunks == nil {
		chunks = make([]int, tb.n*tb.n)
		for i := range chunks {
			chunks[i] = i
		}
	}
	var vars []bp.VarInfo
	var present []int
	for _, ci := range chunks {
		v, ok := h.InqVar(chunkVarName(ci), level)
		if !ok {
			if wantChunks != nil {
				return fmt.Errorf("canopus: level %d missing delta chunk %d", level, ci)
			}
			continue // empty tile
		}
		vars = append(vars, v)
		present = append(present, ci)
	}
	payloads, err := h.ReadManyBytes(vars)
	if err != nil {
		return err
	}
	dspan := obs.FromContext(ctx).Child("core.decompress")
	dspan.SetAttrInt("tiles", len(present))
	defer dspan.End()
	// Tile-level and chunk-level parallelism compete for the same pool;
	// route the pool to whichever axis has the fan-out.
	var innerPool *engine.Pool
	workers := 1
	if r.pool != nil {
		workers = r.pool.Workers()
	}
	if len(present) < workers {
		innerPool = r.pool
	}
	// The decoded-tile cache (when the IO has one attached) serves repeat
	// decodes of the same tile across requests; hits skip the bit-plane
	// decode but never the byte fetch above, so modeled cost stays
	// deterministic. Cached slices are shared and read-only — the scatter
	// below only copies out of vals, never writes into it — and cache
	// misses decode into a fresh slice (not the pooled scratch, whose
	// backing array is reused).
	tc := h.TileCache()
	key := h.Key()
	var tileHits, tileMisses atomic.Int64
	t0 := time.Now()
	err = r.pool.RunRange(ctx, len(present), func(start, end int) error {
		scratch := floatScratchPool.Get().(*[]float64)
		defer floatScratchPool.Put(scratch)
		for i := start; i < end; i++ {
			ci := present[i]
			runs, enc, err := parseChunkPayload(payloads[i])
			if err != nil {
				return fmt.Errorf("canopus: level %d chunk %d: %w", level, ci, err)
			}
			var vals []float64
			if tc != nil {
				var hit bool
				vals, hit, err = tc.GetOrDecode(key, level, ci, func() ([]float64, error) {
					return compress.ChunkedDecodeInto(ctx, innerPool, r.codec, nil, enc)
				})
				if hit {
					tileHits.Add(1)
				} else {
					tileMisses.Add(1)
				}
			} else {
				vals, err = compress.ChunkedDecodeInto(ctx, innerPool, r.codec, (*scratch)[:0], enc)
				if err == nil && cap(vals) > cap(*scratch) {
					*scratch = vals[:0]
				}
			}
			if err != nil {
				return fmt.Errorf("canopus: decompress delta %d chunk %d: %w", level, ci, err)
			}
			if len(vals) != runs.count() {
				return fmt.Errorf("canopus: level %d chunk %d: %d values for %d ids", level, ci, len(vals), runs.count())
			}
			var bad int64 = -1
			j := 0
			runs.forEachRun(func(rstart, rlen int64) {
				if rstart+rlen > int64(len(out)) {
					if bad < 0 {
						bad = rstart + rlen - 1
					}
					return
				}
				copy(out[rstart:rstart+rlen], vals[j:j+int(rlen)])
				j += int(rlen)
				if have != nil {
					for k := rstart; k < rstart+rlen; k++ {
						have[k] = true
					}
				}
			})
			if bad >= 0 {
				return fmt.Errorf("canopus: level %d chunk %d: vertex id %d out of range", level, ci, bad)
			}
		}
		return nil
	})
	elapsed := time.Since(t0).Seconds()
	decompress.Add(elapsed)
	metricDecompressSeconds.Add(elapsed)
	// Folded here — the same elapsed the caller's Timings receive through
	// decompress — so CostReport and PhaseTimings agree without a second
	// fold at the call sites. Tile-cache attribution folds at the same
	// site: one AddTileCache per decode pass.
	req := obs.RequestFrom(ctx)
	req.AddDecompress(elapsed)
	req.AddTileCache(tileHits.Load(), tileMisses.Load())
	return err
}

// RawReader retrieves the WriteRaw baseline product. Like Reader, it caches
// the static mesh after the first retrieval, so warm retrievals measure
// data I/O only — the same steady-state convention. It is safe for
// concurrent use.
type RawReader struct {
	aio  *adios.IO
	name string

	mu   sync.Mutex
	mesh *mesh.Mesh
}

// OpenRawReader prepares retrieval of a WriteRaw product.
func OpenRawReader(aio *adios.IO, name string) (*RawReader, error) {
	if aio.H.Where(rawKey(name)) < 0 {
		return nil, fmt.Errorf("canopus: open raw %q: %w", name, storage.ErrNotFound)
	}
	return &RawReader{aio: aio, name: name}, nil
}

// Retrieve reads the full-accuracy baseline.
func (r *RawReader) Retrieve(ctx context.Context) (*View, error) {
	h, err := r.aio.Open(ctx, rawKey(r.name), 1)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	m := r.mesh
	r.mu.Unlock()
	if m == nil {
		encMesh, err := h.ReadBytes("mesh", 0)
		if err != nil {
			return nil, err
		}
		m, _, err = mesh.Decode(encMesh)
		if err != nil {
			return nil, err
		}
		r.mu.Lock()
		r.mesh = m
		r.mu.Unlock()
	}
	raw, err := h.ReadBytes("data", 0)
	if err != nil {
		return nil, err
	}
	data, err := compress.Raw{}.Decode(raw)
	if err != nil {
		return nil, err
	}
	v := &View{Level: 0, Mesh: m, Data: data}
	v.Timings.addHandleIO(ctx, h)
	return v, nil
}

// ReadRaw retrieves the WriteRaw baseline product in one (cold) shot.
func ReadRaw(ctx context.Context, aio *adios.IO, name string) (*View, error) {
	r, err := OpenRawReader(aio, name)
	if err != nil {
		return nil, err
	}
	return r.Retrieve(ctx)
}
