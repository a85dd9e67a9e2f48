package obs

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one node of a trace tree: a named, timed section of work with
// string attributes and concurrently-appendable children. Spans are created
// by Trace (roots) and Span.Child / StartSpan (descendants); End closes a
// span and, for roots, records the completed tree into the process-wide
// ring buffer that /debug/trace/last and -metrics-json expose.
//
// The nil *Span is a valid no-op: every method tolerates a nil receiver, so
// instrumented code calls Child/SetAttr/End unconditionally and tracing
// costs almost nothing when no root span is active in the context — the
// single pattern that keeps hot-path overhead inside the <5% budget.
type Span struct {
	name  string
	start time.Time
	id    uint64 // non-zero on roots only: the trace ID exemplars link by

	mu       sync.Mutex
	end      time.Time
	attrs    []attr
	children []*Span
	dropped  int64 // children refused past maxChildren
	root     *Span // self for roots; the tree's root otherwise

	// Roots own a slab the whole tree's spans are carved from. Span-heavy
	// request trees (one span per chunk read) otherwise pay one heap object
	// per child, and that garbage — not the spans' CPU cost — is what shows
	// up as GC assist time in the overhead benchmark.
	slabMu sync.Mutex
	slab   []Span
}

// childBlock is how many child spans are allocated per slab refill.
const childBlock = 16

// maxChildren caps the children one span keeps. A span that outlives its
// work (a long-lived root that every loop iteration hangs a child off)
// would otherwise grow its child list and its tree's slab without bound;
// past the cap Child returns the nil no-op span and the drop is counted on
// the parent's dump and in canopus_obs_spans_dropped_total. The cap sits
// far above any request tree's fan-out.
const maxChildren = 1024

var metricSpansDropped = NewCounter("canopus_obs_spans_dropped_total")

// attr is one span attribute. Integer values stay unformatted until the
// span is dumped, so hot paths pay an append instead of strconv + a map
// insert; duplicate keys resolve last-wins at dump time.
type attr struct {
	key   string
	str   string
	num   int
	isNum bool
}

// ctxKey carries the active span through context.Context.
type ctxKey struct{}

// traceIDSeq assigns process-unique root trace IDs.
var traceIDSeq atomic.Uint64

// Trace starts a new root span and returns a context carrying it. The
// returned span must be End()ed to publish the tree.
func Trace(ctx context.Context, name string) (context.Context, *Span) {
	s := &Span{name: name, start: time.Now(), id: traceIDSeq.Add(1)}
	s.root = s
	return context.WithValue(ctx, ctxKey{}, s), s
}

// TraceID reports the ID of the trace this span belongs to (0 for nil
// spans — tracing off). Latency-histogram exemplars store this ID; the
// matching pinned tree is served by /debug/trace/slow?id=.
func (s *Span) TraceID() uint64 {
	if s == nil || s.root == nil {
		return 0
	}
	return s.root.id
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// StartSpan opens a child of the context's active span and returns a context
// carrying the child. With no active span it returns ctx unchanged and a nil
// span — tracing disabled, all downstream span calls become no-ops.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	c := parent.Child(name)
	return context.WithValue(ctx, ctxKey{}, c), c
}

// Child opens and returns a sub-span. Safe to call from concurrent
// goroutines working under one parent (delta tiles decode in parallel).
// Once s holds maxChildren children, Child drops the new one and returns
// the nil no-op span.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.children) >= maxChildren {
		s.dropped++
		metricSpansDropped.Inc()
		return nil
	}
	root := s.root
	root.slabMu.Lock()
	if len(root.slab) == 0 {
		root.slab = make([]Span, childBlock)
	}
	c := &root.slab[0]
	root.slab = root.slab[1:]
	root.slabMu.Unlock()
	c.name, c.start, c.root = name, start, root
	if s.children == nil {
		s.children = make([]*Span, 0, 8)
	}
	s.children = append(s.children, c)
	return c
}

// appendAttr adds one attribute under s.mu, sizing the backing array for
// the common handful-of-attrs span in one allocation.
func (s *Span) appendAttr(a attr) {
	if s.attrs == nil {
		s.attrs = make([]attr, 0, 4)
	}
	s.attrs = append(s.attrs, a)
}

// SetAttr attaches a key=value attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.appendAttr(attr{key: key, str: value})
	s.mu.Unlock()
}

// SetAttrInt attaches an integer attribute. The value is held as an int and
// formatted only if the span is ever dumped, so hot paths carry no strconv
// cost for traces nobody reads.
func (s *Span) SetAttrInt(key string, value int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.appendAttr(attr{key: key, num: value, isNum: true})
	s.mu.Unlock()
}

// End closes the span. Ending a root publishes its dump to the trace ring;
// ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
	if s.root == s {
		recordTrace(s)
	}
}

// Duration reports end-start for a closed span, or the running duration of
// an open one.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

// SpanDump is the immutable JSON form of a span tree. TraceID is set on
// root spans only (0 elsewhere) and is the handle latency-histogram
// exemplars and /debug/trace/slow?id= use to find a pinned tree.
// DroppedChildren counts the children refused past the per-span cap.
type SpanDump struct {
	Name            string            `json:"name"`
	TraceID         uint64            `json:"trace_id,omitempty"`
	StartUnixNano   int64             `json:"start_unix_nano"`
	DurationSeconds float64           `json:"duration_seconds"`
	Attrs           map[string]string `json:"attrs,omitempty"`
	Children        []SpanDump        `json:"children,omitempty"`
	DroppedChildren int64             `json:"dropped_children,omitempty"`
}

// Walk visits the dump and every descendant, depth first.
func (d SpanDump) Walk(visit func(SpanDump)) {
	visit(d)
	for _, c := range d.Children {
		c.Walk(visit)
	}
}

// Dump deep-copies the span tree into its JSON form. Open descendants report
// their running duration.
func (s *Span) Dump() SpanDump {
	if s == nil {
		return SpanDump{}
	}
	return s.dump()
}

func (s *Span) dump() SpanDump {
	s.mu.Lock()
	d := SpanDump{
		Name:            s.name,
		TraceID:         s.id,
		StartUnixNano:   s.start.UnixNano(),
		DurationSeconds: s.durationLocked().Seconds(),
		DroppedChildren: s.dropped,
	}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			if a.isNum {
				d.Attrs[a.key] = strconv.Itoa(a.num)
			} else {
				d.Attrs[a.key] = a.str
			}
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		d.Children = append(d.Children, c.dump())
	}
	return d
}

func (s *Span) durationLocked() time.Duration {
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

// DefaultTraceRetention is the depth of both the recent-trace ring and the
// slow-trace ring when SetTraceRetention has not chosen otherwise (the
// historical hard-coded depth).
const DefaultTraceRetention = 32

// The rings retain live *Span roots, not dumps: deep-copying a 50-span tree
// on every root End is the kind of per-request allocation burst that shows
// up as GC assist time in the hot path and blows the <5% overhead budget.
// Trees are dumped lazily, only when a debug endpoint or snapshot reads
// them; a still-open descendant then reports its running duration.
var (
	traceMu   sync.Mutex
	traceRing []*Span // oldest first, bounded by traceCap
	traceCap  = DefaultTraceRetention

	// slowRing pins root traces whose duration met the slow threshold.
	// Slow traces matter precisely because they are rare: in the recent
	// ring one tail-latency trace ages out under a burst of fast ones, so
	// it gets its own retention and its own endpoint.
	slowRing      []*Span // oldest first, bounded by slowCap
	slowCap       = DefaultTraceRetention
	slowThreshold time.Duration // 0 = slow-trace pinning off
)

// SetTraceRetention bounds the recent-trace ring to recent entries and the
// slow-trace ring to slow entries (<= 0 restores DefaultTraceRetention for
// that ring). Already-retained traces are kept newest-first up to the new
// bounds.
func SetTraceRetention(recent, slow int) {
	if recent <= 0 {
		recent = DefaultTraceRetention
	}
	if slow <= 0 {
		slow = DefaultTraceRetention
	}
	traceMu.Lock()
	defer traceMu.Unlock()
	traceCap, slowCap = recent, slow
	if len(traceRing) > traceCap {
		traceRing = append([]*Span(nil), traceRing[len(traceRing)-traceCap:]...)
	}
	if len(slowRing) > slowCap {
		slowRing = append([]*Span(nil), slowRing[len(slowRing)-slowCap:]...)
	}
}

// SetSlowTraceThreshold pins every root trace at least d long into the
// slow-trace ring as it completes (d <= 0 disables pinning, the default).
// The CLI tools expose this as -slow-trace-ms.
func SetSlowTraceThreshold(d time.Duration) {
	traceMu.Lock()
	if d < 0 {
		d = 0
	}
	slowThreshold = d
	traceMu.Unlock()
}

// SlowTraceThreshold reports the active pinning threshold (0 = off).
func SlowTraceThreshold() time.Duration {
	traceMu.Lock()
	defer traceMu.Unlock()
	return slowThreshold
}

func recordTrace(s *Span) {
	traceMu.Lock()
	defer traceMu.Unlock()
	traceRing = append(traceRing, s)
	if len(traceRing) > traceCap {
		traceRing = traceRing[len(traceRing)-traceCap:]
	}
	if slowThreshold > 0 && s.Duration() >= slowThreshold {
		slowRing = append(slowRing, s)
		if len(slowRing) > slowCap {
			slowRing = slowRing[len(slowRing)-slowCap:]
		}
	}
}

// LastTraces returns up to n most recent completed root traces, newest
// first. n <= 0 returns all retained traces.
func LastTraces(n int) []SpanDump {
	return dumpLast(func() []*Span {
		traceMu.Lock()
		defer traceMu.Unlock()
		return append([]*Span(nil), traceRing...)
	}(), n)
}

// SlowTraces returns up to n most recently pinned slow traces, newest
// first. n <= 0 returns all retained slow traces.
func SlowTraces(n int) []SpanDump {
	return dumpLast(func() []*Span {
		traceMu.Lock()
		defer traceMu.Unlock()
		return append([]*Span(nil), slowRing...)
	}(), n)
}

// SlowTraceByID finds a pinned slow trace by its root trace ID — the lookup
// behind a latency-histogram exemplar.
func SlowTraceByID(id uint64) (SpanDump, bool) {
	traceMu.Lock()
	var found *Span
	for i := len(slowRing) - 1; i >= 0; i-- {
		if slowRing[i].id == id {
			found = slowRing[i]
			break
		}
	}
	traceMu.Unlock()
	if found == nil {
		return SpanDump{}, false
	}
	// Dump outside traceMu: dump() takes each span's own lock, and holding
	// the ring lock across a tree walk would stall every End().
	return found.dump(), true
}

// dumpLast renders the newest n roots of a ring copy, newest first, outside
// the ring lock.
func dumpLast(ring []*Span, n int) []SpanDump {
	if n <= 0 || n > len(ring) {
		n = len(ring)
	}
	out := make([]SpanDump, 0, n)
	for i := len(ring) - 1; i >= len(ring)-n; i-- {
		out = append(out, ring[i].dump())
	}
	return out
}

// ResetTraces clears the retained traces, both rings (tests and fixed
// benchmark workloads use it to isolate runs).
func ResetTraces() {
	traceMu.Lock()
	traceRing = nil
	slowRing = nil
	traceMu.Unlock()
}
