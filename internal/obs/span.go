package obs

import (
	"context"
	"sync"
	"time"
)

// Spans give one request's trace ID structure: a tree of timed operations
// (HTTP handling → store call → engine commit → WAL append → fsync ack)
// with attributes, so a flight-recorder trace answers *where* inside a
// request the time went, not just how long the whole thing took.
//
// The design is pay-only-when-sampled. A context with no active span makes
// StartSpan return nil without allocating, and every *Span method is a
// nil-safe no-op, so instrumented code calls the API unconditionally and
// untraced hot paths stay at their existing allocs/op budgets (pinned by
// AllocsPerRun tests). Traced requests allocate from a pooled span arena
// owned by the trace, so steady-state tracing allocates no per-span memory
// either.

// Attr is one key/value annotation on a span. Values are either a string
// or an int64 — never fmt-formatted on the hot path; rendering to JSON
// happens only when a debug endpoint reads the trace.
type Attr struct {
	Key   string
	Str   string
	Num   int64
	IsNum bool
}

// Span is one timed operation inside a trace. Spans are created with
// StartSpan (or Span.StartChild), annotated with SetAttr/SetInt, and closed
// with End. A nil *Span is valid and inert, which is how untraced requests
// pay nothing.
//
// A span is owned by the goroutine that started it: SetAttr/SetInt/End must
// not race with each other. Different spans of one trace may be started and
// ended from different goroutines (the trace serializes span creation).
type Span struct {
	tr     *RequestTrace
	idx    int32 // this span's slot in the trace arena
	parent int32 // parent slot, -1 for the root
	ended  bool
	name   string
	start  time.Time
	dur    time.Duration // 0 until End
	attrs  []Attr
}

// DefaultMaxSpans bounds a trace's span arena when RecorderOptions does not
// override it. The arena never grows past its bound: overflow drops spans
// (and counts them).
const DefaultMaxSpans = 256

// spanChunk is the arena's allocation unit. A trace's spans live in
// fixed-size chunks allocated on first use and never moved, so a *Span
// stays valid while later spans land in later chunks, and a trace holds
// only the chunks its spans needed rather than MaxSpans slots.
const spanChunk = 16

// RequestTrace is one request's span tree plus its identity and outcome. Create
// through a Recorder (which pools arenas); the root span covers the whole
// request and every other span is a descendant of it.
type RequestTrace struct {
	mu      sync.Mutex
	id      string
	start   time.Time
	dur     time.Duration
	status  int
	reason  string             // why the recorder retained it: slow, error, rejected, sampled
	dropped int                // spans lost to arena overflow
	chunks  []*[spanChunk]Span // the arena; span i is chunks[i/spanChunk][i%spanChunk], 0 the root
	n       int                // spans in use
	max     int                // arena bound (MaxSpans)
}

// newTrace creates a trace whose arena holds at most maxSpans spans. No
// chunk is allocated until a span needs it.
func newTrace(maxSpans int) *RequestTrace {
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	return &RequestTrace{max: maxSpans}
}

// span returns span i, which must be in use.
func (t *RequestTrace) span(i int) *Span { return &t.chunks[i/spanChunk][i%spanChunk] }

// trim releases the chunks beyond those the spans in use occupy. The
// recorder calls it on a trace it retains: a recycled trace may carry
// chunks from an earlier, larger request, and a retained one should cost
// only what it used.
func (t *RequestTrace) trim() {
	used := (t.n + spanChunk - 1) / spanChunk
	clear(t.chunks[used:])
	t.chunks = t.chunks[:used]
}

// begin resets the (possibly recycled) trace for a new request and starts
// its root span. Attr backing arrays of recycled spans are kept, so a pooled
// trace reaches zero allocations per request at steady state.
func (t *RequestTrace) begin(id, rootName string) *Span {
	t.mu.Lock()
	t.id = id
	t.start = time.Now()
	t.dur = 0
	t.status = 0
	t.reason = ""
	t.dropped = 0
	t.n = 0
	sp := t.startSpanLocked(-1, rootName, t.start)
	t.mu.Unlock()
	return sp
}

// finish ends the root span and stamps the trace's outcome.
func (t *RequestTrace) finish(status int) {
	t.mu.Lock()
	if t.n > 0 && !t.span(0).ended {
		root := t.span(0)
		root.ended = true
		root.dur = time.Since(root.start)
	}
	t.dur = time.Since(t.start)
	t.status = status
	t.mu.Unlock()
}

// startSpan claims the next arena slot, allocating a chunk when the span
// opens one. A full arena drops the span (the caller sees nil, which
// no-ops), and the drop count is reported in the trace view.
func (t *RequestTrace) startSpan(parent int32, name string) *Span {
	now := time.Now()
	t.mu.Lock()
	sp := t.startSpanLocked(parent, name, now)
	t.mu.Unlock()
	return sp
}

func (t *RequestTrace) startSpanLocked(parent int32, name string, now time.Time) *Span {
	n := t.n
	if n == t.max {
		t.dropped++
		return nil
	}
	if n/spanChunk == len(t.chunks) {
		t.chunks = append(t.chunks, new([spanChunk]Span))
	}
	t.n++
	sp := t.span(n)
	sp.tr = t
	sp.idx = int32(n)
	sp.parent = parent
	sp.ended = false
	sp.name = name
	sp.start = now
	sp.dur = 0
	sp.attrs = sp.attrs[:0]
	return sp
}

// ID returns the trace's 16-hex identifier.
func (t *RequestTrace) ID() string { return t.id }

// Root returns the root span, or nil on an unstarted trace.
func (t *RequestTrace) Root() *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n == 0 {
		return nil
	}
	return t.span(0)
}

// Recording reports whether the span is live — use it to guard work (an
// extra time.Now, a formatted attribute) that only pays off when traced.
func (s *Span) Recording() bool { return s != nil }

// StartChild opens a child span under s. Nil-safe: a nil receiver returns
// nil, so untraced paths fall straight through.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.startSpan(s.idx, name)
}

// End closes the span, fixing its duration. Idempotent; nil-safe.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
}

// SetAttr annotates the span with a string value. Nil-safe.
func (s *Span) SetAttr(key, val string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Str: val})
}

// SetInt annotates the span with an integer value. Nil-safe.
func (s *Span) SetInt(key string, val int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Num: val, IsNum: true})
}

// spanKeyType keys the active span in a context, separate from the trace-ID
// key so plain ID propagation (logs) works with tracing off.
type spanKeyType struct{}

var spanKey spanKeyType

// ContextWithSpan returns a context whose active span is s. The middleware
// installs the root span this way; layers below derive children via
// StartSpan.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey, s)
}

// SpanFrom returns the context's active span, or nil when the request is
// untraced. Use it (with StartChild) when the derived context is not needed
// — it avoids StartSpan's context allocation.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// StartSpan opens a child of the context's active span and returns a
// context carrying the child. When the context has no active span it
// returns (ctx, nil) without allocating — the zero-cost untraced path.
// Close the returned span with End; all its methods tolerate nil.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFrom(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.StartChild(name)
	if child == nil { // arena full: keep the parent as the active span
		return ctx, nil
	}
	return ContextWithSpan(ctx, child), child
}

// AttrView is one rendered span attribute; Value is a string or an int64.
type AttrView struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// SpanView is one rendered span. Parent indexes into the enclosing
// TraceView's Spans slice (-1 for the root), which encodes the tree without
// nesting. DurationNs is 0 for a span that was never ended.
type SpanView struct {
	Name       string     `json:"name"`
	Parent     int        `json:"parent"`
	StartNs    int64      `json:"startNs"` // offset from the trace start
	DurationNs int64      `json:"durationNs"`
	Attrs      []AttrView `json:"attrs,omitempty"`
}

// TraceView is an immutable rendering of a finished trace, the JSON shape
// served by /debug/trace endpoints.
type TraceView struct {
	ID           string     `json:"id"`
	Route        string     `json:"route"` // the root span's name
	Status       int        `json:"status"`
	Start        time.Time  `json:"start"`
	DurationNs   int64      `json:"durationNs"`
	Reason       string     `json:"reason"` // why the recorder kept it
	DroppedSpans int        `json:"droppedSpans,omitempty"`
	Spans        []SpanView `json:"spans"`
}

// View renders the trace. Safe to call on a retained trace at any time; the
// recorder never recycles retained traces, so the copy is consistent.
func (t *RequestTrace) View() TraceView {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := TraceView{
		ID:           t.id,
		Status:       t.status,
		Start:        t.start,
		DurationNs:   int64(t.dur),
		Reason:       t.reason,
		DroppedSpans: t.dropped,
		Spans:        make([]SpanView, t.n),
	}
	if t.n > 0 {
		v.Route = t.span(0).name
	}
	for i := 0; i < t.n; i++ {
		sp := t.span(i)
		sv := SpanView{
			Name:       sp.name,
			Parent:     int(sp.parent),
			StartNs:    sp.start.Sub(t.start).Nanoseconds(),
			DurationNs: int64(sp.dur),
		}
		if len(sp.attrs) > 0 {
			sv.Attrs = make([]AttrView, len(sp.attrs))
			for j, a := range sp.attrs {
				if a.IsNum {
					sv.Attrs[j] = AttrView{Key: a.Key, Value: a.Num}
				} else {
					sv.Attrs[j] = AttrView{Key: a.Key, Value: a.Str}
				}
			}
		}
		v.Spans[i] = sv
	}
	return v
}
