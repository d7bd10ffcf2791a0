package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Recorder is an always-on flight recorder: a lock-free ring of the most
// recently retained traces. Retention is tail-based — the decision is made
// when the request *finishes*, so the recorder keeps exactly the traces an
// operator will ask about (slow, errored, constraint-rejected) and only a
// sample of the unremarkable rest. Publication into the ring is a single
// atomic pointer store; readers (debug endpoints) scan the ring without
// blocking writers.
//
// RequestTrace arenas are pooled: a trace the recorder declines to keep is reset
// and recycled, so at steady state an unsampled traced request allocates no
// span memory at all. Retained traces are never recycled — a reader may
// still be rendering one long after it is overwritten in the ring — they
// are trimmed to the span chunks they used and left to the garbage
// collector when evicted, so a full ring costs what its traces recorded.
type Recorder struct {
	slots []atomic.Pointer[RequestTrace]
	mask  uint64
	next  atomic.Uint64 // ring write cursor (total retained traces)

	slow        time.Duration
	sampleEvery uint64
	sampleTick  atomic.Uint64
	maxSpans    int

	pool     sync.Pool
	recorded Counter // traces retained in the ring
	dropped  Counter // traces completed but not retained
}

// RecorderOptions tunes NewRecorder. The zero value gives the defaults:
// a 512-slot ring, 256 spans per trace, retain everything slower than
// DefaultSlowTrace, and sample 1 in DefaultSampleEvery of the rest.
type RecorderOptions struct {
	// Capacity is the ring size in traces, rounded up to a power of two.
	Capacity int
	// Slow retains every trace whose total duration meets the threshold.
	// Negative disables slowness-based retention; 0 means the default.
	Slow time.Duration
	// SampleEvery retains 1 in N traces that are neither slow nor failed;
	// 1 retains everything, 0 means the default.
	SampleEvery int
	// MaxSpans bounds each trace's span arena (see DefaultMaxSpans).
	MaxSpans int
}

// DefaultRingCapacity is the default number of ring slots.
const DefaultRingCapacity = 512

// DefaultSlowTrace is the default retain-everything-slower-than threshold.
const DefaultSlowTrace = 100 * time.Millisecond

// DefaultSampleEvery is the default 1-in-N sampling rate for traces that
// are neither slow nor failed.
const DefaultSampleEvery = 16

// NewRecorder builds a flight recorder.
func NewRecorder(o RecorderOptions) *Recorder {
	capacity := o.Capacity
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	slow := o.Slow
	switch {
	case slow < 0:
		slow = 0 // disabled
	case slow == 0:
		slow = DefaultSlowTrace
	}
	sample := uint64(o.SampleEvery)
	if sample == 0 {
		sample = DefaultSampleEvery
	}
	maxSpans := o.MaxSpans
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	r := &Recorder{
		slots:       make([]atomic.Pointer[RequestTrace], size),
		mask:        uint64(size - 1),
		slow:        slow,
		sampleEvery: sample,
		maxSpans:    maxSpans,
	}
	r.pool.New = func() any { return newTrace(maxSpans) }
	return r
}

// Start begins a trace for one request: a pooled arena is claimed, reset
// under the given ID, and its root span opened. Pass both to Finish when
// the request completes. Nil-safe on a nil recorder (returns nils, and the
// nil span makes every downstream StartSpan free).
func (r *Recorder) Start(id, rootName string) (*RequestTrace, *Span) {
	if r == nil {
		return nil, nil
	}
	tr := r.pool.Get().(*RequestTrace)
	root := tr.begin(id, rootName)
	return tr, root
}

// Finish completes a trace and applies tail-based retention: keep it when
// the request was rejected (409), failed (5xx), or slow; otherwise keep 1
// in SampleEvery and recycle the rest. Nil-safe.
func (r *Recorder) Finish(t *RequestTrace, status int) {
	if r == nil || t == nil {
		return
	}
	t.finish(status)
	reason := ""
	switch {
	case status == 409:
		reason = "rejected"
	case status >= 500:
		reason = "error"
	case r.slow > 0 && t.dur >= r.slow:
		reason = "slow"
	case r.sampleEvery <= 1 || r.sampleTick.Add(1)%r.sampleEvery == 0:
		reason = "sampled"
	}
	if reason == "" {
		r.dropped.Inc()
		r.pool.Put(t)
		return
	}
	t.mu.Lock()
	t.reason = reason
	t.trim()
	t.mu.Unlock()
	r.recorded.Inc()
	slot := (r.next.Add(1) - 1) & r.mask
	r.slots[slot].Store(t)
}

// Occupancy returns the number of ring slots holding a trace.
func (r *Recorder) Occupancy() int {
	n := r.next.Load()
	if n > uint64(len(r.slots)) {
		return len(r.slots)
	}
	return int(n)
}

// Get returns the retained trace with the given ID, preferring the most
// recent when a client reused an ID.
func (r *Recorder) Get(id string) (TraceView, bool) {
	var best *RequestTrace
	for i := range r.slots {
		t := r.slots[i].Load()
		if t == nil || t.id != id {
			continue
		}
		if best == nil || t.start.After(best.start) {
			best = t
		}
	}
	if best == nil {
		return TraceView{}, false
	}
	return best.View(), true
}

// Recent returns up to limit retained traces, newest first, filtered to
// those lasting at least minDur and (when route is non-empty) whose root
// span name equals route. limit <= 0 means no limit beyond the ring size.
func (r *Recorder) Recent(minDur time.Duration, route string, limit int) []TraceView {
	traces := make([]*RequestTrace, 0, len(r.slots))
	for i := range r.slots {
		t := r.slots[i].Load()
		if t == nil {
			continue
		}
		if t.dur < minDur {
			continue
		}
		if route != "" {
			t.mu.Lock()
			name := ""
			if t.n > 0 {
				name = t.span(0).name
			}
			t.mu.Unlock()
			if name != route {
				continue
			}
		}
		traces = append(traces, t)
	}
	sort.Slice(traces, func(a, b int) bool { return traces[a].start.After(traces[b].start) })
	if limit > 0 && len(traces) > limit {
		traces = traces[:limit]
	}
	out := make([]TraceView, len(traces))
	for i, t := range traces {
		out[i] = t.View()
	}
	return out
}

// Register files the recorder's metric families with the registry: retained
// and discarded trace counters plus a ring-occupancy gauge.
func (r *Recorder) Register(reg *Registry) {
	reg.CounterFunc("obs_trace_recorded_total",
		"traces retained in the flight-recorder ring", r.recorded.Value)
	reg.CounterFunc("obs_trace_dropped_total",
		"completed traces not retained (tail sampling)", r.dropped.Value)
	reg.GaugeFunc("obs_trace_ring_occupancy",
		"flight-recorder ring slots holding a trace",
		func() float64 { return float64(r.Occupancy()) })
}
