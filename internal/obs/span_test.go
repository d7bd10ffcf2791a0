package obs

import (
	"context"
	"testing"
	"time"
)

func TestValidTraceID(t *testing.T) {
	valid := []string{"0123456789abcdef", "ffffffffffffffff", NewTraceID()}
	for _, id := range valid {
		if !ValidTraceID(id) {
			t.Errorf("ValidTraceID(%q) = false, want true", id)
		}
	}
	invalid := []string{
		"", "abc", "0123456789abcde", "0123456789abcdef0", // wrong length
		"0123456789ABCDEF",    // uppercase not accepted (normalize first)
		"0123456789abcdeg",    // non-hex
		"0123456789 abcdef",   // embedded space
		"..23456789abcdef",    // punctuation
		"0123456789abcdef\n",  // trailing newline
		"\x000123456789abcde", // control byte
	}
	for _, id := range invalid {
		if ValidTraceID(id) {
			t.Errorf("ValidTraceID(%q) = true, want false", id)
		}
	}
}

func TestNilSpanIsInert(t *testing.T) {
	var sp *Span
	if sp.Recording() {
		t.Fatal("nil span claims to be recording")
	}
	// None of these may panic.
	sp.SetAttr("k", "v")
	sp.SetInt("n", 1)
	sp.End()
	if child := sp.StartChild("child"); child != nil {
		t.Fatalf("nil span produced a child: %v", child)
	}
	ctx, got := StartSpan(context.Background(), "op")
	if got != nil {
		t.Fatalf("StartSpan on a spanless context returned %v, want nil", got)
	}
	if SpanFrom(ctx) != nil {
		t.Fatal("spanless context acquired a span")
	}
}

func TestSpanTree(t *testing.T) {
	tr := newTrace(8)
	root := tr.begin("0123456789abcdef", "POST /insert")
	if !root.Recording() {
		t.Fatal("root not recording")
	}
	ctx := ContextWithSpan(context.Background(), root)
	ctx, store := StartSpan(ctx, "store.insert")
	store.SetAttr("relation", "CT")
	_, eng := StartSpan(ctx, "engine.insert")
	eng.SetInt("lock_wait_ns", 42)
	eng.End()
	eng.End() // idempotent
	store.End()
	tr.finish(200)

	v := tr.View()
	if v.ID != "0123456789abcdef" || v.Route != "POST /insert" || v.Status != 200 {
		t.Fatalf("trace header: %+v", v)
	}
	if len(v.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(v.Spans))
	}
	if v.Spans[0].Parent != -1 || v.Spans[1].Parent != 0 || v.Spans[2].Parent != 1 {
		t.Fatalf("parent links: %d %d %d", v.Spans[0].Parent, v.Spans[1].Parent, v.Spans[2].Parent)
	}
	if v.Spans[1].Name != "store.insert" || v.Spans[2].Name != "engine.insert" {
		t.Fatalf("span names: %q %q", v.Spans[1].Name, v.Spans[2].Name)
	}
	if len(v.Spans[1].Attrs) != 1 || v.Spans[1].Attrs[0].Value != "CT" {
		t.Fatalf("store attrs: %+v", v.Spans[1].Attrs)
	}
	if len(v.Spans[2].Attrs) != 1 || v.Spans[2].Attrs[0].Value != int64(42) {
		t.Fatalf("engine attrs: %+v", v.Spans[2].Attrs)
	}
	for i, sv := range v.Spans {
		if sv.DurationNs < 0 {
			t.Fatalf("span %d has negative duration %d", i, sv.DurationNs)
		}
	}
}

func TestSpanArenaOverflowDrops(t *testing.T) {
	tr := newTrace(4)
	root := tr.begin("0123456789abcdef", "root")
	var last *Span
	for i := 0; i < 3; i++ { // fills slots 1..3
		last = root.StartChild("child")
		if last == nil {
			t.Fatalf("child %d dropped before the arena was full", i)
		}
	}
	over := root.StartChild("overflow")
	if over != nil {
		t.Fatal("overflow span was not dropped")
	}
	// The active span survives overflow: StartSpan keeps the parent.
	ctx := ContextWithSpan(context.Background(), last)
	ctx2, sp := StartSpan(ctx, "also-overflow")
	if sp != nil {
		t.Fatal("StartSpan allocated past a full arena")
	}
	if SpanFrom(ctx2) != last {
		t.Fatal("full arena changed the context's active span")
	}
	tr.finish(200)
	v := tr.View()
	if len(v.Spans) != 4 || v.DroppedSpans != 2 {
		t.Fatalf("got %d spans, %d dropped; want 4 spans, 2 dropped", len(v.Spans), v.DroppedSpans)
	}
}

func TestTraceReuseResetsState(t *testing.T) {
	tr := newTrace(8)
	root := tr.begin("aaaaaaaaaaaaaaaa", "first")
	root.StartChild("one").End()
	tr.finish(500)

	root = tr.begin("bbbbbbbbbbbbbbbb", "second")
	root.SetAttr("k", "v")
	tr.finish(200)
	v := tr.View()
	if v.ID != "bbbbbbbbbbbbbbbb" || v.Route != "second" || v.Status != 200 {
		t.Fatalf("recycled trace kept stale state: %+v", v)
	}
	if len(v.Spans) != 1 || v.DroppedSpans != 0 {
		t.Fatalf("recycled trace kept stale spans: %+v", v)
	}
}

func TestRootDurationStampedOnce(t *testing.T) {
	tr := newTrace(4)
	root := tr.begin("0123456789abcdef", "root")
	time.Sleep(time.Millisecond)
	tr.finish(200)
	v := tr.View()
	if v.DurationNs <= 0 || v.Spans[0].DurationNs <= 0 {
		t.Fatalf("durations not stamped: trace=%d root=%d", v.DurationNs, v.Spans[0].DurationNs)
	}
	_ = root
}

// Spans handed out from the first chunk must stay valid — same object,
// still writable, still rendered — after later spans allocate chunks 1
// and 2.
func TestSpanPointersStableAcrossChunks(t *testing.T) {
	tr := newTrace(DefaultMaxSpans)
	root := tr.begin("0123456789abcdef", "root")
	early := make([]*Span, 0, spanChunk-1)
	for i := 1; i < spanChunk; i++ {
		early = append(early, root.StartChild("early"))
	}
	for i := 0; i < 2*spanChunk; i++ { // fills chunks 1 and 2
		root.StartChild("late").End()
	}
	if len(tr.chunks) != 3 {
		t.Fatalf("trace holds %d chunks, want 3", len(tr.chunks))
	}
	for i, sp := range early {
		if sp != tr.span(i+1) {
			t.Fatalf("span %d moved after later chunks were allocated", i+1)
		}
		sp.SetInt("i", int64(i))
		sp.End()
	}
	if tr.Root() != root {
		t.Fatal("root span moved")
	}
	tr.finish(200)
	v := tr.View()
	if len(v.Spans) != 3*spanChunk {
		t.Fatalf("got %d spans, want %d", len(v.Spans), 3*spanChunk)
	}
	for i := range early {
		sv := v.Spans[i+1]
		if sv.Name != "early" || len(sv.Attrs) != 1 || sv.Attrs[0].Value != int64(i) {
			t.Fatalf("span %d rendered as %+v", i+1, sv)
		}
	}
}

// Overflow past a MaxSpans bound that spans several chunks drops and counts
// exactly as within one chunk, and allocates no chunk beyond the bound.
func TestSpanOverflowAcrossChunks(t *testing.T) {
	const maxSpans = 2*spanChunk + 3
	tr := newTrace(maxSpans)
	root := tr.begin("0123456789abcdef", "root")
	for i := 1; i < maxSpans; i++ {
		if root.StartChild("child") == nil {
			t.Fatalf("span %d dropped below the bound", i)
		}
	}
	for i := 0; i < 5; i++ {
		if root.StartChild("overflow") != nil {
			t.Fatal("span past MaxSpans was not dropped")
		}
	}
	tr.finish(200)
	v := tr.View()
	if len(v.Spans) != maxSpans || v.DroppedSpans != 5 {
		t.Fatalf("got %d spans, %d dropped; want %d, 5", len(v.Spans), v.DroppedSpans, maxSpans)
	}
	if len(tr.chunks) != 3 {
		t.Fatalf("trace holds %d chunks, want 3", len(tr.chunks))
	}
}

// A retained trace keeps only the chunks its spans used, even when its
// pooled arena grew larger serving an earlier request.
func TestRetainedTraceHoldsUsedChunks(t *testing.T) {
	r := NewRecorder(RecorderOptions{Capacity: 4, Slow: -1, SampleEvery: 1 << 30})
	tr, root := r.Start(testID(1), "POST /batchbin")
	for i := 0; i < 3*spanChunk; i++ {
		root.StartChild("wide").End()
	}
	r.Finish(tr, 200) // unsampled: recycled with its three chunks
	tr, root = r.Start(testID(2), "POST /batchbin")
	root.StartChild("store.batchbin").StartChild("engine.batch").End()
	r.Finish(tr, 409) // rejected: retained
	got, ok := r.Get(testID(2))
	if !ok || len(got.Spans) != 3 {
		t.Fatalf("retained trace: ok=%v spans=%d, want 3", ok, len(got.Spans))
	}
	if len(tr.chunks) != 1 {
		t.Fatalf("retained 3-span trace holds %d chunks, want 1", len(tr.chunks))
	}
}
