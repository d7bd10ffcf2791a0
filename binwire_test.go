package indep

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// binTestSchema is the paper's running example: independent, three schemes,
// shared attributes across relations so interned values are reused.
func binTestSchema(t testing.TB) *Schema {
	t.Helper()
	sch, err := Parse("CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

// binTestOps builds n valid rows cycling over the schema's relations, with
// value reuse (every FD holds by construction: each value is a function of
// its attribute and seed).
func binTestOps(n int) []BatchOp {
	rels := [][2]any{
		{"CT", []string{"C", "T"}},
		{"CS", []string{"C", "S"}},
		{"CHR", []string{"C", "H", "R"}},
	}
	ops := make([]BatchOp, n)
	for i := range ops {
		rel := rels[i%len(rels)]
		attrs := rel[1].([]string)
		row := make(map[string]string, len(attrs))
		for _, a := range attrs {
			row[a] = fmt.Sprintf("%s%d", a, i/len(rels)%7)
		}
		ops[i] = BatchOp{Rel: rel[0].(string), Row: row}
	}
	return ops
}

// TestBinBatchRoundTrip pins the wire contract: a 64-op encoder payload
// applied through ApplyBinBatch yields exactly the state the JSON path's
// InsertBatch yields for the same rows.
func TestBinBatchRoundTrip(t *testing.T) {
	sch := binTestSchema(t)
	ops := binTestOps(64)

	want, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := want.InsertBatch(ops); err != nil {
		t.Fatal(err)
	}

	enc := NewBinBatchEncoder(sch)
	for _, op := range ops {
		if err := enc.Add(op.Rel, op.Row); err != nil {
			t.Fatal(err)
		}
	}
	if enc.Len() != 64 {
		t.Fatalf("encoder holds %d ops, want 64", enc.Len())
	}
	got, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	n, err := got.ApplyBinBatch(context.Background(), enc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n != 64 {
		t.Fatalf("ApplyBinBatch admitted %d rows, want 64", n)
	}
	if diffs := DiffDatabases(want.Snapshot(), got.Snapshot()); diffs != nil {
		t.Fatalf("binary batch diverged from JSON path: %v", diffs)
	}

	// Reset must yield a self-contained next payload (bindings re-emitted).
	enc.Reset()
	if enc.Len() != 0 {
		t.Fatalf("Len after Reset = %d", enc.Len())
	}
	if err := enc.Add("CT", map[string]string{"C": "C0", "T": "T0"}); err != nil {
		t.Fatal(err)
	}
	fresh, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := fresh.ApplyBinBatch(context.Background(), enc.Bytes()); err != nil || n != 1 {
		t.Fatalf("post-Reset payload: n=%d err=%v", n, err)
	}
}

// TestBinBatchAtomicReject: an FD-violating binary batch is rejected as a
// whole and leaves the state unchanged.
func TestBinBatchAtomicReject(t *testing.T) {
	sch := binTestSchema(t)
	cs, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	enc := NewBinBatchEncoder(sch)
	for _, row := range []map[string]string{
		{"C": "cs101", "T": "jones"},
		{"C": "cs101", "T": "smith"}, // violates C -> T
	} {
		if err := enc.Add("CT", row); err != nil {
			t.Fatal(err)
		}
	}
	n, err := cs.ApplyBinBatch(context.Background(), enc.Bytes())
	if !Rejected(err) {
		t.Fatalf("want rejection, got n=%d err=%v", n, err)
	}
	if cs.Rows() != 0 {
		t.Fatalf("rejected batch left %d rows", cs.Rows())
	}
}

// TestBinBatchMalformed: structurally bad payloads are errors (never
// rejections, never panics) and leave the state unchanged.
func TestBinBatchMalformed(t *testing.T) {
	sch := binTestSchema(t)
	cs, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	enc := NewBinBatchEncoder(sch)
	if err := enc.Add("CT", map[string]string{"C": "c", "T": "t"}); err != nil {
		t.Fatal(err)
	}
	valid := enc.Bytes()
	cases := map[string][]byte{
		"truncated":   valid[:len(valid)-3],
		"corrupted":   append(append([]byte(nil), valid[:len(valid)-1]...), valid[len(valid)-1]^0xff),
		"empty frame": {0, 0, 0, 0, 0, 0, 0, 0},
	}
	for name, payload := range cases {
		n, err := cs.ApplyBinBatch(context.Background(), payload)
		if err == nil || Rejected(err) {
			t.Errorf("%s: want malformed error, got n=%d err=%v", name, n, err)
		}
	}
	if cs.Rows() != 0 {
		t.Fatalf("malformed payloads left %d rows", cs.Rows())
	}
}

// TestWindowBinaryRoundTrip: the binary window result decodes to exactly the
// JSON-shaped result, across projection, selection, and limit.
func TestWindowBinaryRoundTrip(t *testing.T) {
	sch := binTestSchema(t)
	cs, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.InsertBatch(binTestOps(60)); err != nil {
		t.Fatal(err)
	}
	queries := []WindowQuery{
		{Attrs: []string{"C", "T"}},
		{Attrs: []string{"C", "T", "S"}, Limit: 3},
		{Attrs: []string{"C", "T"}, Where: map[string]string{"C": "C1"}},
		{Attrs: []string{"C", "T"}, Project: []string{"T"}},
		{Attrs: []string{"C"}, Where: map[string]string{"C": "never-seen"}},
	}
	for _, q := range queries {
		want, err := cs.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		q.BinaryResult = true
		res, err := cs.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows != nil || len(res.Bin) == 0 {
			t.Fatalf("binary result: Rows=%v len(Bin)=%d", res.Rows, len(res.Bin))
		}
		got, err := DecodeWindowBinary(res.Bin)
		if err != nil {
			t.Fatalf("decode %v: %v", q.Attrs, err)
		}
		// PlanCached is excluded: the second run of the same attrs hits the
		// plan cache by design, so the two results legitimately differ there.
		if !reflect.DeepEqual(got.Attrs, want.Attrs) || got.Total != want.Total ||
			got.FastPath != want.FastPath {
			t.Fatalf("header mismatch: got %+v want %+v", got, want)
		}
		wrows := want.Rows
		grows := got.Rows
		if len(wrows) != len(grows) {
			t.Fatalf("row count %d vs %d", len(grows), len(wrows))
		}
		for i := range wrows {
			if !reflect.DeepEqual(grows[i], wrows[i]) {
				t.Fatalf("row %d: got %v want %v", i, grows[i], wrows[i])
			}
		}
	}
}

// FuzzDecodeBinaryBatch: arbitrary bytes through the full binary ingest path
// must error or apply cleanly — never panic, never corrupt the store into a
// state its own invariants reject.
func FuzzDecodeBinaryBatch(f *testing.F) {
	sch, err := Parse("CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	if err != nil {
		f.Fatal(err)
	}
	enc := NewBinBatchEncoder(sch)
	for _, op := range binTestOps(8) {
		if err := enc.Add(op.Rel, op.Row); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(enc.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	cs, err := sch.OpenConcurrentStore()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		cs.ApplyBinBatch(context.Background(), payload)
	})
}

// FuzzDecodeWindowBinary: the result decoder must reject arbitrary bytes
// without panicking, and round-trip every valid encoding.
func FuzzDecodeWindowBinary(f *testing.F) {
	sch, err := Parse("CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	if err != nil {
		f.Fatal(err)
	}
	cs, err := sch.OpenConcurrentStore()
	if err != nil {
		f.Fatal(err)
	}
	if err := cs.InsertBatch(binTestOps(12)); err != nil {
		f.Fatal(err)
	}
	res, err := cs.Query(WindowQuery{Attrs: []string{"C", "T"}, BinaryResult: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(res.Bin)
	f.Add([]byte("IWIN1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		DecodeWindowBinary(data)
	})
}

// TestBinBatchRandomEquivalence drives random mixed batches through both
// wire paths and requires identical states — the randomized analogue of the
// 64-op pin.
func TestBinBatchRandomEquivalence(t *testing.T) {
	sch := binTestSchema(t)
	rng := rand.New(rand.NewSource(9))
	jsonStore, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	binStore, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	enc := NewBinBatchEncoder(sch)
	for round := 0; round < 50; round++ {
		enc.Reset()
		n := 1 + rng.Intn(20)
		ops := make([]BatchOp, 0, n)
		all := binTestOps(200)
		for i := 0; i < n; i++ {
			ops = append(ops, all[rng.Intn(len(all))])
		}
		for _, op := range ops {
			if err := enc.Add(op.Rel, op.Row); err != nil {
				t.Fatal(err)
			}
		}
		jerr := jsonStore.InsertBatch(ops)
		_, berr := binStore.ApplyBinBatch(context.Background(), enc.Bytes())
		if (jerr == nil) != (berr == nil) {
			t.Fatalf("round %d: json err=%v bin err=%v", round, jerr, berr)
		}
	}
	if diffs := DiffDatabases(jsonStore.Snapshot(), binStore.Snapshot()); diffs != nil {
		t.Fatalf("random equivalence diverged: %v", diffs)
	}
}

// TestApplyBinBatchPartialReport pins the shard-side partial contract: a
// payload with violations applies everything else, reports each rejection
// under its frame index, and re-applying the same payload is a fixpoint —
// the idempotence the cluster router's retries lean on.
func TestApplyBinBatchPartialReport(t *testing.T) {
	sch := binTestSchema(t)
	enc := NewBinBatchEncoder(sch)
	add := func(rel string, row map[string]string) {
		t.Helper()
		if err := enc.Add(rel, row); err != nil {
			t.Fatal(err)
		}
	}
	add("CT", map[string]string{"C": "c1", "T": "t1"})                                // 0: applied
	add("CT", map[string]string{"C": "c1", "T": "t2"})                                // 1: rejected (C -> T)
	add("CS", map[string]string{"C": "c1", "S": "s1"})                                // 2: applied
	add("CT", map[string]string{"C": "c1", "T": "t3"})                                // 3: rejected
	add("CS", map[string]string{"C": "c2", "S": "s2"})                                // 4: applied
	if err := enc.Delete("CS", map[string]string{"C": "c2", "S": "s2"}); err != nil { // 5: applied
		t.Fatal(err)
	}
	payload := enc.Bytes()

	cs, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	// The atomic path voids the whole batch on the first violation...
	if _, err := cs.ApplyBinBatch(context.Background(), payload); !Rejected(err) {
		t.Fatalf("atomic apply: got %v, want a rejection", err)
	}
	if cs.Rows() != 0 {
		t.Fatalf("atomic apply left %d rows behind after rejection", cs.Rows())
	}
	// ...the partial path applies around it and reports.
	for attempt := 0; attempt < 2; attempt++ {
		rep, err := cs.ApplyBinBatchPartial(context.Background(), payload)
		if err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		if rep.Ops != 6 || rep.Processed != 6 || rep.Applied != 4 {
			t.Fatalf("attempt %d: report %+v, want 6/6/4", attempt, rep)
		}
		if len(rep.Rejected) != 2 || rep.Rejected[0].Index != 1 || rep.Rejected[1].Index != 3 {
			t.Fatalf("attempt %d: rejected %+v, want indices 1 and 3", attempt, rep.Rejected)
		}
		for _, o := range rep.Rejected {
			if o.Code != "rejected" || o.Error == "" {
				t.Fatalf("attempt %d: outcome %+v", attempt, o)
			}
		}
	}
	if cs.Rows() != 2 { // CT(c1,t1) and CS(c1,s1); CS(c2,s2) was deleted
		t.Fatalf("store holds %d rows, want 2", cs.Rows())
	}
}

// TestApplyBinBatchPartialMalformed pins validate-before-apply on both
// apply paths: a payload that fails validation applies nothing and interns
// nothing, even though a prefix (its intern frames and a whole batch frame)
// was well-formed.
func TestApplyBinBatchPartialMalformed(t *testing.T) {
	sch := binTestSchema(t)
	enc := NewBinBatchEncoder(sch)
	if err := enc.Add("CT", map[string]string{"C": "c1", "T": "t1"}); err != nil {
		t.Fatal(err)
	}
	payload := append(enc.Bytes(), "trailing junk"...)
	cs, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := cs.ApplyBinBatchPartial(ctx, payload); err == nil {
		t.Fatal("partial apply accepted a malformed payload")
	}
	if _, err := cs.ApplyBinBatch(ctx, payload); err == nil || Rejected(err) {
		t.Fatalf("atomic apply of a malformed payload: got %v, want a malformed error", err)
	}
	if cs.Rows() != 0 {
		t.Fatalf("malformed payload applied %d rows", cs.Rows())
	}
	if n := cs.eng.Dict().Len(); n != 0 {
		t.Fatalf("malformed payload interned %d names", n)
	}
}

// TestApplyBinBatchDeleteMiss pins that a binary delete naming a value the
// store has never seen is an applied no-op on both apply paths and does not
// grow the dictionary — ConcurrentStore.Delete's contract, kept on the wire
// path a cluster router lowers every JSON delete to.
func TestApplyBinBatchDeleteMiss(t *testing.T) {
	sch := binTestSchema(t)
	cs, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Insert("CT", map[string]string{"C": "c1", "T": "t1"}); err != nil {
		t.Fatal(err)
	}
	enc := NewBinBatchEncoder(sch)
	for _, d := range []struct {
		rel string
		row map[string]string
	}{
		{"CT", map[string]string{"C": "c1", "T": "t9"}}, // c1 known, t9 unseen
		{"CS", map[string]string{"C": "c8", "S": "s8"}}, // both unseen
	} {
		if err := enc.Delete(d.rel, d.row); err != nil {
			t.Fatal(err)
		}
	}
	payload := enc.Bytes()
	ctx := context.Background()
	if n, err := cs.ApplyBinBatch(ctx, payload); err != nil || n != 2 {
		t.Fatalf("atomic apply: n=%d err=%v, want 2 applied no-ops", n, err)
	}
	rep, err := cs.ApplyBinBatchPartial(ctx, payload)
	if err != nil || rep.Ops != 2 || rep.Processed != 2 || rep.Applied != 2 || len(rep.Rejected) != 0 {
		t.Fatalf("partial apply: report %+v err=%v, want 2/2/2", rep, err)
	}
	if cs.Rows() != 1 {
		t.Fatalf("store holds %d rows, want 1", cs.Rows())
	}
	if n := cs.eng.Dict().Len(); n != 2 {
		t.Fatalf("delete misses grew the dictionary to %d names, want 2", n)
	}
}

// stablePartition reorders decoded ops the way the encoder lays them out:
// all inserts in order, then all deletes in order.
func stablePartition(ops []BinOp) []BinOp {
	var out []BinOp
	for _, op := range ops {
		if !op.Delete {
			out = append(out, op)
		}
	}
	for _, op := range ops {
		if op.Delete {
			out = append(out, op)
		}
	}
	return out
}

// FuzzDecodeShardBatch fuzzes the router-side decoder the cluster splits
// payloads with: arbitrary bytes must error or decode cleanly, and any
// successful decode must survive a re-encode round trip (modulo the
// inserts-before-deletes normalization the encoder applies).
func FuzzDecodeShardBatch(f *testing.F) {
	sch, err := Parse("CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	if err != nil {
		f.Fatal(err)
	}
	enc := NewBinBatchEncoder(sch)
	for _, op := range binTestOps(6) {
		if err := enc.Add(op.Rel, op.Row); err != nil {
			f.Fatal(err)
		}
	}
	if err := enc.Delete("CT", map[string]string{"C": "C0", "T": "T0"}); err != nil {
		f.Fatal(err)
	}
	valid := enc.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		ops, err := sch.DecodeBinBatch(payload)
		if err != nil {
			return
		}
		re := NewBinBatchEncoder(sch)
		for _, op := range ops {
			if op.Delete {
				err = re.Delete(op.Rel, op.Row)
			} else {
				err = re.Add(op.Rel, op.Row)
			}
			if err != nil {
				t.Fatalf("decoded op %+v does not re-encode: %v", op, err)
			}
		}
		if re.Len() != len(ops) {
			t.Fatalf("re-encoder holds %d ops, decoded %d", re.Len(), len(ops))
		}
		again, err := sch.DecodeBinBatch(re.Bytes())
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, stablePartition(ops)) {
			t.Fatalf("round trip changed ops:\n got %+v\nwant %+v", again, stablePartition(ops))
		}
	})
}

// TestApplyBinBatchKnownNamesAllocBudget pins the binary ingest path for a
// batch whose names the store has already interned: names are looked up
// straight from the payload bytes, the client-id table is pooled, and a
// batch record's tuples share one decoded array, so what remains is a few
// per-batch slices. The map-per-batch, string-per-name decoder this
// replaced made 193 allocations for the same 64-op batch.
func TestApplyBinBatchKnownNamesAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are skewed under -race; CI pins them in a plain pass")
	}
	sch := binTestSchema(t)
	cs, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	enc := NewBinBatchEncoder(sch)
	for _, op := range binTestOps(64) {
		if err := enc.Add(op.Rel, op.Row); err != nil {
			t.Fatal(err)
		}
	}
	payload := enc.Bytes()
	ctx := context.Background()
	if _, err := cs.ApplyBinBatch(ctx, payload); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(200, func() {
		if _, err := cs.ApplyBinBatch(ctx, payload); err != nil {
			t.Fatal(err)
		}
	})
	if n > 20 {
		t.Fatalf("ApplyBinBatch of 64 ops with known names allocates %v/op, budget 20", n)
	}
}
