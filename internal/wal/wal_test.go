package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"indep/internal/relation"
)

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		Intern(0, ""),
		Intern(12345, "CS402"),
		Intern(63, "name with spaces\x00and bytes\xff"),
		Insert(0, relation.Tuple{}),
		Insert(3, relation.Tuple{1, -2, 3000000000}),
		Delete(7, relation.Tuple{0}),
		Batch(nil),
		Batch([]TupleOp{{Rel: 1, Tuple: relation.Tuple{5, 6}}, {Rel: 2, Tuple: relation.Tuple{7}}}),
	}
	for i, r := range recs {
		payload := r.appendPayload(nil)
		got, err := DecodeRecord(payload)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		// Normalize nil-vs-empty for comparison.
		if len(got.Ops) == 0 {
			got.Ops = nil
		}
		want := r
		if len(want.Ops) == 0 {
			want.Ops = nil
		}
		if want.Kind == KindBatch && want.Ops == nil && got.Kind == KindBatch {
			got.Ops = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d: roundtrip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestDecodeRecordRejectsTrailing(t *testing.T) {
	payload := Insert(1, relation.Tuple{9}).appendPayload(nil)
	if _, err := DecodeRecord(append(payload, 0)); err == nil {
		t.Fatal("trailing byte not rejected")
	}
	if _, err := DecodeRecord(nil); err == nil {
		t.Fatal("empty payload not rejected")
	}
	if _, err := DecodeRecord([]byte{99}); err == nil {
		t.Fatal("unknown kind not rejected")
	}
}

func TestFrameTornTail(t *testing.T) {
	var buf []byte
	buf = appendFrame(buf, Insert(1, relation.Tuple{1, 2}))
	whole := len(buf)
	buf = appendFrame(buf, Insert(2, relation.Tuple{3}))

	// Complete buffer: two frames.
	p1, rest, ok := nextFrame(buf)
	if !ok || len(p1) == 0 {
		t.Fatal("first frame should parse")
	}
	if _, rest2, ok := nextFrame(rest); !ok || len(rest2) != 0 {
		t.Fatal("second frame should parse to empty rest")
	}

	// Every proper prefix that cuts into the second frame: first frame
	// parses, second is torn.
	for cut := whole; cut < len(buf); cut++ {
		_, rest, ok := nextFrame(buf[:cut])
		if !ok {
			t.Fatalf("cut %d: first frame should still parse", cut)
		}
		if _, _, ok := nextFrame(rest); ok {
			t.Fatalf("cut %d: torn second frame parsed", cut)
		}
	}

	// Corrupting any byte of the second frame tears it.
	for off := whole; off < len(buf); off++ {
		mut := append([]byte(nil), buf...)
		mut[off] ^= 0xff
		_, rest, ok := nextFrame(mut)
		if !ok {
			t.Fatalf("offset %d: first frame affected", off)
		}
		if _, _, ok := nextFrame(rest); ok {
			t.Fatalf("offset %d: corrupt second frame parsed", off)
		}
	}
}

// replayAll replays dir from seq 0 and returns the records.
func replayAll(t *testing.T, dir string, fromSeq uint64) ([]Record, ReplayStats) {
	t.Helper()
	var recs []Record
	stats, err := Replay(dir, fromSeq, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs, stats
}

func TestLogAppendReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		Intern(1, "a"),
		Insert(0, relation.Tuple{1, 2}),
		Delete(0, relation.Tuple{1, 2}),
		Batch([]TupleOp{{Rel: 1, Tuple: relation.Tuple{3}}, {Rel: 0, Tuple: relation.Tuple{4, 5}}}),
	}
	l.Enqueue(want[0])
	for _, r := range want[1:] {
		if err := l.Append(r).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, stats := replayAll(t, dir, 0)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	if stats.TruncatedBytes != 0 || stats.Skipped != 0 {
		t.Fatalf("unexpected stats %+v", stats)
	}
}

func TestLogGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const workers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.Append(Insert(w, relation.Tuple{relation.Value(i)})).Wait(); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Records != workers*each {
		t.Fatalf("records = %d, want %d", st.Records, workers*each)
	}
	if st.CommitGroups == 0 || st.CommitGroups > st.Records {
		t.Fatalf("implausible commit groups %d for %d records", st.CommitGroups, st.Records)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ := replayAll(t, dir, 0)
	if len(recs) != workers*each {
		t.Fatalf("replayed %d, want %d", len(recs), workers*each)
	}
	// Per-relation order must match append order.
	next := make([]int, workers)
	for _, r := range recs {
		w := r.Ops[0].Rel
		if got := int(r.Ops[0].Tuple[0]); got != next[w] {
			t.Fatalf("relation %d: replayed %d out of order (want %d)", w, got, next[w])
		}
		next[w]++
	}
}

// TestLogStatsCoverAckedAppends checks that a group's records are counted
// before its waiters are acknowledged: right after any Wait returns,
// Stats().Records covers every append acknowledged so far. Small segments,
// explicit Sync and Rotate calls make the writer also commit groups ahead
// of rotation and sync markers.
func TestLogStatsCoverAckedAppends(t *testing.T) {
	l, err := OpenLog(t.TempDir(), Options{SegmentBytes: 512, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const workers, each = 4, 100
	var acked atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.Append(Insert(w, relation.Tuple{relation.Value(i)})).Wait(); err != nil {
					t.Errorf("append: %v", err)
					return
				}
				n := acked.Add(1)
				if got := l.Stats().Records; got < n {
					t.Errorf("Stats().Records = %d after %d acknowledged appends", got, n)
					return
				}
				switch i % 25 {
				case 7:
					if err := l.Sync(); err != nil {
						t.Errorf("sync: %v", err)
						return
					}
				case 19:
					l.Rotate()
				}
			}
		}(w)
	}
	wg.Wait()
	if st := l.Stats(); st.Records != workers*each || st.CommitGroups == 0 || st.CommitGroups > st.Records {
		t.Fatalf("records = %d, commit groups = %d, want %d records", st.Records, st.CommitGroups, workers*each)
	}
}

func TestLogRotationAndRemoveBefore(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{SegmentBytes: 256, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := l.Append(Insert(0, relation.Tuple{relation.Value(i), relation.Value(i)})).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected multiple segments after rotation, got %d", st.Segments)
	}
	cut := l.Rotate()
	if err := l.RemoveBefore(cut); err != nil {
		t.Fatal(err)
	}
	st = l.Stats()
	if st.OldestSeq < cut {
		t.Fatalf("oldest segment %d survived RemoveBefore(%d)", st.OldestSeq, cut)
	}
	// Everything before the cut is gone; replay from the cut is empty.
	recs, _ := replayAll(t, dir, cut)
	if len(recs) != 0 {
		t.Fatalf("replayed %d records after full truncation", len(recs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRotateCutSeparatesRecords(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	before := Insert(0, relation.Tuple{1})
	after := Insert(0, relation.Tuple{2})
	l.Enqueue(before)
	cut := l.Rotate()
	if err := l.Append(after).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	pre, _ := replayAll(t, dir, 0)
	post, _ := replayAll(t, dir, cut)
	if len(pre) != 2 {
		t.Fatalf("full replay saw %d records, want 2", len(pre))
	}
	if len(post) != 1 || !reflect.DeepEqual(post[0], after) {
		t.Fatalf("replay from cut %d saw %+v, want just the after-record", cut, post)
	}
}

func TestReplayTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Insert(0, relation.Tuple{1}), Insert(0, relation.Tuple{2})).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	path := filepath.Join(dir, segName(segs[0]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop 3 bytes off the final frame.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, stats := replayAll(t, dir, 0)
	if len(recs) != 1 {
		t.Fatalf("replayed %d records, want 1 (tail truncated)", len(recs))
	}
	if stats.TruncatedBytes == 0 {
		t.Fatal("truncation not reported")
	}
	// The file was repaired: a second replay sees a clean log.
	recs, stats = replayAll(t, dir, 0)
	if len(recs) != 1 || stats.TruncatedBytes != 0 {
		t.Fatalf("second replay: %d records, stats %+v", len(recs), stats)
	}
}

// TestReplayTornHeaderSegment simulates a crash inside openSegment: the
// newest segment has a partial header. Recovery must drop the file — and a
// SECOND recovery pass over the same directory must still succeed (a
// zero-truncated remnant would read as a corrupt sealed segment).
func TestReplayTornHeaderSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Insert(0, relation.Tuple{1})).Wait(); err != nil {
		t.Fatal(err)
	}
	seq := l.Stats().ActiveSeq
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, segName(seq+1))
	if err := os.WriteFile(torn, []byte(segMagic[:4]), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, stats := replayAll(t, dir, 0)
	if len(recs) != 1 || stats.TruncatedBytes == 0 {
		t.Fatalf("first recovery: %d records, stats %+v", len(recs), stats)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatalf("torn-header segment still present: %v", err)
	}
	// The crucial part: recovering AGAIN does not brick.
	recs, _ = replayAll(t, dir, 0)
	if len(recs) != 1 {
		t.Fatalf("second recovery: %d records, want 1", len(recs))
	}
	// And the log still opens for appending.
	l2, err := OpenLog(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(Insert(0, relation.Tuple{2})).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if recs, _ := replayAll(t, dir, 0); len(recs) != 2 {
		t.Fatalf("after reopen: %d records, want 2", len(recs))
	}
}

func TestReplayRejectsSegmentGap(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(Insert(0, relation.Tuple{1})).Wait()
	seq := l.Rotate()
	l.Append(Insert(0, relation.Tuple{2})).Wait()
	l.Rotate()
	l.Append(Insert(0, relation.Tuple{3})).Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, segName(seq))); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 0, func(Record) error { return nil }); err == nil {
		t.Fatal("gap in segment sequence not detected")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ck := &Checkpoint{
		Seq: 7,
		Dict: []DictEntry{
			{Value: 0, Name: "x"},
			{Value: 64, Name: "y"},
		},
		// Rows (1,2),(3,4) in scheme 0 and (5) in scheme 2, column-major.
		Cols: [][][]relation.Value{
			{{1, 3}, {2, 4}},
			{},
			{{5}},
		},
		Counts: []int{2, 0, 1},
	}
	if _, err := WriteCheckpoint(dir, ck); err != nil {
		t.Fatal(err)
	}
	got, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != ck.Seq || !reflect.DeepEqual(got.Dict, ck.Dict) {
		t.Fatalf("checkpoint mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Counts, ck.Counts) {
		t.Fatalf("counts %v, want %v", got.Counts, ck.Counts)
	}
	for i := range ck.Cols {
		if !reflect.DeepEqual(got.TuplesOf(i), ck.TuplesOf(i)) {
			t.Fatalf("scheme %d: %v, want %v", i, got.TuplesOf(i), ck.TuplesOf(i))
		}
	}

	// A newer but corrupt checkpoint falls back to the older good one.
	bad := &Checkpoint{Seq: 9}
	if _, err := WriteCheckpoint(dir, bad); err != nil {
		t.Fatal(err)
	}
	// Re-write the good one (WriteCheckpoint GCs others, so put both back).
	if _, err := WriteCheckpoint(dir, ck); err != nil {
		t.Fatal(err)
	}
	data := bad.encode()
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, ckptName(9)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 7 {
		t.Fatalf("fallback picked seq %d, want 7", got.Seq)
	}
}

func TestCheckpointCorruptionDetected(t *testing.T) {
	ck := &Checkpoint{Seq: 3, Dict: []DictEntry{{Value: 1, Name: "v"}},
		Cols: [][][]relation.Value{{{1}, {2}, {3}}}, Counts: []int{1}}
	data := ck.encode()
	for off := 0; off < len(data); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x55
		if bytes.Equal(mut, data) {
			continue
		}
		if _, err := decodeCheckpoint(mut); err == nil {
			t.Fatalf("corruption at offset %d undetected", off)
		}
	}
	for cut := 0; cut < len(data); cut++ {
		if _, err := decodeCheckpoint(data[:cut]); err == nil {
			t.Fatalf("truncation at %d undetected", cut)
		}
	}
}

func TestOpenLogStartsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	first := l.Stats().ActiveSeq
	l.Append(Insert(0, relation.Tuple{1})).Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenLog(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Stats().ActiveSeq; got <= first {
		t.Fatalf("reopen reused segment %d (first was %d)", got, first)
	}
	recs, _ := replayAll(t, dir, 0)
	if len(recs) != 1 {
		t.Fatalf("replay after reopen: %d records", len(recs))
	}
}

func TestLogStatsDepth(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 10; i++ {
		l.Append(Insert(0, relation.Tuple{relation.Value(i)})).Wait()
	}
	l.Sync()
	st := l.Stats()
	if st.TotalBytes <= segHeader {
		t.Fatalf("TotalBytes %d does not reflect appended data", st.TotalBytes)
	}
	if st.Segments != 1 {
		t.Fatalf("Segments = %d, want 1", st.Segments)
	}
}
