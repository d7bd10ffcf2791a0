package obs

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func testID(i int) string {
	return fmt.Sprintf("%016x", uint64(i)+1)
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	tr, sp := r.Start("0123456789abcdef", "root")
	if tr != nil || sp != nil {
		t.Fatalf("nil recorder started a trace: %v %v", tr, sp)
	}
	r.Finish(tr, 200) // must not panic
}

func TestRecorderRetention(t *testing.T) {
	r := NewRecorder(RecorderOptions{Capacity: 8, Slow: -1, SampleEvery: 1 << 30})

	cases := []struct {
		status int
		reason string
	}{
		{409, "rejected"},
		{500, "error"},
		{503, "error"},
	}
	for i, c := range cases {
		tr, _ := r.Start(testID(i), "POST /insert")
		r.Finish(tr, c.status)
		v, ok := r.Get(testID(i))
		if !ok {
			t.Fatalf("status %d not retained", c.status)
		}
		if v.Reason != c.reason {
			t.Fatalf("status %d: reason %q, want %q", c.status, v.Reason, c.reason)
		}
	}

	// A plain 200 is sampled out at this rate.
	tr, _ := r.Start(testID(100), "GET /state")
	r.Finish(tr, 200)
	if _, ok := r.Get(testID(100)); ok {
		t.Fatal("unremarkable 200 retained despite sampling")
	}
	if r.recorded.Value() != 3 || r.dropped.Value() != 1 {
		t.Fatalf("counters: recorded=%d dropped=%d, want 3/1", r.recorded.Value(), r.dropped.Value())
	}
}

func TestRecorderSlowRetention(t *testing.T) {
	r := NewRecorder(RecorderOptions{Capacity: 8, Slow: time.Nanosecond, SampleEvery: 1 << 30})
	tr, _ := r.Start(testID(1), "GET /window")
	time.Sleep(time.Millisecond)
	r.Finish(tr, 200)
	v, ok := r.Get(testID(1))
	if !ok || v.Reason != "slow" {
		t.Fatalf("slow trace: ok=%v reason=%q", ok, v.Reason)
	}
}

func TestRecorderSampleEveryOne(t *testing.T) {
	r := NewRecorder(RecorderOptions{Capacity: 8, Slow: -1, SampleEvery: 1})
	tr, _ := r.Start(testID(1), "GET /state")
	r.Finish(tr, 200)
	v, ok := r.Get(testID(1))
	if !ok || v.Reason != "sampled" {
		t.Fatalf("SampleEvery=1 trace: ok=%v reason=%q", ok, v.Reason)
	}
}

func TestRecorderRingEviction(t *testing.T) {
	r := NewRecorder(RecorderOptions{Capacity: 4, Slow: -1, SampleEvery: 1})
	for i := 0; i < 10; i++ {
		tr, _ := r.Start(testID(i), "GET /state")
		r.Finish(tr, 200)
	}
	if occ := r.Occupancy(); occ != 4 {
		t.Fatalf("occupancy %d, want 4", occ)
	}
	if _, ok := r.Get(testID(0)); ok {
		t.Fatal("evicted trace still retrievable")
	}
	if _, ok := r.Get(testID(9)); !ok {
		t.Fatal("latest trace missing from the ring")
	}
	recent := r.Recent(0, "", 0)
	if len(recent) != 4 {
		t.Fatalf("Recent returned %d traces, want 4", len(recent))
	}
	for i := 1; i < len(recent); i++ {
		if recent[i].Start.After(recent[i-1].Start) {
			t.Fatal("Recent not sorted newest first")
		}
	}
}

func TestRecorderRecentFilters(t *testing.T) {
	r := NewRecorder(RecorderOptions{Capacity: 16, Slow: -1, SampleEvery: 1})
	for i := 0; i < 3; i++ {
		tr, _ := r.Start(testID(i), "GET /state")
		r.Finish(tr, 200)
	}
	tr, _ := r.Start(testID(10), "POST /insert")
	r.Finish(tr, 200)

	if got := r.Recent(0, "POST /insert", 0); len(got) != 1 || got[0].Route != "POST /insert" {
		t.Fatalf("route filter: %+v", got)
	}
	if got := r.Recent(0, "", 2); len(got) != 2 {
		t.Fatalf("limit: got %d, want 2", len(got))
	}
	if got := r.Recent(time.Hour, "", 0); len(got) != 0 {
		t.Fatalf("min-duration filter: got %d, want 0", len(got))
	}
}

// TestRecorderHammer drives concurrent writers (Start/span churn/Finish)
// against concurrent readers (Get/Recent/Occupancy). Run under -race it
// checks the lock-free ring publication and the pool recycling discipline.
func TestRecorderHammer(t *testing.T) {
	r := NewRecorder(RecorderOptions{Capacity: 16, Slow: -1, SampleEvery: 2, MaxSpans: 16})
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := testID(w*perWriter + i)
				tr, root := r.Start(id, "POST /insert")
				sp := root.StartChild("store.insert")
				sp.SetAttr("relation", "CT")
				sp.SetInt("lock_wait_ns", int64(i))
				sp.End()
				status := 200
				if i%7 == 0 {
					status = 409
				}
				r.Finish(tr, status)
			}
		}(w)
	}

	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, v := range r.Recent(0, "", 8) {
					if v.Route != "POST /insert" {
						t.Errorf("torn trace view: route %q", v.Route)
						return
					}
					r.Get(v.ID)
				}
				r.Occupancy()
			}
		}()
	}

	wg.Wait()
	close(stop)
	readers.Wait()

	total := r.recorded.Value() + r.dropped.Value()
	if total != writers*perWriter {
		t.Fatalf("recorded+dropped = %d, want %d", total, writers*perWriter)
	}
	// Every 409 is retained regardless of sampling.
	if r.recorded.Value() < writers*perWriter/7 {
		t.Fatalf("recorded %d traces, want at least the %d rejected ones",
			r.recorded.Value(), writers*perWriter/7)
	}
}

// TestRecorderAllocBytesPerRetainedTrace pins what a retained small trace
// costs: a 3-span, 4-attribute trace keeps one 16-span chunk and its attr
// arrays, about 2.1 KB. With fixed 256-span arenas every retained trace
// cost 27.6 KB whatever it recorded. Each trace is kilobytes, so 16k
// of them measure far above heap noise without a huge ring.
func TestRecorderAllocBytesPerRetainedTrace(t *testing.T) {
	const n = 1 << 14
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	r := NewRecorder(RecorderOptions{Capacity: n, Slow: -1, SampleEvery: 1})
	for i := 0; i < n; i++ {
		tr, root := r.Start(testID(i), "POST /batchbin")
		root.SetInt("status", 200)
		store := root.StartChild("store.batchbin")
		store.SetInt("bytes", 5400)
		eng := store.StartChild("engine.batch")
		eng.SetInt("ops", 64)
		eng.SetAttr("outcome", "ok")
		eng.End()
		store.End()
		r.Finish(tr, 200)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	per := float64(ms.HeapAlloc-before) / n
	runtime.KeepAlive(r)
	t.Logf("retained 3-span trace: %.0f live bytes", per)
	if per > 3072 {
		t.Fatalf("a retained 3-span trace holds %.0f bytes, budget 3072", per)
	}
}
