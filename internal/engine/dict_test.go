package engine

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"indep/internal/relation"
)

func TestDictInternRoundTrip(t *testing.T) {
	d := NewDict()
	v1 := d.Value("alice")
	v2 := d.Value("bob")
	if v1 == v2 {
		t.Fatal("distinct names share a value")
	}
	if d.Value("alice") != v1 {
		t.Fatal("re-interning changed the value")
	}
	if d.Name(v1) != "alice" || d.Name(v2) != "bob" {
		t.Fatalf("Name round-trip failed: %q, %q", d.Name(v1), d.Name(v2))
	}
	if _, ok := d.Lookup("carol"); ok {
		t.Fatal("Lookup invented a value")
	}
	if v, ok := d.Lookup("alice"); !ok || v != v1 {
		t.Fatal("Lookup disagrees with Value")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if d.Name(relation.Value(1<<40)) != fmt.Sprintf("%d", int64(1<<40)) {
		t.Fatal("unknown value must render as numeral")
	}
}

func TestDictConcurrent(t *testing.T) {
	d := NewDict()
	const goroutines = 16
	const names = 200
	got := make([][]relation.Value, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]relation.Value, names)
			for i := 0; i < names; i++ {
				// Every goroutine interns the same name set concurrently.
				got[g][i] = d.Value(fmt.Sprintf("name-%d", i))
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range got[g] {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutine %d got a different value for name-%d", g, i)
			}
		}
	}
	if d.Len() != names {
		t.Fatalf("Len = %d, want %d", d.Len(), names)
	}
	seen := make(map[relation.Value]bool, names)
	for i, v := range got[0] {
		if seen[v] {
			t.Fatalf("value %d assigned twice", v)
		}
		seen[v] = true
		if d.Name(v) != fmt.Sprintf("name-%d", i) {
			t.Fatalf("Name(%d) = %q", v, d.Name(v))
		}
	}
}

func TestDictMaterialize(t *testing.T) {
	d := NewDict()
	var vals []relation.Value
	for i := 0; i < 50; i++ {
		vals = append(vals, d.Value(fmt.Sprintf("v%d", i)))
	}
	plain := d.Materialize()
	for i, v := range vals {
		if plain.Name(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("materialized Name(%d) = %q, want v%d", v, plain.Name(v), i)
		}
	}
}

// Interning an already-known name is a read-locked map hit: the engine's
// hot path (every tuple value of every insert goes through Value) must not
// allocate in steady state.
func TestDictInternSteadyStateAllocs(t *testing.T) {
	d := NewDict()
	for i := 0; i < 256; i++ {
		d.Value(fmt.Sprintf("name-%d", i))
	}
	if n := testing.AllocsPerRun(200, func() { d.Value("name-73") }); n != 0 {
		t.Errorf("re-interning a known name allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(200, func() { d.Lookup("name-73") }); n != 0 {
		t.Errorf("Lookup allocates %v per run", n)
	}
}

// dictGolden pins the values the dictionary assigned before it moved to
// per-shard arenas: the FNV-1a shard choice and v = index·64 + shard
// numbering are what checkpoints, logs and followers store, so any change
// here would make existing data directories restore to different values.
var dictGolden = []struct {
	name string
	v    relation.Value
}{
	{"", 5}, {"alice", 39}, {"bob", 20}, {"CS402", 103}, {"Smith", 48},
	{"Jones", 44}, {"A.0.1", 47}, {"A.0.2", 2}, {"E.3.12345", 30}, {"x", 7},
	{"name-0", 51}, {"name-1", 32}, {"name-2", 25}, {"name-3", 6},
	{"name-4", 63}, {"name-5", 108}, {"name-6", 37}, {"name-7", 18},
	{"name-8", 11}, {"name-9", 56}, {"name-10", 112}, {"name-11", 3},
	{"name-12", 22}, {"name-13", 41}, {"name-14", 60}, {"name-15", 15},
	{"name-16", 34}, {"name-17", 53}, {"name-18", 8}, {"name-19", 27},
	{"name-20", 75}, {"name-21", 120}, {"name-22", 49}, {"name-23", 94},
	{"name-24", 23}, {"name-25", 4}, {"name-26", 61}, {"name-27", 42},
	{"name-28", 115}, {"name-29", 96},
}

func TestDictGoldenValues(t *testing.T) {
	d := NewDict()
	for _, g := range dictGolden {
		if v := d.Value(g.name); v != g.v {
			t.Errorf("Value(%q) = %d, want %d", g.name, v, g.v)
		}
	}
	for _, g := range dictGolden {
		if n := d.Name(g.v); n != g.name {
			t.Errorf("Name(%d) = %q, want %q", g.v, n, g.name)
		}
		if v, ok := d.Lookup(g.name); !ok || v != g.v {
			t.Errorf("Lookup(%q) = %d, %v", g.name, v, ok)
		}
	}
	// Restoring the pinned pairs into a fresh dictionary, as recovery does,
	// resumes allocation right after them.
	r := NewDict()
	for _, g := range dictGolden {
		if err := r.Restore(g.v, g.name); err != nil {
			t.Fatalf("Restore(%d, %q): %v", g.v, g.name, err)
		}
	}
	if v := r.Value("name-30"); v != d.Value("name-30") {
		t.Errorf("allocation after restore = %d, want %d", v, d.Value("name-30"))
	}
}

// Strings returned by Name alias the arena: they must stay valid and
// unchanged while concurrent interning appends to (and reallocates) the
// arenas and doubles the tables. Run under -race.
func TestDictNameStableUnderGrowth(t *testing.T) {
	d := NewDict()
	const writers, perWriter = 4, 3000
	held := make([]string, 0, 64)
	heldVals := make([]relation.Value, 0, 64)
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("seed-%d", i)
		heldVals = append(heldVals, d.Value(name))
		held = append(held, d.Name(heldVals[i]))
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				name := fmt.Sprintf("w%d-name-%d", w, i)
				v := d.Value(name)
				if got := d.Name(v); got != name {
					t.Errorf("Name(%d) = %q, want %q", v, got, name)
					return
				}
				if lv, ok := d.Lookup(name); !ok || lv != v {
					t.Errorf("Lookup(%q) = %d, %v; want %d", name, lv, ok, v)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // a reader that keeps comparing the strings it holds
		defer wg.Done()
		for round := 0; round < 200; round++ {
			for i, s := range held {
				if s != fmt.Sprintf("seed-%d", i) {
					t.Errorf("held name %d changed to %q", i, s)
					return
				}
				if d.Name(heldVals[i]) != s {
					t.Errorf("Name(%d) no longer equals the held string", heldVals[i])
					return
				}
			}
		}
	}()
	wg.Wait()
	if want := 64 + writers*perWriter; d.Len() != want {
		t.Fatalf("Len = %d, want %d", d.Len(), want)
	}
}

func TestDictRestoreErrors(t *testing.T) {
	d := NewDict()
	alice := d.Value("alice") // 39: shard 39, index 0
	if err := d.Restore(alice, "alice"); err != nil {
		t.Fatalf("restoring a present pair: %v", err)
	}
	cases := []struct {
		v    relation.Value
		name string
		want string
	}{
		{-1, "x", "negative value"},
		{alice + dictShards, "bob", "does not hash to its shard"},
		{5 + 2*dictShards, "", "gap restoring value"}, // "" hashes to the empty shard 5
	}
	for _, c := range cases {
		if err := d.Restore(c.v, c.name); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Restore(%d, %q) = %v, want error containing %q", c.v, c.name, err, c.want)
		}
	}
	// Rebind: a value already bound to another name of the same shard.
	other := sameShardName(t, "alice")
	if err := d.Restore(alice, other); err == nil || !strings.Contains(err.Error(), "bound to") {
		t.Errorf("rebinding value %d to %q: %v", alice, other, err)
	}
	// A name already bound to another value of its shard.
	if err := d.Restore(alice+dictShards, "alice"); err == nil || !strings.Contains(err.Error(), "bound to values") {
		t.Errorf("binding alice to a second value: %v", err)
	}
}

// sameShardName finds a name other than name that hashes to name's shard.
func sameShardName(t *testing.T, name string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if n := fmt.Sprintf("probe-%d", i); hashName(n)%dictShards == hashName(name)%dictShards {
			return n
		}
	}
	t.Fatal("no same-shard name found")
	return ""
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDictAllocBytesPerName pins the dictionary's live heap per interned
// name, for names shaped like the benchmark's (~10 bytes). Each name costs
// its bytes and a length byte once in the shard arena, half a byte of
// offset index and its share of the open-addressed table: about 24 bytes
// at this size, where the tables are just past a doubling. The map-based
// dictionary this replaced held a map key, a names slot and the caller's
// string: 69 bytes per name here.
func TestDictAllocBytesPerName(t *testing.T) {
	const n = 200_000
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("A.%d.%d", i%4, 100_000+i)
	}
	before := liveHeap()
	d := NewDict()
	for _, name := range names {
		d.ValueBytes([]byte(name)) // the wire path: the dictionary must keep its own copy
	}
	per := float64(liveHeap()-before) / n
	runtime.KeepAlive(d)
	runtime.KeepAlive(names)
	t.Logf("dictionary: %.1f live bytes per interned name", per)
	if per > 28 {
		t.Fatalf("dictionary holds %.1f bytes per interned name, budget 28", per)
	}
}
