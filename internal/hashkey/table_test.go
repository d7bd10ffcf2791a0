package hashkey

import (
	"math/rand"
	"testing"
)

// TestTableMatchesReference drives random inserts and deletes against a
// reference multimap. Hashes come from a small pool so many ids share a
// hash (full collisions the match function must resolve) and many share a
// probe run, which is what backward-shift deletion has to get right.
func TestTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	hashes := make([]uint64, 40)
	for i := range hashes {
		hashes[i] = rng.Uint64()
	}
	hashes[1] = hashes[0]&^0xffffffff | 7 // same tag, different low bits
	var tab Table
	key := map[int32]uint64{} // live id → its hash
	next := int32(0)
	for step := 0; step < 20000; step++ {
		if len(key) > 0 && rng.Intn(5) < 2 {
			for id, h := range key { // delete an arbitrary live id
				if !tab.Delete(h, id) {
					t.Fatalf("step %d: Delete(%x, %d) missed a live id", step, h, id)
				}
				delete(key, id)
				break
			}
		} else {
			h := hashes[rng.Intn(len(hashes))]
			tab.Insert(h, next)
			key[next] = h
			next++
		}
		if tab.Len() != len(key) {
			t.Fatalf("step %d: Len = %d, want %d", step, tab.Len(), len(key))
		}
		if step%97 == 0 {
			for id, h := range key {
				if got := tab.Get(h, func(c int32) bool { return c == id }); got != id {
					t.Fatalf("step %d: Get(%x) for id %d = %d", step, h, id, got)
				}
			}
			// hashes[1] shares hashes[0]'s tag, so its ids are candidates
			// too; nothing else may be.
			if got := tab.Get(hashes[0], func(c int32) bool { return tagOf(key[c]) != tagOf(hashes[0]) }); got >= 0 {
				t.Fatalf("step %d: match saw id %d stored under another tag", step, got)
			}
		}
	}
	if tab.Delete(hashes[0], next+1) {
		t.Fatal("deleted an id never inserted")
	}
}

func TestTableCloneIsIndependent(t *testing.T) {
	var a Table
	for i := int32(0); i < 100; i++ {
		a.Insert(Mix(Init, uint64(i)), i)
	}
	b := a.Clone()
	a.Delete(Mix(Init, 5), 5)
	if b.Get(Mix(Init, 5), func(id int32) bool { return id == 5 }) != 5 {
		t.Fatal("delete on the original reached the clone")
	}
	if a.Len() != 99 || b.Len() != 100 {
		t.Fatalf("Len: original %d, clone %d", a.Len(), b.Len())
	}
	var empty Table
	if c := empty.Clone(); c.Get(1, func(int32) bool { return true }) != -1 {
		t.Fatal("clone of the empty table found an id")
	}
}
