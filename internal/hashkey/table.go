package hashkey

import "math/bits"

// Table is a flat open-addressed multimap from 64-bit hashes to
// non-negative int32 ids: the index the data plane keeps over rows and FD
// bindings. Each slot packs the hash's high 32 bits (its tag, which also
// picks the home slot) with id+1, so a slot is 8 bytes, zero means empty,
// and cloning is a slice copy. Probing is linear and deletion shifts later
// entries back instead of leaving tombstones, so probe runs stay as short
// as the load allows.
//
// A hash may map to several ids (distinct keys can collide): lookups hand
// every tag-matching candidate to the caller's match function, which
// verifies against the real values, exactly as a chained bucket would. The
// zero Table is empty and allocates nothing until the first Insert.
type Table struct {
	slots []uint64
	n     int
}

// tagOf is the part of h a slot keeps.
func tagOf(h uint64) uint32 { return uint32(h >> 32) }

// home is the first probe slot for tag in a table of len(t.slots) slots.
func (t *Table) home(tag uint32) int {
	return int(tag >> (32 - bits.TrailingZeros(uint(len(t.slots)))))
}

// Len returns the number of ids in the table.
func (t *Table) Len() int { return t.n }

// Get returns the first id stored under h for which match reports true, or
// -1. match sees only ids whose slot tag equals h's, so it runs about once
// per lookup.
func (t *Table) Get(h uint64, match func(id int32) bool) int32 {
	if t.n == 0 {
		return -1
	}
	tag := tagOf(h)
	mask := len(t.slots) - 1
	for i := t.home(tag); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return -1
		}
		if uint32(s>>32) == tag {
			if id := int32(uint32(s)) - 1; match(id) {
				return id
			}
		}
	}
}

// Insert adds id under h. It does not check for an existing entry: callers
// insert only ids a Get has just failed to find.
func (t *Table) Insert(h uint64, id int32) {
	if 4*(t.n+1) > 3*len(t.slots) { // keep the load factor at or below 3/4
		t.grow()
	}
	t.place(uint64(tagOf(h))<<32 | uint64(uint32(id)+1))
	t.n++
}

// place stores a packed slot at the first free position of its probe run.
func (t *Table) place(s uint64) {
	mask := len(t.slots) - 1
	i := t.home(uint32(s >> 32))
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

// grow doubles the slot array (8 slots to start) and re-places every entry.
func (t *Table) grow() {
	old := t.slots
	t.slots = make([]uint64, max(8, 2*len(old)))
	for _, s := range old {
		if s != 0 {
			t.place(s)
		}
	}
}

// Delete removes id from under h, reporting whether it was there. Later
// entries of the probe run shift back into the hole, so no tombstone is
// left behind.
func (t *Table) Delete(h uint64, id int32) bool {
	if t.n == 0 {
		return false
	}
	want := uint64(tagOf(h))<<32 | uint64(uint32(id)+1)
	mask := len(t.slots) - 1
	i := t.home(tagOf(h))
	for t.slots[i] != want {
		if t.slots[i] == 0 {
			return false
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically within (i, j], where moving it would strand it
		// before its own home.
		k := t.home(uint32(t.slots[j] >> 32))
		if (j-k)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = 0
	t.n--
	return true
}

// Clone returns an independent copy.
func (t *Table) Clone() Table {
	return Table{slots: append([]uint64(nil), t.slots...), n: t.n}
}
