package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"unsafe"

	"indep/internal/relation"
)

// dictShards is the number of lock stripes in a Dict. Power of two so the
// modulo compiles to a mask.
const dictShards = 64

// Dict is a sharded, concurrency-safe value dictionary: the engine's
// replacement for relation.Dict, which is a plain map and unusable under
// goroutines. Each shard owns a disjoint residue class of the value space
// (shard s allocates s, s+dictShards, s+2·dictShards, …), so interning and
// reverse lookup touch exactly one stripe and never a global lock.
//
// A shard stores each name once: its length-prefixed bytes go into an
// append-only arena, a uint32 offset for every markEvery-th name locates
// them, and an open-addressed table of name indices answers interning.
// Arena bytes are written exactly once — appends only ever write past the
// current length, and a reallocating append leaves the old array untouched
// — so Name hands out strings that alias the arena without copying, and
// they stay valid and unchanged for as long as anyone holds them.
type Dict struct {
	shards [dictShards]dictShard
	// internHook, when set, observes every fresh allocation while the
	// shard lock is still held. Durable stores use it to log (value, name)
	// bindings: because the hook runs under the lock, its log entries are
	// enqueued before any operation that read the value can log itself, so
	// a binding is always durable no later than its first use.
	internHook func(v relation.Value, name string)
}

type dictShard struct {
	mu    sync.RWMutex
	arena []byte   // every name as uvarint length + bytes, back to back, write-once
	marks []uint32 // marks[k]: arena offset of name k·markEvery
	n     int      // names in the shard
	table []uint32 // open-addressed index: 0 = empty, else tag<<idxBits | (name index + 1)
}

// markEvery is the stride of the arena offset index. Locating name i
// starts at the mark at or before it and skips at most markEvery-1
// length-prefixed neighbours — a few bytes of one or two cache lines —
// which keeps the per-name offset cost at 4/markEvery bytes.
const markEvery = 8

// idxBits is the width of a table slot's name-index field; the remaining
// high bits carry a tag from the name's hash, so a probe passes over
// other names without reading their bytes. It bounds a shard at 2^24-1
// names, about a billion per dictionary.
const (
	idxBits = 24
	idxMask = 1<<idxBits - 1
)

// NewDict creates an empty concurrent dictionary.
func NewDict() *Dict { return &Dict{} }

// hashName is FNV-1a over the name's bytes. Its residue mod dictShards
// picks the shard — the assignment durable checkpoints and logs rely on, so
// it must never change — and the whole hash places the name in its shard's
// table and supplies its tag.
func hashName(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return h
}

// uvarint decodes the length prefix at arena[off], returning the length and
// the prefix width; one byte for any name shorter than 128 bytes.
func (sh *dictShard) uvarint(off uint32) (uint32, uint32) {
	if b := sh.arena[off]; b < 0x80 {
		return uint32(b), 1
	}
	n, w := binary.Uvarint(sh.arena[off:])
	return uint32(n), uint32(w)
}

// name returns name i as a string over the arena. Callers hold the lock
// (either mode); the result does not need it.
func (sh *dictShard) name(i int) string {
	off := sh.marks[i/markEvery]
	for j := i % markEvery; j > 0; j-- {
		n, w := sh.uvarint(off)
		off += w + n
	}
	n, w := sh.uvarint(off)
	if n == 0 {
		return ""
	}
	return unsafe.String(&sh.arena[off+w], n)
}

// home is h's first probe slot: a multiplicative (Fibonacci) mix, so the
// low bits every name in a shard shares do not cluster the table.
func (sh *dictShard) home(h uint32) int {
	return int((h * 0x9e3779b9) >> (32 - bits.TrailingZeros(uint(len(sh.table)))))
}

// tag is the part of h a table slot keeps beside the name index.
func tag(h uint32) uint32 { return h >> 24 << idxBits }

// find returns the index of name, or -1. Callers hold the lock.
func (sh *dictShard) find(name string, h uint32) int {
	if len(sh.table) == 0 {
		return -1
	}
	mask := len(sh.table) - 1
	t := tag(h)
	for s := sh.home(h); ; s = (s + 1) & mask {
		e := sh.table[s]
		if e == 0 {
			return -1
		}
		if e&^idxMask == t {
			if i := int(e&idxMask) - 1; sh.name(i) == name {
				return i
			}
		}
	}
}

// place records name index i in the table at the first free slot of its
// probe run. The table must have room.
func (sh *dictShard) place(i int, h uint32) {
	mask := len(sh.table) - 1
	s := sh.home(h)
	for sh.table[s] != 0 {
		s = (s + 1) & mask
	}
	sh.table[s] = tag(h) | uint32(i+1)
}

// add appends a name absent from the shard and returns its index. Callers
// hold the write lock. The bytes are copied into the arena, so name may be
// a transient view of caller memory. Exhausting a shard's index field or
// its 4 GiB arena panics, like running out of memory: both lie far beyond
// what an in-memory store can hold.
func (sh *dictShard) add(name string, h uint32) int {
	i := sh.n
	if i+1 > idxMask {
		panic("engine: dictionary shard exceeds 2^24-1 names")
	}
	if 4*(i+1) > 3*len(sh.table) { // keep the load factor at or below 3/4
		sh.grow()
	}
	if uint64(len(sh.arena))+uint64(len(name))+binary.MaxVarintLen64 > math.MaxUint32 {
		panic("engine: dictionary shard arena exceeds 4 GiB")
	}
	if i%markEvery == 0 {
		sh.marks = append(sh.marks, uint32(len(sh.arena)))
	}
	sh.arena = binary.AppendUvarint(sh.arena, uint64(len(name)))
	sh.arena = append(sh.arena, name...)
	sh.n++
	sh.place(i, h)
	return i
}

// grow doubles the table (or creates it) and re-places every name.
func (sh *dictShard) grow() {
	sh.table = make([]uint32, max(8, 2*len(sh.table)))
	for i := 0; i < sh.n; i++ {
		sh.place(i, hashName(sh.name(i)))
	}
}

// Value interns name and returns its value. Safe for concurrent use; the
// same name always maps to the same value. Value never retains name — a
// fresh name is copied into the shard's arena — so name may alias memory
// the caller reuses afterwards (see ValueBytes).
func (d *Dict) Value(name string) relation.Value {
	h := hashName(name)
	si := int(h % dictShards)
	sh := &d.shards[si]
	sh.mu.RLock()
	i := sh.find(name, h)
	sh.mu.RUnlock()
	if i >= 0 {
		return relation.Value(i*dictShards + si)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if i := sh.find(name, h); i >= 0 { // raced with another writer
		return relation.Value(i*dictShards + si)
	}
	i = sh.add(name, h)
	v := relation.Value(i*dictShards + si)
	if d.internHook != nil {
		d.internHook(v, sh.name(i))
	}
	return v
}

// ValueBytes is Value for a name held as bytes, such as a view into a
// request body. A name already interned costs no allocation; a fresh one
// is copied into the arena, so nothing the dictionary keeps aliases b.
func (d *Dict) ValueBytes(b []byte) relation.Value {
	return d.Value(unsafe.String(unsafe.SliceData(b), len(b)))
}

// SetInternHook installs the allocation observer. Set it before the Dict
// is used concurrently (or while no interning can race); the hook itself
// is called with the owning shard's lock held and must not re-enter the
// Dict.
func (d *Dict) SetInternHook(h func(v relation.Value, name string)) { d.internHook = h }

// Restore re-binds a (value, name) pair recovered from a checkpoint or
// intern log record, without firing the intern hook. Pairs must arrive in
// ascending value order per shard — the order Dict allocates and the
// recovery sources preserve — so allocation resumes seamlessly after the
// restored prefix. Restoring an already-present pair is a no-op; a
// mismatch reports corruption.
func (d *Dict) Restore(v relation.Value, name string) error {
	if v < 0 {
		return fmt.Errorf("engine: restore of negative value %d", int64(v))
	}
	h := hashName(name)
	si := int(v) % dictShards
	if int(h%dictShards) != si {
		return fmt.Errorf("engine: dictionary value %d does not hash to its shard for %q", int64(v), name)
	}
	idx := int(v) / dictShards
	sh := &d.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	switch {
	case idx < sh.n:
		if have := sh.name(idx); have != name {
			return fmt.Errorf("engine: dictionary value %d bound to %q and %q", int64(v), have, name)
		}
		return nil
	case idx > sh.n:
		return fmt.Errorf("engine: dictionary gap restoring value %d", int64(v))
	}
	if prev := sh.find(name, h); prev >= 0 {
		return fmt.Errorf("engine: dictionary name %q bound to values %d and %d",
			name, int64(prev*dictShards+si), int64(v))
	}
	sh.add(name, h)
	return nil
}

// Lookup returns the value of an already-interned name without interning it.
func (d *Dict) Lookup(name string) (relation.Value, bool) {
	h := hashName(name)
	si := int(h % dictShards)
	sh := &d.shards[si]
	sh.mu.RLock()
	i := sh.find(name, h)
	sh.mu.RUnlock()
	if i < 0 {
		return 0, false
	}
	return relation.Value(i*dictShards + si), true
}

// LookupBytes is Lookup for a name held as bytes, such as a view into a
// request body. It never allocates and never interns.
func (d *Dict) LookupBytes(b []byte) (relation.Value, bool) {
	return d.Lookup(unsafe.String(unsafe.SliceData(b), len(b)))
}

// Name returns the display name of v, or its numeral if v was never
// interned. The string aliases the dictionary's write-once arena: it is
// not copied, and it never changes.
func (d *Dict) Name(v relation.Value) string {
	if v >= 0 {
		sh := &d.shards[int(v)%dictShards]
		idx := int(v) / dictShards
		sh.mu.RLock()
		if idx < sh.n {
			name := sh.name(idx)
			sh.mu.RUnlock()
			return name
		}
		sh.mu.RUnlock()
	}
	return fmt.Sprintf("%d", int64(v))
}

// Len returns the number of interned names.
func (d *Dict) Len() int {
	n := 0
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.RLock()
		n += sh.n
		sh.mu.RUnlock()
	}
	return n
}

// Materialize copies the dictionary into a plain relation.Dict (value
// bindings preserved), for attaching to immutable snapshot states. The
// names alias the arenas, and the plain Dict builds its name index only if
// a lookup needs it, so a cut costs two slice fills.
func (d *Dict) Materialize() *relation.Dict {
	out := &relation.Dict{}
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.RLock()
		for idx := 0; idx < sh.n; idx++ {
			out.Define(relation.Value(idx*dictShards+i), sh.name(idx))
		}
		sh.mu.RUnlock()
	}
	return out
}
