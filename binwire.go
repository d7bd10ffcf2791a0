package indep

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"indep/internal/engine"
	"indep/internal/obs"
	"indep/internal/relation"
	"indep/internal/schema"
	"indep/internal/wal"
)

// This file is the length-prefixed binary wire protocol for the hot
// ingest/scan path: a batch encoding clients POST to /v1/batchbin, and a
// binary window-result encoding the daemon serves under
// Accept: application/x-indep-bin. Both sides avoid encoding/json entirely.
//
// A binary batch is a sequence of WAL record frames — the exact CRC32-framed
// bytes the log itself writes (wal.AppendRecordFrame) — so the wire format
// inherits the log's encoder, decoder, and corruption detection instead of
// defining a second serialization. Values travel as client-local integer ids
// bound by intern records; the server re-interns each name and remaps ids,
// so a batch is self-contained and ids never leak between requests.

// BinContentType is the media type of both binary wire encodings: the
// request body of POST /v1/batchbin and the window response the daemon
// serves when the Accept header names it.
const BinContentType = "application/x-indep-bin"

// BinBatchEncoder builds the binary request body for POST /v1/batchbin (or
// ConcurrentStore.ApplyBinBatch directly). Rows accumulate with Add; Bytes
// renders the frames. The encoder interns value names into a client-local id
// space and emits one intern frame per distinct name, so a batch that reuses
// values (the common ingest shape) carries each name once.
//
// An encoder is not safe for concurrent use.
type BinBatchEncoder struct {
	sch    *Schema
	vals   map[string]relation.Value // name → client-local id
	next   relation.Value
	frames []byte // framed intern records, in first-use order
	ops    []wal.TupleOp
	dels   []wal.TupleOp
}

// NewBinBatchEncoder creates an empty encoder for the schema. The schema
// fixes each relation's attribute order, which is the tuple's value order on
// the wire — client and server must be opened from the same declaration.
func NewBinBatchEncoder(sch *Schema) *BinBatchEncoder {
	return &BinBatchEncoder{sch: sch, vals: make(map[string]relation.Value)}
}

// intern returns the client-local id for a value name, emitting its binding
// frame on first use.
func (e *BinBatchEncoder) intern(name string) relation.Value {
	if v, ok := e.vals[name]; ok {
		return v
	}
	e.next++
	e.vals[name] = e.next
	e.frames = wal.AppendRecordFrame(e.frames, wal.Intern(e.next, name))
	return e.next
}

// Add appends one row to the batch. All attributes of the relation scheme
// must be present, exactly as for ConcurrentStore.Insert.
func (e *BinBatchEncoder) Add(rel string, row map[string]string) error {
	i, t, err := rowTuple(e.sch.s, e.intern, rel, row)
	if err != nil {
		return err
	}
	e.ops = append(e.ops, wal.TupleOp{Rel: i, Tuple: t})
	return nil
}

// Delete appends one delete to the batch. Within one payload all inserts
// apply before all deletes regardless of call order: Bytes emits the inserts
// as one atomic batch frame followed by one frame per delete, and the apply
// paths process frames in order. Deleting an absent tuple is a no-op, never
// an error, so deletes are safe to retry.
func (e *BinBatchEncoder) Delete(rel string, row map[string]string) error {
	i, t, err := rowTuple(e.sch.s, e.intern, rel, row)
	if err != nil {
		return err
	}
	e.dels = append(e.dels, wal.TupleOp{Rel: i, Tuple: t})
	return nil
}

// Len returns the number of operations added since the last Reset.
func (e *BinBatchEncoder) Len() int { return len(e.ops) + len(e.dels) }

// Bytes renders the batch: the intern frames, one atomic batch frame holding
// every added row, then one frame per delete. The result is self-contained —
// it binds every id it references — and decodes with ApplyBinBatch.
func (e *BinBatchEncoder) Bytes() []byte {
	buf := append([]byte(nil), e.frames...)
	if len(e.ops) > 0 {
		buf = wal.AppendRecordFrame(buf, wal.Batch(e.ops))
	}
	for _, d := range e.dels {
		buf = wal.AppendRecordFrame(buf, wal.Delete(d.Rel, d.Tuple))
	}
	return buf
}

// Reset empties the encoder for the next batch, including the intern table:
// each Bytes result must be self-contained, so bindings cannot carry over.
func (e *BinBatchEncoder) Reset() {
	clear(e.vals)
	e.next = 0
	e.frames = e.frames[:0]
	e.ops = e.ops[:0]
	e.dels = e.dels[:0]
}

// binBinding is one client id's binding within a binary batch: the name
// bytes (a view into the payload, for the rebind check), whether an insert
// references it, and the value it resolved to.
type binBinding struct {
	name     []byte
	insert   bool // some insert references the id: intern the name
	resolved bool // v is bound; false after a lookup miss
	v        relation.Value
}

// binScratch is binBatchOps' per-call working set, pooled so a steady
// stream of batches reuses one map and two slices instead of growing them
// per batch: ids maps a client id to its index in binds, and recs holds the
// decoded tuple records between validation and resolution.
type binScratch struct {
	ids   map[relation.Value]int
	binds []binBinding
	recs  []wal.Record
}

var binScratchPool = sync.Pool{New: func() any {
	return &binScratch{ids: make(map[relation.Value]int)}
}}

// binBatchOps walks the frames of a binary batch payload in two passes. The
// first validates the whole payload — frame checksums, intern bindings (no
// conflicting rebinds), relation indices, arities, and value-id boundness —
// and resolves nothing, so a malformed payload is reported with no side
// effect. The second resolves each bound name once, with the name as a view
// into payload that is valid only during the call: intern for a name some
// insert uses, lookup for any other. Then op is called once per tuple
// operation in frame order (inserts from KindInsert and KindBatch frames,
// deletes from KindDelete frames), with the tuple freshly decoded and
// resolved — every client id replaced by its value — so op may keep it. A
// delete that names a value lookup missed cannot match any stored tuple; op
// receives it with a nil tuple.
func binBatchOps(s *schema.Schema, payload []byte,
	intern func(name []byte) relation.Value,
	lookup func(name []byte) (relation.Value, bool),
	op func(kind wal.Kind, rel int, tuple relation.Tuple) error) error {
	sc := binScratchPool.Get().(*binScratch)
	defer func() {
		clear(sc.ids)
		clear(sc.binds) // drop the views into payload
		sc.binds = sc.binds[:0]
		clear(sc.recs)
		sc.recs = sc.recs[:0]
		binScratchPool.Put(sc)
	}()
	for buf := payload; len(buf) > 0; {
		pl, n, err := wal.NextStreamFrame(buf)
		if err != nil { // ErrShortFrame included: a truncated body is malformed
			return fmt.Errorf("indep: binary batch: %w", err)
		}
		buf = buf[n:]
		if len(pl) > 0 && wal.Kind(pl[0]) == wal.KindIntern {
			id, name, err := wal.DecodeIntern(pl)
			if err != nil {
				return fmt.Errorf("indep: binary batch: %w", err)
			}
			if prev, dup := sc.ids[id]; dup {
				if !bytes.Equal(sc.binds[prev].name, name) {
					return fmt.Errorf("indep: binary batch rebinds id %d (%q, then %q)",
						int64(id), sc.binds[prev].name, name)
				}
				continue
			}
			sc.ids[id] = len(sc.binds)
			sc.binds = append(sc.binds, binBinding{name: name})
			continue
		}
		rec, err := wal.DecodeRecord(pl)
		if err != nil {
			return fmt.Errorf("indep: binary batch: %w", err)
		}
		switch rec.Kind {
		case wal.KindInsert, wal.KindBatch, wal.KindDelete:
		default:
			return fmt.Errorf("indep: binary batch: unsupported record kind %d", rec.Kind)
		}
		for _, o := range rec.Ops {
			if o.Rel < 0 || o.Rel >= s.Size() {
				return fmt.Errorf("indep: binary batch addresses relation %d (schema has %d)",
					o.Rel, s.Size())
			}
			if want := s.Attrs(o.Rel).Len(); len(o.Tuple) != want {
				return fmt.Errorf("indep: binary batch: %s tuple has %d values, want %d",
					s.Name(o.Rel), len(o.Tuple), want)
			}
			for j, id := range o.Tuple {
				bi, ok := sc.ids[id]
				if !ok {
					return fmt.Errorf("indep: binary batch references unbound value id %d", int64(id))
				}
				if rec.Kind != wal.KindDelete {
					sc.binds[bi].insert = true
				}
				o.Tuple[j] = relation.Value(bi) // resolved below
			}
		}
		sc.recs = append(sc.recs, rec)
	}

	for i := range sc.binds {
		b := &sc.binds[i]
		if b.insert {
			b.v, b.resolved = intern(b.name), true
		} else {
			b.v, b.resolved = lookup(b.name)
		}
	}
	for _, rec := range sc.recs {
		for _, o := range rec.Ops {
			t := o.Tuple
			for j, bi := range t {
				b := &sc.binds[bi]
				if !b.resolved { // only a delete's lookup can miss
					t = nil
					break
				}
				t[j] = b.v
			}
			if err := op(rec.Kind, o.Rel, t); err != nil {
				return err
			}
		}
	}
	return nil
}

// ApplyBinBatch decodes a binary batch (a BinBatchEncoder payload) and
// applies it: all inserts are admitted atomically — either every row is
// admitted or the state is unchanged and the first violation is returned —
// and then any deletes are applied in frame order (a delete never fails; an
// absent tuple is a no-op). The return value is the number of operations
// applied. The decode path shares the WAL's frame and record parsers and
// never touches encoding/json. A tuple referencing an unbound id, an
// unknown relation, or a wrong arity is malformed (not a rejection), and a
// malformed payload is detected before anything is applied or interned.
// Client-local value ids are then remapped straight from the payload bytes
// (a name the store already knows costs no allocation): names that inserts
// use are interned, names only deletes use are looked up, so a delete of
// unseen values is an applied no-op that leaves the dictionary alone.
func (cs *ConcurrentStore) ApplyBinBatch(ctx context.Context, payload []byte) (int, error) {
	ctx, sp := obs.StartSpan(ctx, "store.batchbin")
	if sp.Recording() {
		sp.SetInt("bytes", int64(len(payload)))
	}
	defer sp.End()
	var eops, dels []engine.Op
	dict := cs.eng.Dict()
	err := binBatchOps(cs.schema.s, payload, dict.ValueBytes, dict.LookupBytes,
		func(kind wal.Kind, rel int, t relation.Tuple) error {
			if kind == wal.KindDelete {
				dels = append(dels, engine.Op{Scheme: rel, Tuple: t})
			} else {
				eops = append(eops, engine.Op{Scheme: rel, Tuple: t})
			}
			return nil
		})
	if err != nil {
		return 0, err
	}
	if len(eops) > 0 {
		if err := cs.eng.InsertBatchCtx(ctx, eops); err != nil {
			return 0, err
		}
	}
	for _, d := range dels {
		if d.Tuple == nil { // names a value the store never saw: nothing to delete
			continue
		}
		if _, err := cs.eng.DeleteCtx(ctx, d.Scheme, d.Tuple); err != nil {
			return len(eops), err
		}
	}
	return len(eops) + len(dels), nil
}

// BinOp is one decoded operation of a binary batch payload — the
// router-facing view of the wire format, with values resolved back to names
// so a cluster tier can split a client batch and re-encode each operation
// for the shard that owns it.
type BinOp struct {
	Rel    string
	Delete bool
	Row    map[string]string
}

// DecodeBinBatch decodes a binary batch payload into its operations in
// frame order without applying anything. Validation matches ApplyBinBatch:
// checksummed frames, no conflicting rebinds, known relations, exact
// arities, every referenced id bound. This is how a cluster router takes a
// batch apart before forwarding the pieces.
func (s *Schema) DecodeBinBatch(payload []byte) ([]BinOp, error) {
	var names []string // indexed by the values binBatchOps resolves ids to
	var ops []BinOp
	bind := func(name []byte) relation.Value {
		names = append(names, string(name))
		return relation.Value(len(names) - 1)
	}
	err := binBatchOps(s.s, payload, bind,
		func(name []byte) (relation.Value, bool) { return bind(name), true },
		func(kind wal.Kind, rel int, tuple relation.Tuple) error {
			attrs := s.s.Attrs(rel).Attrs()
			row := make(map[string]string, len(attrs))
			for j, a := range attrs {
				row[s.s.U.Name(a)] = names[tuple[j]]
			}
			ops = append(ops, BinOp{Rel: s.s.Name(rel), Delete: kind == wal.KindDelete, Row: row})
			return nil
		})
	if err != nil {
		return nil, err
	}
	return ops, nil
}

// OpOutcome records one operation of a partially applied batch that was not
// applied. Index is the operation's 0-based position in payload frame order
// — the same order DecodeBinBatch returns — so a router can map a shard's
// outcomes back onto the client's original batch.
type OpOutcome struct {
	Index int    `json:"index"`
	Code  string `json:"code"` // "rejected"
	Error string `json:"error"`
}

// BatchReport summarizes a partially applied batch. Processed counts the
// operations attempted; it falls short of Ops only when a non-rejection
// error (durability, chase budget) aborted the run midway, in which case
// ApplyBinBatchPartial also returns that error. Rejections never stop the
// batch: the rejected operation is recorded and the rest proceed.
type BatchReport struct {
	Ops       int         `json:"ops"`
	Processed int         `json:"processed"`
	Applied   int         `json:"applied"`
	Rejected  []OpOutcome `json:"rejected,omitempty"`
}

// ApplyBinBatchPartial decodes a binary batch and applies each operation
// individually in frame order, reporting per-operation outcomes instead of
// the all-or-nothing semantics of ApplyBinBatch. This is the mode a cluster
// router uses (POST /v1/batchbin?partial=1): a batch split across shards
// cannot be atomic anyway, and per-op outcomes are what reassembles into a
// single client-facing report. A malformed payload is detected up front and
// applies nothing. Re-applying an accepted insert or an applied delete is a
// no-op, so retrying a partially applied payload converges.
func (cs *ConcurrentStore) ApplyBinBatchPartial(ctx context.Context, payload []byte) (*BatchReport, error) {
	ctx, sp := obs.StartSpan(ctx, "store.batchbin.partial")
	if sp.Recording() {
		sp.SetInt("bytes", int64(len(payload)))
	}
	defer sp.End()
	type resolved struct {
		del bool
		rel int
		t   relation.Tuple
	}
	var ops []resolved
	dict := cs.eng.Dict()
	err := binBatchOps(cs.schema.s, payload, dict.ValueBytes, dict.LookupBytes,
		func(kind wal.Kind, rel int, t relation.Tuple) error {
			ops = append(ops, resolved{del: kind == wal.KindDelete, rel: rel, t: t})
			return nil
		})
	if err != nil {
		return nil, err
	}
	rep := &BatchReport{Ops: len(ops)}
	for i, o := range ops {
		rep.Processed++
		if o.del {
			if o.t != nil { // nil: names a value the store never saw
				if _, err := cs.eng.DeleteCtx(ctx, o.rel, o.t); err != nil {
					return rep, err
				}
			}
			rep.Applied++
			continue
		}
		switch err := cs.eng.InsertCtx(ctx, o.rel, o.t); {
		case err == nil:
			rep.Applied++
		case Rejected(err):
			rep.Rejected = append(rep.Rejected, OpOutcome{Index: i, Code: "rejected", Error: err.Error()})
		default:
			return rep, err
		}
	}
	return rep, nil
}

// RelationBinary renders the named relation's live tuples as a binary
// window result over the relation's own attributes, unsorted and unlimited —
// the raw fragment a cluster router gathers from each shard when a window
// must be evaluated away from the data (GET /v1/cluster/rel). Decode with
// DecodeWindowBinary; the fragment's Total is its row count.
func (cs *ConcurrentStore) RelationBinary(rel string) ([]byte, error) {
	i := cs.schema.s.IndexOf(rel)
	if i < 0 {
		return nil, fmt.Errorf("indep: unknown relation %q", rel)
	}
	st := cs.eng.Snapshot()
	inst := st.Insts[i]
	slots := inst.LiveRows()
	names := cs.schema.s.U.Names(cs.schema.s.Attrs(i))
	return encodeWindowBinary(st.Dict, names, len(slots), func(r, c int) relation.Value {
		return inst.At(slots[r], c)
	}, len(slots), cs.eng.Fast(), false), nil
}

// Binary window-result layout (everything before the trailing checksum is
// covered by it):
//
//	magic "IWIN1"
//	flags byte               bit0 fastPath, bit1 planCached
//	uvarint total            window rows before Limit
//	uvarint nattrs           then per attribute: uvarint len, name bytes
//	uvarint nbind            then per binding: varint value, uvarint len, name bytes
//	uvarint nrows            then nrows × nattrs varint values
//	uint32 LE                CRC32-Castagnoli of all preceding bytes
//
// Bindings cover exactly the values the rows reference, in first-appearance
// order, so the result is self-contained and its size tracks the distinct
// values, not the dictionary.
var winMagic = []byte("IWIN1")

var binCRC = crc32.MakeTable(crc32.Castagnoli)

// encodeWindowBinary renders a sorted, limited window as the binary result.
// at addresses the i-th emitted row's j-th column value.
func encodeWindowBinary(dict *relation.Dict, names []string, nrows int,
	at func(row, col int) relation.Value, total int, fast, cached bool) []byte {
	buf := append([]byte(nil), winMagic...)
	var flags byte
	if fast {
		flags |= 1
	}
	if cached {
		flags |= 2
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(total))
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, nm := range names {
		buf = binary.AppendUvarint(buf, uint64(len(nm)))
		buf = append(buf, nm...)
	}
	seen := make(map[relation.Value]bool)
	vals := make([]relation.Value, 0, nrows)
	for i := 0; i < nrows; i++ {
		for j := range names {
			if v := at(i, j); !seen[v] {
				seen[v] = true
				vals = append(vals, v)
			}
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	for _, v := range vals {
		nm := dict.Name(v)
		buf = binary.AppendVarint(buf, int64(v))
		buf = binary.AppendUvarint(buf, uint64(len(nm)))
		buf = append(buf, nm...)
	}
	buf = binary.AppendUvarint(buf, uint64(nrows))
	for i := 0; i < nrows; i++ {
		for j := range names {
			buf = binary.AppendVarint(buf, int64(at(i, j)))
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, binCRC))
}

// DecodeWindowBinary parses a binary window result (WindowResult.Bin, or the
// body of a /window response served as application/x-indep-bin) back into
// the JSON-equivalent shape: rendered rows, total, and the plan flags.
func DecodeWindowBinary(data []byte) (*WindowResult, error) {
	if len(data) < len(winMagic)+1+4 || string(data[:len(winMagic)]) != string(winMagic) {
		return nil, fmt.Errorf("indep: not a binary window result")
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, binCRC) != sum {
		return nil, fmt.Errorf("indep: binary window result fails checksum")
	}
	b := body[len(winMagic):]
	flags := b[0]
	b = b[1:]
	readStr := func() (string, error) {
		n, rest, err := readWireUvarint(b)
		if err != nil {
			return "", err
		}
		if n > uint64(len(rest)) {
			return "", fmt.Errorf("indep: binary window result: string length %d exceeds payload", n)
		}
		b = rest[n:]
		return string(rest[:n]), nil
	}
	total, b2, err := readWireUvarint(b)
	if err != nil {
		return nil, err
	}
	b = b2
	nattrs, b2, err := readWireUvarint(b)
	if err != nil {
		return nil, err
	}
	b = b2
	if nattrs > uint64(len(b)) {
		return nil, fmt.Errorf("indep: binary window result: %d attributes exceed payload", nattrs)
	}
	out := &WindowResult{
		Attrs:      make([]string, nattrs),
		Total:      int(total),
		FastPath:   flags&1 != 0,
		PlanCached: flags&2 != 0,
	}
	for i := range out.Attrs {
		if out.Attrs[i], err = readStr(); err != nil {
			return nil, err
		}
	}
	nbind, b2, err := readWireUvarint(b)
	if err != nil {
		return nil, err
	}
	b = b2
	if nbind > uint64(len(b)) {
		return nil, fmt.Errorf("indep: binary window result: %d bindings exceed payload", nbind)
	}
	bind := make(map[relation.Value]string, nbind)
	for i := uint64(0); i < nbind; i++ {
		v, rest, err := readWireVarint(b)
		if err != nil {
			return nil, err
		}
		b = rest
		nm, err2 := readStr()
		if err2 != nil {
			return nil, err2
		}
		bind[relation.Value(v)] = nm
	}
	nrows, b2, err := readWireUvarint(b)
	if err != nil {
		return nil, err
	}
	b = b2
	if nattrs > 0 && nrows > uint64(len(b))/nattrs {
		return nil, fmt.Errorf("indep: binary window result: %d rows exceed payload", nrows)
	}
	out.Rows = make([]map[string]string, nrows)
	for i := range out.Rows {
		row := make(map[string]string, nattrs)
		for _, a := range out.Attrs {
			v, rest, err := readWireVarint(b)
			if err != nil {
				return nil, err
			}
			b = rest
			nm, ok := bind[relation.Value(v)]
			if !ok {
				return nil, fmt.Errorf("indep: binary window result references unbound value %d", v)
			}
			row[a] = nm
		}
		out.Rows[i] = row
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("indep: binary window result: %d trailing bytes", len(b))
	}
	return out, nil
}

func readWireUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("indep: binary window result: truncated uvarint")
	}
	return v, b[n:], nil
}

func readWireVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("indep: binary window result: truncated varint")
	}
	return v, b[n:], nil
}
