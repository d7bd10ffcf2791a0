// Package wal is the durable storage layer under the concurrent engine: a
// write-ahead log of admitted operations plus snapshot checkpoints.
//
// Independence is what makes this log cheap. For an independent schema the
// engine admits each insert after an O(|F_i|) check local to one relation,
// so the admission decision itself — relation index plus interned values —
// is a complete redo record: replaying the per-relation record stream
// through the same guards reconstructs the state without ever re-running a
// global chase. The log therefore stores exactly that: CRC32-framed
// intern/insert/delete/batch records, appended by a single group-commit
// writer that coalesces concurrent commits into one fsync, rotated across
// numbered segments, and truncated by checkpoints that serialize a full
// snapshot of the state and dictionary.
//
// Durability contract: a record whose commit wait returned nil survives any
// crash (under SyncAlways). A torn tail — a partially written final frame —
// is detected by length/CRC checks and truncated on recovery; every frame
// before it is replayed. Replay is idempotent, so recovering twice, or
// recovering a state that already contains a checkpointed prefix, converges
// to the same state.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"indep/internal/relation"
)

// Kind discriminates the record types of the log.
type Kind byte

const (
	// KindIntern binds a dictionary value to its display name. Intern
	// records are enqueued under the dictionary shard lock at allocation
	// time, so within a shard they appear in the log in allocation order
	// and always precede any committed operation that uses the value.
	KindIntern Kind = 1
	// KindInsert is one admitted tuple insert.
	KindInsert Kind = 2
	// KindDelete is one applied tuple delete.
	KindDelete Kind = 3
	// KindBatch is an atomically admitted multi-tuple insert.
	KindBatch Kind = 4
)

// TupleOp addresses one tuple of a record to its relation scheme.
type TupleOp struct {
	Rel   int
	Tuple relation.Tuple
}

// Record is one logical log entry. Exactly one of the payload shapes is
// meaningful, selected by Kind: (Value, Name) for interns, Ops for the rest
// (length 1 for insert/delete).
type Record struct {
	Kind  Kind
	Value relation.Value // KindIntern
	Name  string         // KindIntern
	Ops   []TupleOp      // KindInsert, KindDelete, KindBatch
}

// Intern builds a dictionary-binding record.
func Intern(v relation.Value, name string) Record {
	return Record{Kind: KindIntern, Value: v, Name: name}
}

// Insert builds a single-insert record.
func Insert(rel int, t relation.Tuple) Record {
	return Record{Kind: KindInsert, Ops: []TupleOp{{Rel: rel, Tuple: t}}}
}

// Delete builds a single-delete record.
func Delete(rel int, t relation.Tuple) Record {
	return Record{Kind: KindDelete, Ops: []TupleOp{{Rel: rel, Tuple: t}}}
}

// Batch builds an atomic multi-insert record.
func Batch(ops []TupleOp) Record {
	return Record{Kind: KindBatch, Ops: ops}
}

// appendPayload encodes the record body (everything inside a frame).
func (r Record) appendPayload(buf []byte) []byte {
	buf = append(buf, byte(r.Kind))
	switch r.Kind {
	case KindIntern:
		buf = binary.AppendVarint(buf, int64(r.Value))
		buf = binary.AppendUvarint(buf, uint64(len(r.Name)))
		buf = append(buf, r.Name...)
	case KindInsert, KindDelete:
		buf = appendTupleOp(buf, r.Ops[0])
	case KindBatch:
		buf = binary.AppendUvarint(buf, uint64(len(r.Ops)))
		for _, op := range r.Ops {
			buf = appendTupleOp(buf, op)
		}
	}
	return buf
}

func appendTupleOp(buf []byte, op TupleOp) []byte {
	buf = binary.AppendUvarint(buf, uint64(op.Rel))
	buf = binary.AppendUvarint(buf, uint64(len(op.Tuple)))
	for _, v := range op.Tuple {
		buf = binary.AppendVarint(buf, int64(v))
	}
	return buf
}

// maxPayload bounds a frame payload; anything larger is treated as
// corruption rather than an allocation request.
const maxPayload = 1 << 28

// maxBatchOps bounds the declared op count of a batch record so a corrupt
// length prefix cannot drive a huge allocation.
const maxBatchOps = 1 << 22

// DecodeRecord parses one record payload. Trailing bytes are an error: a
// frame holds exactly one record.
func DecodeRecord(payload []byte) (Record, error) {
	if len(payload) == 0 {
		return Record{}, fmt.Errorf("wal: empty record payload")
	}
	r := Record{Kind: Kind(payload[0])}
	b := payload[1:]
	var err error
	switch r.Kind {
	case KindIntern:
		v, name, err := DecodeIntern(payload)
		if err != nil {
			return Record{}, err
		}
		return Intern(v, string(name)), nil
	case KindInsert, KindDelete:
		var op TupleOp
		op, b, err = readTupleOp(b, nil)
		if err != nil {
			return Record{}, err
		}
		r.Ops = []TupleOp{op}
	case KindBatch:
		var n uint64
		n, b, err = readUvarint(b)
		if err != nil {
			return Record{}, err
		}
		// Each op takes at least 2 payload bytes (rel + arity), so a count
		// beyond len(b)/2 is corruption — checked BEFORE allocating, so a
		// tiny corrupt frame cannot demand a huge slice.
		if n > maxBatchOps || n > uint64(len(b))/2 {
			return Record{}, fmt.Errorf("wal: batch of %d ops exceeds payload", n)
		}
		// Every tuple of the batch slices one backing array, sized by a
		// first pass that only skips varints: one allocation per record
		// instead of one per tuple.
		total, err := countBatchValues(b, n)
		if err != nil {
			return Record{}, err
		}
		vals := make([]relation.Value, total)
		r.Ops = make([]TupleOp, 0, n)
		for i := uint64(0); i < n; i++ {
			var op TupleOp
			op, b, err = readTupleOp(b, vals)
			if err != nil {
				return Record{}, err
			}
			vals = vals[len(op.Tuple):]
			r.Ops = append(r.Ops, op)
		}
	default:
		return Record{}, fmt.Errorf("wal: unknown record kind %d", payload[0])
	}
	if len(b) != 0 {
		return Record{}, fmt.Errorf("wal: %d trailing bytes after record", len(b))
	}
	return r, nil
}

// DecodeIntern parses an intern record payload (DecodeRecord's KindIntern
// case) without copying the name: name is a view into payload, valid only
// as long as payload is. Hot decoders use it to look a name up before
// deciding whether it needs a copy at all.
func DecodeIntern(payload []byte) (v relation.Value, name []byte, err error) {
	if len(payload) == 0 || Kind(payload[0]) != KindIntern {
		return 0, nil, fmt.Errorf("wal: not an intern record")
	}
	iv, b, err := readVarint(payload[1:])
	if err != nil {
		return 0, nil, err
	}
	n, b, err := readUvarint(b)
	if err != nil {
		return 0, nil, err
	}
	if n > uint64(len(b)) {
		return 0, nil, fmt.Errorf("wal: intern name length %d exceeds payload", n)
	}
	if uint64(len(b)) != n {
		return 0, nil, fmt.Errorf("wal: %d trailing bytes after record", uint64(len(b))-n)
	}
	return relation.Value(iv), b[:n], nil
}

// countBatchValues returns the total tuple arity of the n ops at the start
// of b, bounded by len(b) (each value takes at least one byte), without
// decoding any value.
func countBatchValues(b []byte, n uint64) (int, error) {
	total := uint64(0)
	for i := uint64(0); i < n; i++ {
		_, rest, err := readUvarint(b)
		if err != nil {
			return 0, err
		}
		arity, rest, err := readUvarint(rest)
		if err != nil {
			return 0, err
		}
		if arity > uint64(len(rest)) {
			return 0, fmt.Errorf("wal: tuple arity %d exceeds payload", arity)
		}
		total += arity
		for j := uint64(0); j < arity; j++ {
			if _, rest, err = readVarint(rest); err != nil {
				return 0, err
			}
		}
		b = rest
	}
	return int(total), nil
}

// readTupleOp decodes one op. Its tuple takes the first arity slots of dst
// (capacity-limited, so appending to it never spills into a neighbour) or,
// with a nil dst, a fresh slice.
func readTupleOp(b []byte, dst []relation.Value) (TupleOp, []byte, error) {
	rel, b, err := readUvarint(b)
	if err != nil {
		return TupleOp{}, nil, err
	}
	arity, b, err := readUvarint(b)
	if err != nil {
		return TupleOp{}, nil, err
	}
	if arity > uint64(len(b)) { // each value takes ≥ 1 byte
		return TupleOp{}, nil, fmt.Errorf("wal: tuple arity %d exceeds payload", arity)
	}
	var t relation.Tuple
	if dst == nil {
		t = make(relation.Tuple, arity)
	} else {
		t = relation.Tuple(dst[:arity:arity])
	}
	for i := range t {
		var v int64
		v, b, err = readVarint(b)
		if err != nil {
			return TupleOp{}, nil, err
		}
		t[i] = relation.Value(v)
	}
	return TupleOp{Rel: int(rel), Tuple: t}, b, nil
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("wal: truncated uvarint")
	}
	return v, b[n:], nil
}

func readVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("wal: truncated varint")
	}
	return v, b[n:], nil
}

// Frame layout: [payloadLen uint32 LE][crc32(payload) uint32 LE][payload].
const frameHeader = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendRecordFrame encodes rec as a CRC-framed payload appended to buf —
// the exact bytes the log writes for the record. The binary batch wire
// protocol reuses it so a client-encoded batch and a journaled batch share
// one encoder, one decoder, and one corruption check (NextStreamFrame +
// DecodeRecord parse both).
func AppendRecordFrame(buf []byte, rec Record) []byte {
	return appendFrame(buf, rec)
}

// appendFrame encodes rec as a CRC-framed payload appended to buf.
func appendFrame(buf []byte, rec Record) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = rec.appendPayload(buf)
	payload := buf[start+frameHeader:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf
}

// nextFrame reads the frame at the start of b, returning the payload and
// the remaining bytes. ok is false when b does not start with a complete,
// checksum-valid frame — the torn-tail condition recovery truncates at. An
// absurd length prefix is treated the same way: it is indistinguishable
// from a partially written header.
func nextFrame(b []byte) (payload, rest []byte, ok bool) {
	if len(b) < frameHeader {
		return nil, nil, false
	}
	n := binary.LittleEndian.Uint32(b)
	if n > maxPayload {
		return nil, nil, false
	}
	sum := binary.LittleEndian.Uint32(b[4:])
	if uint64(frameHeader)+uint64(n) > uint64(len(b)) {
		return nil, nil, false
	}
	payload = b[frameHeader : frameHeader+n]
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, nil, false
	}
	return payload, b[frameHeader+n:], true
}
