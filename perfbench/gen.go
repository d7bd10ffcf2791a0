package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"indep"
)

// This file generates every input a run sends, from the seed alone and
// before any timer starts: tuples, encoded payloads, window queries, planted
// conflicts, and the verdict each request must get. The daemon only ever
// receives these bytes.

// Star schema of indepbench -printschema (5 relations, 25 attributes): a
// keyless fact relation plus four keyed dimensions.
const (
	starSchema = "FACT(A,B,C,D); DIM1(A,E,F,G,H,I); DIM2(B,J,K,L,M,N); DIM3(C,O,P,Q,R,S); DIM4(D,T,U,V,W,X,Y)"
	starFDs    = "A -> E F G H I; B -> J K L M N; C -> O P Q R S; D -> T U V W X Y"
)

// chainDecl renders the keyed chain R_i(A_i,A_{i+1}), A_i -> A_{i+1}, over
// n attributes: n-1 two-attribute relations.
func chainDecl(n int) (schemaSrc, fdSrc string) {
	var rels, fds []string
	for i := 0; i+1 < n; i++ {
		rels = append(rels, fmt.Sprintf("R%d(A%d,A%d)", i, i, i+1))
		fds = append(fds, fmt.Sprintf("A%d -> A%d", i, i+1))
	}
	return strings.Join(rels, "; "), strings.Join(fds, "; ")
}

// tup is one generated tuple in compact form. Its values are rendered on
// demand from the namespace ns and the entity numbers in keys, so millions
// of tuples cost a few bytes each. Position j of the relation takes entity
// keys[min(j, nkeys-1)]; alt, when nonzero, changes every value after the
// first position, which turns a keyed tuple into a conflicting variant of
// the original.
type tup struct {
	rel  int16
	ns   int16
	alt  int16
	keys [4]int32
}

// space binds a schema to the rendering of tuples over it.
type space struct {
	sch   *indep.Schema
	decl  [2]string  // schema and FD declarations
	rels  []string   // relation names, schema order
	attrs [][]string // per relation: attribute names in universe order
	nkeys []int      // per relation: entity positions (see tup)
}

func newSpace(schemaSrc, fdSrc string, nkeys func(rel string) int) (*space, error) {
	sch, err := indep.Parse(schemaSrc, fdSrc)
	if err != nil {
		return nil, err
	}
	sp := &space{sch: sch, decl: [2]string{schemaSrc, fdSrc}, rels: sch.Relations()}
	for _, r := range sp.rels {
		a, err := sch.RelationAttrs(r)
		if err != nil {
			return nil, err
		}
		sp.attrs = append(sp.attrs, a)
		sp.nkeys = append(sp.nkeys, nkeys(r))
	}
	return sp, nil
}

func starSpace() (*space, error) {
	return newSpace(starSchema, starFDs, func(rel string) int {
		if rel == "FACT" {
			return 4
		}
		return 1
	})
}

func chainSpace(n int) (*space, error) {
	s, f := chainDecl(n)
	return newSpace(s, f, func(string) int { return 2 })
}

// value renders position j of t.
func (sp *space) value(t tup, j int) string {
	k := t.keys[min(j, sp.nkeys[t.rel]-1)]
	b := make([]byte, 0, 24)
	b = append(b, sp.attrs[t.rel][j]...)
	b = append(b, '.')
	b = strconv.AppendInt(b, int64(t.ns), 10)
	b = append(b, '.')
	b = strconv.AppendInt(b, int64(k), 10)
	if t.alt != 0 && j > 0 {
		b = append(b, '~')
		b = strconv.AppendInt(b, int64(t.alt), 10)
	}
	return string(b)
}

func (sp *space) values(t tup) []string {
	out := make([]string, len(sp.attrs[t.rel]))
	for j := range out {
		out[j] = sp.value(t, j)
	}
	return out
}

func (sp *space) row(t tup) map[string]string {
	attrs := sp.attrs[t.rel]
	row := make(map[string]string, len(attrs))
	for j, a := range attrs {
		row[a] = sp.value(t, j)
	}
	return row
}

// userBytes is the value bytes a tuple carries: what a client asked to
// store, against which disk growth is compared.
func (sp *space) userBytes(t tup) int {
	n := 0
	for j := range sp.attrs[t.rel] {
		n += len(sp.value(t, j))
	}
	return n
}

// encode renders tuples as one binary batch payload.
func (sp *space) encode(ts []tup) ([]byte, error) {
	enc := indep.NewBinBatchEncoder(sp.sch)
	for _, t := range ts {
		if err := enc.Add(sp.rels[t.rel], sp.row(t)); err != nil {
			return nil, err
		}
	}
	return enc.Bytes(), nil
}

// skewed draws from [0, n) with density falling toward n: u^3 puts a
// quarter of the draws on the lowest 1.6% of the range.
func skewed(r *rand.Rand, n int) int32 {
	u := r.Float64()
	return int32(float64(n) * u * u * u)
}

// binBatch is one pre-encoded /v1/batchbin request and the outcome it must
// get. For a single node the verdict is the status (200, or 409 for a batch
// carrying a planted conflict); behind the router it is the exact list of
// rejected operation indices.
type binBatch struct {
	tups     []tup
	payload  []byte
	conflict bool  // single node: the whole batch must be refused with 409
	rejected []int // router: indices that must come back rejected
}

// ---- bulk-ingest -------------------------------------------------------

// bulkParams sizes bulk-ingest.
type bulkParams struct {
	BatchOps      int     `json:"batch_ops"`
	Conns         int     `json:"conns"`
	SegmentTuples int     `json:"segment_tuples"` // tuples one segment sends, all connections together
	DimShare      float64 `json:"dim_share"`      // share of ops that are dimension rows
	DupShare      float64 `json:"dup_share"`      // share of dimension rows that repeat an earlier one exactly
	ConflictOdds  int     `json:"conflict_every"` // one batch in this many carries a planted conflict
}

var bulkDefaults = bulkParams{BatchOps: 64, Conns: 2, SegmentTuples: 400000, DimShare: 0.3, DupShare: 0.1, ConflictOdds: 50}

// genBulk builds each connection's queue of batches. Connection c owns
// namespace c, so the two closed loops never race on a key: a planted
// conflict always contradicts a dimension row its own connection had
// acknowledged in an earlier batch, and that verdict is fixed no matter how
// the two loops interleave.
func genBulk(sp *space, seed int64, p bulkParams) ([][]binBatch, error) {
	perConn := p.SegmentTuples / (p.BatchOps * p.Conns)
	queues := make([][]binBatch, p.Conns)
	for c := range queues {
		r := rand.New(rand.NewSource(seed*7919 + int64(c)))
		var dims [5]int // acknowledged entities per dimension relation (1..4)
		for b := 0; b < perConn; b++ {
			conflict := b > 0 && r.Intn(p.ConflictOdds) == 0
			next := dims
			ts := make([]tup, 0, p.BatchOps)
			for len(ts) < p.BatchOps {
				d := 1 + r.Intn(4)
				switch {
				case next[d] == 0 || r.Float64() < p.DimShare:
					k := int32(next[d])
					if dims[d] > 0 && r.Float64() < p.DupShare {
						k = skewed(r, dims[d])
					} else {
						next[d]++
					}
					ts = append(ts, tup{rel: int16(d), ns: int16(c), keys: [4]int32{k}})
				default:
					var t tup
					t.ns = int16(c)
					for e := 1; e <= 4; e++ {
						if next[e] == 0 {
							t.keys[e-1] = 0
							continue
						}
						t.keys[e-1] = skewed(r, next[e])
					}
					if next[1] == 0 || next[2] == 0 || next[3] == 0 || next[4] == 0 {
						continue // a fact needs every dimension populated
					}
					ts = append(ts, t)
				}
			}
			if conflict {
				d := 1 + r.Intn(4)
				for dims[d] == 0 {
					d = 1 + r.Intn(4)
				}
				ts[r.Intn(len(ts))] = tup{rel: int16(d), ns: int16(c), alt: 1, keys: [4]int32{skewed(r, dims[d])}}
			} else {
				dims = next // a refused batch creates no entities
			}
			payload, err := sp.encode(ts)
			if err != nil {
				return nil, err
			}
			queues[c] = append(queues[c], binBatch{tups: ts, payload: payload, conflict: conflict})
		}
	}
	return queues, nil
}

// ---- routed-ingest -----------------------------------------------------

type routedParams struct {
	ChainAttrs    int     `json:"chain_attrs"`
	BatchOps      int     `json:"batch_ops"`
	Conns         int     `json:"conns"`
	Shards        int     `json:"shards"`
	SegmentTuples int     `json:"segment_tuples"`
	DupShare      float64 `json:"dup_share"`
	ConflictOdds  int     `json:"conflict_every"` // one batch in this many carries a planted conflict
}

var routedDefaults = routedParams{ChainAttrs: 64, BatchOps: 64, Conns: 2, Shards: 2, SegmentTuples: 250000, DupShare: 0.1, ConflictOdds: 8}

// genRouted builds each connection's queue of 64-op batches over the chain.
// Tuple R_i(k) links entity k of A_i to entity k/2 of A_{i+1}, so windows
// across neighbouring relations join. A planted conflict re-keys an
// earlier entity of the same relation with a different right-hand value —
// either one acknowledged in an earlier batch or one inserted earlier in
// the same batch (same partition key, same shard, applied in order) — and
// must come back rejected at exactly its index.
func genRouted(sp *space, seed int64, p routedParams) ([][]binBatch, error) {
	nrel := len(sp.rels)
	perConn := p.SegmentTuples / (p.BatchOps * p.Conns)
	queues := make([][]binBatch, p.Conns)
	for c := range queues {
		r := rand.New(rand.NewSource(seed*104729 + int64(c)))
		ents := make([]int32, nrel) // entities created per relation
		for b := 0; b < perConn; b++ {
			start := append([]int32(nil), ents...)
			ts := make([]tup, 0, p.BatchOps)
			var rejected []int
			conflict := b > 0 && r.Intn(p.ConflictOdds) == 0
			at := -1
			if conflict {
				at = 1 + r.Intn(p.BatchOps-1)
			}
			for j := 0; j < p.BatchOps; j++ {
				i := r.Intn(nrel)
				if j == at {
					// Contradict an entity of relation i known by now.
					for ents[i] == 0 {
						i = r.Intn(nrel)
					}
					k := skewed(r, int(ents[i]))
					ts = append(ts, tup{rel: int16(i), ns: int16(c), alt: 1, keys: [4]int32{k, k / 2}})
					rejected = append(rejected, j)
					continue
				}
				k := ents[i]
				if start[i] > 0 && r.Float64() < p.DupShare {
					k = skewed(r, int(start[i]))
				} else {
					ents[i]++
				}
				ts = append(ts, tup{rel: int16(i), ns: int16(c), keys: [4]int32{k, k / 2}})
			}
			payload, err := sp.encode(ts)
			if err != nil {
				return nil, err
			}
			queues[c] = append(queues[c], binBatch{tups: ts, payload: payload, rejected: rejected})
		}
	}
	return queues, nil
}

// ---- app-serve ---------------------------------------------------------

type appParams struct {
	Segments         int     `json:"segments"` // the run is this many equal open-loop segments
	CheckpointTuples int     `json:"checkpoint_tuples"`
	TailTuples       int     `json:"wal_tail_tuples"`
	ReadKeys         int     `json:"read_keys"`
	WritesPerS       int     `json:"writes_per_s"`
	ReadsPerS        int     `json:"reads_per_s"`
	LiveWriteTuples  int     `json:"live_write_tuples"` // write-stream tuples kept live; deletes hold the store at this size
	BatchRows        int     `json:"batch_rows"`
	ConflictShare    float64 `json:"conflict_share"`
	WriteLimitMs     float64 `json:"write_limit_ms"`
	KeyLimitMs       float64 `json:"key_limit_ms"`
	DimLimitMs       float64 `json:"dim_limit_ms"`
	JoinLimitMs      float64 `json:"join_limit_ms"`
}

var appDefaults = appParams{
	Segments: 5, CheckpointTuples: 500, TailTuples: 250, ReadKeys: 24,
	WritesPerS: 300, ReadsPerS: 15, LiveWriteTuples: 100, BatchRows: 8,
	ConflictShare: 0.05,
	WriteLimitMs:  20, KeyLimitMs: 15, DimLimitMs: 60, JoinLimitMs: 60,
}

// Namespaces of app-serve: the static data the reads target, and the
// write stream, which never touches a static key except to conflict with it.
const (
	nsStatic = 7
	nsWrite  = 8
)

// genStarData draws n star tuples in namespace ns: about a fifth dimension
// rows, the rest facts over existing dimension entities.
func genStarData(r *rand.Rand, ns int16, n int, dims *[5]int) []tup {
	var ts []tup
	for len(ts) < n {
		d := 1 + r.Intn(4)
		if dims[d] < 4 || r.Intn(5) == 0 {
			ts = append(ts, tup{rel: int16(d), ns: ns, keys: [4]int32{int32(dims[d])}})
			dims[d]++
			continue
		}
		if dims[1] == 0 || dims[2] == 0 || dims[3] == 0 || dims[4] == 0 {
			continue
		}
		t := tup{ns: ns}
		for e := 1; e <= 4; e++ {
			t.keys[e-1] = skewed(r, dims[e])
		}
		ts = append(ts, t)
	}
	return ts
}

// Write kinds of app-serve's JSON write stream.
const (
	wInsert = iota
	wBatch
	wDelete
	wConflict      // single insert contradicting a static dimension row
	wConflictBatch // batch whose last row contradicts a static dimension row
)

var writeKindNames = []string{"insert", "batch", "delete", "conflict", "conflict_batch"}

type writeOp struct {
	kind   int
	tups   []tup
	method string
	path   string
	body   []byte
	want   int  // status
	found  bool // delete: whether the tuple is present when the delete runs
}

// Window classes of app-serve's reads.
const (
	cKey = iota
	cDim
	cJoin
)

var classNames = []string{"key", "dim", "join"}

type readOp struct {
	class  int
	binary bool
	q      indep.WindowQuery
	path   string
	want   []string // canonical rows, sorted
}

type appGen struct {
	initial []tup // checkpointed
	tail    []tup // in the WAL after the checkpoint
	writes  []writeOp
	reads   []readOp
}

// genApp draws app-serve's static data, its write stream, and its reads.
// The write stream keeps LiveWriteTuples of its own tuples live: below the
// target it inserts (single rows or BatchRows-row batches), above it deletes
// its oldest live tuple, so the store size stays steady. Read answers are
// computed here, from an in-process Database over the static data: writes
// never change them.
func genApp(sp *space, seed int64, seconds int, p appParams) (*appGen, error) {
	r := rand.New(rand.NewSource(seed*15485863 + 3))
	g := &appGen{}
	var sdims [5]int
	g.initial = genStarData(r, nsStatic, p.CheckpointTuples, &sdims)
	g.tail = genStarData(r, nsStatic, p.TailTuples, &sdims)

	// Writes.
	var wdims [5]int
	var live []tup
	present := map[tup]bool{} // write-stream tuples stored, under set semantics
	nw := p.WritesPerS * seconds
	for len(g.writes) < nw {
		var op writeOp
		u := r.Float64()
		switch {
		case u < p.ConflictShare:
			d := 1 + r.Intn(4)
			bad := tup{rel: int16(d), ns: nsStatic, alt: 1, keys: [4]int32{int32(r.Intn(sdims[d]))}}
			if r.Intn(2) == 0 {
				op = writeOp{kind: wConflict, tups: []tup{bad}}
			} else {
				ts := genStarData(r, nsWrite, p.BatchRows-1, &wdims)
				op = writeOp{kind: wConflictBatch, tups: append(ts, bad)}
			}
			op.want = 409
		case len(live) > p.LiveWriteTuples:
			op = writeOp{kind: wDelete, tups: []tup{live[0]}, want: 200, found: present[live[0]]}
			delete(present, live[0])
			live = live[1:]
		case r.Intn(3) == 0:
			op = writeOp{kind: wBatch, tups: genStarData(r, nsWrite, p.BatchRows, &wdims), want: 200}
		default:
			op = writeOp{kind: wInsert, tups: genStarData(r, nsWrite, 1, &wdims), want: 200}
		}
		if op.want == 200 && op.kind != wDelete {
			live = append(live, op.tups...)
			for _, t := range op.tups {
				present[t] = true
			}
		}
		if err := op.render(sp); err != nil {
			return nil, err
		}
		g.writes = append(g.writes, op)
	}

	// Reads over static keys, answered by the oracle.
	oracle := sp.sch.NewDatabase()
	for _, t := range append(append([]tup(nil), g.initial...), g.tail...) {
		if err := oracle.Insert(sp.rels[t.rel], sp.row(t)); err != nil {
			return nil, err
		}
	}
	keys := make([]string, p.ReadKeys)
	for i := range keys {
		keys[i] = sp.value(tup{rel: 1, ns: nsStatic, keys: [4]int32{int32(i * sdims[1] / p.ReadKeys)}}, 0)
	}
	classAttrs := [][]string{{"A", "B", "C", "D"}, {"A", "E"}, {"A", "B", "E", "J"}}
	answers := make(map[[2]int][]string)
	nr := p.ReadsPerS * seconds
	for i := 0; i < nr; i++ {
		// Classes take turns, so every stretch of the run reads the same
		// mix; the keys are drawn.
		class, ki := i%3, r.Intn(len(keys))
		q := indep.WindowQuery{Attrs: classAttrs[class], Where: map[string]string{"A": keys[ki]}}
		want, ok := answers[[2]int{class, ki}]
		if !ok {
			res, err := oracle.Query(q)
			if err != nil {
				return nil, err
			}
			want = canonRows(res.Attrs, res.Rows)
			answers[[2]int{class, ki}] = want
		}
		g.reads = append(g.reads, readOp{
			class: class, binary: i%2 == 1, q: q, want: want,
			path: "/v1/window?attrs=" + strings.Join(q.Attrs, ",") + "&where=A=" + keys[ki],
		})
	}
	return g, nil
}

// render builds the request of a write op.
func (op *writeOp) render(sp *space) error {
	type tupleReq struct {
		Relation string            `json:"relation"`
		Row      map[string]string `json:"row"`
	}
	var v any
	switch op.kind {
	case wInsert, wConflict:
		op.method, op.path = "POST", "/v1/insert"
		v = tupleReq{sp.rels[op.tups[0].rel], sp.row(op.tups[0])}
	case wDelete:
		op.method, op.path = "DELETE", "/v1/tuple"
		v = tupleReq{sp.rels[op.tups[0].rel], sp.row(op.tups[0])}
	default:
		op.method, op.path = "POST", "/v1/batch"
		ops := make([]tupleReq, len(op.tups))
		for i, t := range op.tups {
			ops[i] = tupleReq{sp.rels[t.rel], sp.row(t)}
		}
		v = map[string]any{"ops": ops}
	}
	var err error
	op.body, err = json.Marshal(v)
	return err
}

// canonRows renders window rows as sorted "attr=value,..." strings, the
// form every comparison in this benchmark uses.
func canonRows(attrs []string, rows []map[string]string) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		var b strings.Builder
		for j, a := range attrs {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(a)
			b.WriteByte('=')
			b.WriteString(row[a])
		}
		out[i] = b.String()
	}
	sort.Strings(out)
	return out
}
