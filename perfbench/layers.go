package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"indep"
	"indep/internal/chase"
	"indep/internal/cluster"
	"indep/internal/engine"
	"indep/internal/fd"
	"indep/internal/independence"
	"indep/internal/maintenance"
	"indep/internal/relation"
	"indep/internal/schema"
	"indep/internal/wal"
)

// This file is the traced run's in-process half: it replays a workload's
// generated write stream through each layer's public functions, one twin
// instance per layer, and times every call under a span. Where one layer
// runs inside another and cannot be wrapped (the engine inside
// ConcurrentStore.ApplyBinBatch, the guard inside the engine), the same
// input goes through a twin of the inner layer, and the outer layer's self
// time is its time minus the inner one's.

// replayBatch is one write request of a stream: the tuples it inserts and
// deletes, and its binary encoding.
type replayBatch struct {
	ins, del []tup
	payload  []byte
	rejects  int // planted conflicting tuples among ins
}

// replayer holds a stream and the state every twin starts from.
type replayer struct {
	sp      *space
	base    []tup // tuples every twin holds before the stream (untimed)
	batches []replayBatch
	spans   *spanLog
	work    string
}

// timed runs f under a span named name and returns its duration.
func (rp *replayer) timed(parent int, name string, f func()) time.Duration {
	t0 := time.Now()
	f()
	t1 := time.Now()
	rp.spans.add(parent, "", name, t0, t1)
	return t1.Sub(t0)
}

func (rp *replayer) tuples() (ins, del int) {
	for _, b := range rp.batches {
		ins += len(b.ins)
		del += len(b.del)
	}
	return
}

// internal parses the workload's declarations into the internal schema and
// FD list the engine, guard, and independence test take.
func (rp *replayer) internal() (*schema.Schema, fd.List, error) {
	s, err := schema.Parse(rp.sp.decl[0])
	if err != nil {
		return nil, nil, err
	}
	fds, err := fd.Parse(s.U, rp.sp.decl[1])
	if err != nil {
		return nil, nil, err
	}
	return s, fds, nil
}

func (rp *replayer) loadStore(cs *indep.ConcurrentStore) error {
	for i := 0; i < len(rp.base); i += 1024 {
		var ops []indep.BatchOp
		for _, t := range rp.base[i:min(i+1024, len(rp.base))] {
			ops = append(ops, indep.BatchOp{Rel: rp.sp.rels[t.rel], Row: rp.sp.row(t)})
		}
		if err := cs.InsertBatch(ops); err != nil {
			return err
		}
	}
	return nil
}

// measure replays the stream through every layer and returns the common
// per-layer metrics plus any check failures. The guard twin sees every
// tuple on its own, as a shard applying a routed batch does, so its reject
// count must equal the planted conflicts. Twins that apply a batch
// atomically may refuse more than planted: once an atomic twin refuses a
// batch a shard would have applied in part, the two states differ.
func (rp *replayer) measure() (map[string]float64, []string, error) {
	m := map[string]float64{}
	var problems []string
	ctx := context.Background()
	sch := rp.sp.sch
	nIns, nDel := rp.tuples()
	nOps := float64(nIns + nDel)
	planted := 0
	for _, b := range rp.batches {
		planted += b.rejects
	}

	// Row maps for the row-map APIs, built untimed.
	insRows := make([][]indep.BatchOp, len(rp.batches))
	delRows := make([][]indep.BatchOp, len(rp.batches))
	for i, b := range rp.batches {
		for _, t := range b.ins {
			insRows[i] = append(insRows[i], indep.BatchOp{Rel: rp.sp.rels[t.rel], Row: rp.sp.row(t)})
		}
		for _, t := range b.del {
			delRows[i] = append(delRows[i], indep.BatchOp{Rel: rp.sp.rels[t.rel], Row: rp.sp.row(t)})
		}
	}

	// binwire: encode, size, decode.
	enc := indep.NewBinBatchEncoder(sch)
	var encT, decT time.Duration
	var payloadBytes int
	for i, b := range rp.batches {
		encT += rp.timed(0, "replay.binwire.encode", func() {
			enc.Reset()
			for _, op := range insRows[i] {
				enc.Add(op.Rel, op.Row)
			}
			for _, op := range delRows[i] {
				enc.Delete(op.Rel, op.Row)
			}
			enc.Bytes()
		})
		payloadBytes += len(b.payload)
		var err error
		decT += rp.timed(0, "replay.binwire.decode", func() { _, err = sch.DecodeBinBatch(b.payload) })
		if err != nil {
			return nil, nil, fmt.Errorf("decode: %w", err)
		}
	}
	m["binwire.encode_ns_per_tuple"] = float64(encT.Nanoseconds()) / nOps
	m["binwire.bytes_per_tuple"] = float64(payloadBytes) / nOps
	m["binwire.decode_ns_per_tuple"] = float64(decT.Nanoseconds()) / nOps

	// store: ApplyBinBatch (with allocations), ApplyBinBatchPartial, and
	// the row-map calls the JSON handlers make, each on its own twin.
	twin := func() (*indep.ConcurrentStore, error) {
		cs, err := sch.OpenConcurrentStore()
		if err != nil {
			return nil, err
		}
		return cs, rp.loadStore(cs)
	}
	cs1, err := twin()
	if err != nil {
		return nil, nil, err
	}
	var applyT time.Duration
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for _, b := range rp.batches {
		var err error
		applyT += rp.timed(0, "replay.store.apply", func() { _, err = cs1.ApplyBinBatch(ctx, b.payload) })
		if err != nil && !indep.Rejected(err) {
			return nil, nil, fmt.Errorf("ApplyBinBatch: %w", err)
		}
	}
	runtime.ReadMemStats(&ms1)
	m["store.apply_ns_per_tuple"] = float64(applyT.Nanoseconds()) / nOps
	m["store.apply_allocs_per_tuple"] = float64(ms1.Mallocs-ms0.Mallocs) / nOps

	cs2, err := twin()
	if err != nil {
		return nil, nil, err
	}
	var partialT time.Duration
	for _, b := range rp.batches {
		var err error
		partialT += rp.timed(0, "replay.store.apply_partial", func() { _, err = cs2.ApplyBinBatchPartial(ctx, b.payload) })
		if err != nil {
			return nil, nil, fmt.Errorf("ApplyBinBatchPartial: %w", err)
		}
	}
	m["store.partial_ns_per_tuple"] = float64(partialT.Nanoseconds()) / nOps

	cs3, err := twin()
	if err != nil {
		return nil, nil, err
	}
	var rowT time.Duration
	for i := range rp.batches {
		var err error
		rowT += rp.timed(0, "replay.store.rowmap", func() {
			if len(insRows[i]) > 0 {
				err = cs3.InsertBatchCtx(ctx, insRows[i])
			}
			for _, op := range delRows[i] {
				cs3.DeleteCtx(ctx, op.Rel, op.Row)
			}
		})
		if err != nil && !indep.Rejected(err) {
			return nil, nil, fmt.Errorf("InsertBatch: %w", err)
		}
	}
	m["store.rowmap_batch_ns_per_tuple"] = float64(rowT.Nanoseconds()) / nOps

	// engine: batches of pre-resolved tuples, interning, snapshot cuts.
	s, fds, err := rp.internal()
	if err != nil {
		return nil, nil, err
	}
	eng, err := engine.New(s, fds, chase.DefaultCaps)
	if err != nil {
		return nil, nil, err
	}
	resolve := func(dict func(string) relation.Value, t tup) relation.Tuple {
		vals := rp.sp.values(t)
		out := make(relation.Tuple, len(vals))
		for j, v := range vals {
			out[j] = dict(v)
		}
		return out
	}
	for i := 0; i < len(rp.base); i += 1024 {
		var ops []engine.Op
		for _, t := range rp.base[i:min(i+1024, len(rp.base))] {
			ops = append(ops, engine.Op{Scheme: int(t.rel), Tuple: resolve(eng.Dict().Value, t)})
		}
		if err := eng.InsertBatch(ops); err != nil {
			return nil, nil, err
		}
	}
	eIns := make([][]engine.Op, len(rp.batches))
	eDel := make([][]engine.Op, len(rp.batches))
	for i, b := range rp.batches {
		for _, t := range b.ins {
			eIns[i] = append(eIns[i], engine.Op{Scheme: int(t.rel), Tuple: resolve(eng.Dict().Value, t)})
		}
		for _, t := range b.del {
			eDel[i] = append(eDel[i], engine.Op{Scheme: int(t.rel), Tuple: resolve(eng.Dict().Value, t)})
		}
	}
	var engT time.Duration
	for i := range rp.batches {
		var err error
		engT += rp.timed(0, "replay.engine.batch", func() {
			if len(eIns[i]) > 0 {
				err = eng.InsertBatchCtx(ctx, eIns[i])
			}
			for _, op := range eDel[i] {
				eng.DeleteCtx(ctx, op.Scheme, op.Tuple)
			}
		})
		if err != nil && !indep.Rejected(err) {
			return nil, nil, fmt.Errorf("engine batch: %w", err)
		}
	}
	m["engine.batch_ns_per_tuple"] = float64(engT.Nanoseconds()) / nOps
	var cuts []float64
	for i := 0; i < 7; i++ {
		t := tup{rel: 1, ns: 99, keys: [4]int32{int32(i)}}
		if err := eng.Insert(int(t.rel), resolve(eng.Dict().Value, t)); err != nil {
			return nil, nil, err
		}
		d := rp.timed(0, "replay.engine.snapshot_cut", func() { eng.QuerySnapshot() })
		cuts = append(cuts, float64(d.Nanoseconds())/1e3)
	}
	m["engine.snapshot_cut_us"] = median(cuts)

	dict := engine.NewDict()
	var internT time.Duration
	var values int
	for _, b := range rp.batches {
		names := make([]string, 0, 8*(len(b.ins)+len(b.del)))
		for _, t := range append(append([]tup(nil), b.ins...), b.del...) {
			names = append(names, rp.sp.values(t)...)
		}
		values += len(names)
		internT += rp.timed(0, "replay.engine.intern", func() {
			for _, n := range names {
				dict.Value(n)
			}
		})
	}
	m["engine.intern_ns_per_value"] = float64(internT.Nanoseconds()) / float64(max(values, 1))
	m["engine.intern_new_ratio"] = float64(dict.Len()) / float64(max(values, 1))

	// guard: per-tuple InsertReport and Delete on a twin.
	res, err := independence.Decide(s, fds)
	if err != nil {
		return nil, nil, err
	}
	g := maintenance.NewGuard(s, res.Cover)
	for _, t := range rp.base {
		if _, err := g.InsertReport(int(t.rel), resolve(eng.Dict().Value, t)); err != nil {
			return nil, nil, fmt.Errorf("guard base: %w", err)
		}
	}
	var gIns, gDel time.Duration
	var attempts, rejects, dels int
	var inserted []engine.Op
	for i := range rp.batches {
		for _, op := range eIns[i] {
			var err error
			gIns += rp.timed(0, "replay.guard.insert", func() { _, err = g.InsertReport(op.Scheme, op.Tuple) })
			attempts++
			if err != nil {
				rejects++
			} else {
				inserted = append(inserted, op)
			}
		}
		for _, op := range eDel[i] {
			gDel += rp.timed(0, "replay.guard.delete", func() { g.Delete(op.Scheme, op.Tuple) })
			dels++
		}
	}
	// Streams without deletes time them on a sample of their own inserts.
	for i := 0; dels < 2000 && i < len(inserted); i += 3 {
		op := inserted[i]
		gDel += rp.timed(0, "replay.guard.delete", func() { g.Delete(op.Scheme, op.Tuple) })
		dels++
	}
	m["guard.insert_ns_per_tuple"] = float64(gIns.Nanoseconds()) / float64(max(attempts, 1))
	m["guard.delete_ns_per_tuple"] = float64(gDel.Nanoseconds()) / float64(max(dels, 1))
	m["guard.reject_ratio"] = float64(rejects) / float64(max(attempts, 1))
	if rejects != planted {
		problems = append(problems, fmt.Sprintf("guard twin rejected %d tuples, %d conflicts were planted", rejects, planted))
	}

	// wal: one Append per commit, SyncNever, intern records first.
	walDir := filepath.Join(rp.work, "replay-wal")
	lg, err := wal.OpenLog(walDir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		return nil, nil, err
	}
	seen := map[relation.Value]bool{}
	var walT time.Duration
	commits := 0
	for i, b := range rp.batches {
		var recs []wal.Record
		intern := func(t tup, rt relation.Tuple) {
			vals := rp.sp.values(t)
			for j, v := range rt {
				if !seen[v] {
					seen[v] = true
					recs = append(recs, wal.Intern(v, vals[j]))
				}
			}
		}
		var ops []wal.TupleOp
		for j, t := range b.ins {
			intern(t, eIns[i][j].Tuple)
			ops = append(ops, wal.TupleOp{Rel: int(t.rel), Tuple: eIns[i][j].Tuple})
		}
		if len(ops) > 0 {
			recs = append(recs, wal.Batch(ops))
		}
		for j, t := range b.del {
			intern(t, eDel[i][j].Tuple)
			recs = append(recs, wal.Delete(int(t.rel), eDel[i][j].Tuple))
		}
		var err error
		walT += rp.timed(0, "replay.wal.append", func() { err = lg.Append(recs...).Wait() })
		if err != nil {
			lg.Close()
			return nil, nil, err
		}
		commits++
	}
	if err := lg.Close(); err != nil {
		return nil, nil, err
	}
	os.RemoveAll(walDir)
	m["wal.append_us_per_commit"] = float64(walT.Nanoseconds()) / 1e3 / float64(max(commits, 1))

	// independence and placement.
	var decide, place []float64
	for i := 0; i < 3; i++ {
		d := rp.timed(0, "replay.independence.decide", func() { independence.Decide(s, fds) })
		decide = append(decide, float64(d.Nanoseconds())/1e6)
	}
	m["independence.decide_ms"] = median(decide)
	an, err := sch.Analyze()
	if err != nil {
		return nil, nil, err
	}
	members := []cluster.Member{{Name: "shard1", URL: "http://127.0.0.1:1"}, {Name: "shard2", URL: "http://127.0.0.1:2"}}
	var pl *cluster.Placement
	for i := 0; i < 5; i++ {
		d := rp.timed(0, "replay.cluster.plan_placement", func() { pl = cluster.PlanPlacement(sch, an, members, 2*len(members), 64) })
		place = append(place, float64(d.Nanoseconds())/1e6)
	}
	m["cluster.plan_placement_ms"] = median(place)

	// router: Batch over two in-process shards behind a timing transport.
	if err := rp.measureRouter(m, members, pl); err != nil {
		return nil, nil, err
	}
	return m, problems, nil
}

// timingTransport wraps a shard transport and accounts for what the router
// sends through it: time inside ApplyPartial, bytes, calls, and ops.
type timingTransport struct {
	cluster.Transport
	spans *spanLog

	mu    sync.Mutex
	dur   time.Duration
	bytes int
	calls int
	ops   int
}

type spanParentKey struct{}

func (t *timingTransport) ApplyPartial(ctx context.Context, payload []byte) (*indep.BatchReport, error) {
	parent, _ := ctx.Value(spanParentKey{}).(int)
	t0 := time.Now()
	rep, err := t.Transport.ApplyPartial(ctx, payload)
	t1 := time.Now()
	t.spans.add(parent, "", "replay.transport.apply_partial", t0, t1)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dur += t1.Sub(t0)
	t.bytes += len(payload)
	t.calls++
	if rep != nil {
		t.ops += rep.Ops
	}
	return rep, err
}

func (rp *replayer) measureRouter(m map[string]float64, members []cluster.Member, pl *cluster.Placement) error {
	sch := rp.sp.sch
	ts := map[string]cluster.Transport{}
	var wraps []*timingTransport
	for _, mb := range members {
		cs, err := sch.OpenConcurrentStore()
		if err != nil {
			return err
		}
		w := &timingTransport{Transport: &cluster.LocalTransport{Shard: mb.Name, Store: cs}, spans: rp.spans}
		ts[mb.Name] = w
		wraps = append(wraps, w)
	}
	rt, err := cluster.NewRouter(sch, members, cluster.Options{Transports: ts})
	if err != nil {
		return err
	}
	ctx := context.Background()
	for i := 0; i < len(rp.base); i += 1024 {
		payload, err := rp.sp.encode(rp.base[i:min(i+1024, len(rp.base))])
		if err != nil {
			return err
		}
		if _, err := rt.Batch(ctx, payload); err != nil {
			return err
		}
	}
	for _, w := range wraps {
		w.dur, w.bytes, w.calls, w.ops = 0, 0, 0, 0
	}
	var batchT time.Duration
	var clientBytes int
	nIns, nDel := rp.tuples()
	for _, b := range rp.batches {
		clientBytes += len(b.payload)
		t0 := time.Now()
		id := rp.spans.add(0, "", "replay.router.batch", t0, t0) // end fixed below
		var err error
		d := func() time.Duration {
			_, err = rt.Batch(context.WithValue(ctx, spanParentKey{}, id), b.payload)
			return time.Since(t0)
		}()
		rp.spans.setEnd(id, t0.Add(d))
		batchT += d
		if err != nil {
			return fmt.Errorf("router batch: %w", err)
		}
	}
	n := float64(nIns + nDel)
	var fwd time.Duration
	var bytes, calls, maxOps, sumOps int
	for _, w := range wraps {
		fwd += w.dur
		bytes += w.bytes
		calls += w.calls
		sumOps += w.ops
		maxOps = max(maxOps, w.ops)
	}
	m["router.batch_us_per_tuple"] = float64(batchT.Nanoseconds()) / 1e3 / n
	m["router.shard_apply_us_per_tuple"] = float64(fwd.Nanoseconds()) / 1e3 / n
	m["router.forward_bytes_per_client_byte"] = float64(bytes) / float64(max(clientBytes, 1))
	m["router.subbatches_per_batch"] = float64(calls) / float64(max(len(rp.batches), 1))
	m["router.shard_skew"] = float64(maxOps) / (float64(sumOps) / float64(len(wraps)))

	// Placement lookups over the decoded operations.
	var ops []indep.BinOp
	for _, b := range rp.batches {
		o, err := sch.DecodeBinBatch(b.payload)
		if err != nil {
			return err
		}
		ops = append(ops, o...)
	}
	d := rp.timed(0, "replay.router.place", func() {
		for _, op := range ops {
			pl.Owner(op.Rel, op.Row)
		}
	})
	m["router.place_ns_per_op"] = float64(d.Nanoseconds()) / float64(max(len(ops), 1))
	return nil
}

// ---- per-workload ledgers ----------------------------------------------

// sampleBatches takes up to limit tuples' worth of batches from each queue
// in turn (each queue's prefix, so its planted conflicts still conflict).
func sampleBatches(queues [][]binBatch, limit int, routed bool) []replayBatch {
	var out []replayBatch
	per := limit / len(queues)
	for _, q := range queues {
		n := 0
		for _, b := range q {
			if n >= per {
				break
			}
			rej := 0
			if routed {
				rej = len(b.rejected)
			} else if b.conflict {
				rej = 1
			}
			out = append(out, replayBatch{ins: b.tups, payload: b.payload, rejects: rej})
			n += len(b.tups)
		}
	}
	return out
}

// replayTuples bounds the in-process replay of the ingest workloads.
const replayTuples = 32768

func ingestLedger(m, ph map[string]float64) []ledgerRow {
	per := ph["tuples_per_req"]
	client, handler := ph["client_us_per_req"], ph["indepd.handler_us_per_req"]
	storeSelf := (m["store.apply_ns_per_tuple"] - m["engine.batch_ns_per_tuple"]) * per / 1e3
	engSelf := (m["engine.batch_ns_per_tuple"] - m["guard.insert_ns_per_tuple"]) * per / 1e3
	guard := m["guard.insert_ns_per_tuple"] * per / 1e3
	return []ledgerRow{
		{"write", "client request (total)", client, "client spans, traced run"},
		{"write", "outside handler", client - handler, "loopback, accept, client (total - handler)"},
		{"write", "store decode+intern (self)", storeSelf, "ApplyBinBatch - engine batch, twin replay"},
		{"write", "engine locks+commit (self)", engSelf, "engine batch - guard, twin replay"},
		{"write", "guard", guard, "Guard.InsertReport, twin replay"},
		{"write", "residual", handler - storeSelf - engSelf - guard, "handler - the rows above: HTTP body, response, contention"},
	}
}

func (w *bulkIngest) layers(e *env, traced *phaseOut) (map[string]float64, []ledgerRow, error) {
	rp := &replayer{sp: w.sp, batches: sampleBatches(w.queues, replayTuples, false), spans: traced.spans, work: e.work}
	m, problems, err := rp.measure()
	if err != nil {
		return nil, nil, err
	}
	traced.problems = append(traced.problems, problems...)
	traced.failed += int64(len(problems))
	m["indepd.handler_us_per_req"] = traced.layer["indepd.handler_us_per_req"]
	m["indepd.outside_us_per_req"] = traced.layer["client_us_per_req"] - traced.layer["indepd.handler_us_per_req"]
	m["proc.cpu_share.daemon"] = traced.layer["proc.cpu_share.daemon"]
	return m, ingestLedger(m, traced.layer), nil
}

func (w *routedIngest) layers(e *env, traced *phaseOut) (map[string]float64, []ledgerRow, error) {
	rp := &replayer{sp: w.sp, batches: sampleBatches(w.queues, replayTuples, true), spans: traced.spans, work: e.work}
	m, problems, err := rp.measure()
	if err != nil {
		return nil, nil, err
	}
	traced.problems = append(traced.problems, problems...)
	traced.failed += int64(len(problems))
	ph := traced.layer
	for _, k := range []string{"proc.cpu_share.router", "proc.cpu_share.shard", "indepd.shard_handler_us_per_req", "indepd.shard_reqs_per_req"} {
		m[k] = ph[k]
	}
	client, handler := ph["client_us_per_req"], ph["indepd.handler_us_per_req"]
	m["indepd.handler_us_per_req"] = handler
	m["indepd.outside_us_per_req"] = client - handler
	per := ph["tuples_per_req"]
	routerSelf := (m["router.batch_us_per_tuple"] - m["router.shard_apply_us_per_tuple"]) * per
	shard := ph["indepd.shard_handler_us_per_req"]
	perSub := per / max(ph["indepd.shard_reqs_per_req"], 1)
	partial := m["store.partial_ns_per_tuple"] * perSub / 1e3
	ledger := []ledgerRow{
		{"write", "client request (total)", client, "client spans, traced run"},
		{"write", "outside router handler", client - handler, "loopback, accept, client"},
		{"write", "router decode+place+encode (self)", routerSelf, "Router.Batch - transport time, twin replay"},
		{"write", "shard partial apply", partial, "ApplyBinBatchPartial per sub-batch, twin replay"},
		{"write", "shard handler (self)", shard - partial, "shard handler mean - partial apply"},
		{"write", "residual", handler - routerSelf - shard, "router handler - router self - shard handler: forwarding, fan-out wait"},
	}
	return m, ledger, nil
}
