package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"indep"
	"indep/internal/attrset"
	"indep/internal/chase"
	"indep/internal/engine"
	"indep/internal/relation"
	"indep/internal/wal"
)

// appServe is the durable, mixed read/write workload: a daemon restarted
// from a prebuilt data directory, JSON writes and window reads arriving on
// schedule, then a kill -9 and a restart that must lose nothing.
type appServe struct {
	p        appParams
	sp       *space
	g        *appGen
	prebuilt string
	runs     int
	dirOf    map[*proc]string // each daemon's data directory
}

func (w *appServe) params() any { return w.p }

func (w *appServe) generate(e *env) error {
	sp, err := starSpace()
	if err != nil {
		return err
	}
	w.sp = sp
	w.dirOf = map[*proc]string{}
	if w.g, err = genApp(sp, e.seed, e.seconds, w.p); err != nil {
		return err
	}
	// The prebuilt directory: a checkpoint of the initial tuples, then a
	// write-ahead-log tail, written by the library the daemon links.
	w.prebuilt = filepath.Join(e.work, "prebuilt")
	ds, err := sp.sch.OpenDurableStore(w.prebuilt, indep.DurableOptions{NoFsync: true})
	if err != nil {
		return err
	}
	load := func(ts []tup) error {
		for i := 0; i < len(ts); i += 64 {
			var ops []indep.BatchOp
			for _, t := range ts[i:min(i+64, len(ts))] {
				ops = append(ops, indep.BatchOp{Rel: sp.rels[t.rel], Row: sp.row(t)})
			}
			if err := ds.InsertBatch(ops); err != nil {
				return err
			}
		}
		return nil
	}
	if err := load(w.g.initial); err != nil {
		ds.Close()
		return err
	}
	if err := ds.Checkpoint(); err != nil {
		ds.Close()
		return err
	}
	if err := load(w.g.tail); err != nil {
		ds.Close()
		return err
	}
	return ds.Close()
}

// freshData copies the prebuilt directory for one daemon start.
func (w *appServe) freshData(e *env) (string, error) {
	w.runs++
	dir := filepath.Join(e.work, fmt.Sprintf("data-%d", w.runs))
	return dir, copyDir(w.prebuilt, dir)
}

func (w *appServe) startDaemon(e *env, dir string) (*proc, error) {
	d, err := e.procs.start(e.bin, "daemon", "indepd", "-addr", "127.0.0.1:0", "-data", dir,
		"-schema", w.sp.decl[0], "-fds", w.sp.decl[1])
	if err != nil {
		return nil, err
	}
	w.dirOf[d] = dir
	return d, readyAll([]*proc{d})
}

func (w *appServe) start(e *env) ([]*proc, float64, error) {
	dir, err := w.freshData(e)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	d, err := w.startDaemon(e, dir)
	return []*proc{d}, time.Since(t0).Seconds(), err
}

func (w *appServe) drive(e *env, ps []*proc, budget float64, spans *spanLog, out *phaseOut) (map[string]float64, error) {
	seconds := min(budget, float64(e.seconds)/float64(w.p.Segments))
	d := ps[0]
	dir := w.dirOf[d]
	admin := newConn()
	var before scrape
	var err error
	if spans != nil {
		if before, err = fetchScrape(admin, d.url()); err != nil {
			return nil, err
		}
	}
	disk0, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuOf([]*proc{d})
	if err != nil {
		return nil, err
	}

	// Two open loops on two connections: writes and reads.
	start := time.Now().Add(20 * time.Millisecond)
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	ctx := context.Background()
	var wg sync.WaitGroup
	var wSamples, rSamples []sample
	var wSent int
	var wProblems, rProblems []string
	var wTuples, wAccepted, wUserBytes int
	rClassLat := make([][]float64, 3)
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := newConn()
		wSamples, wSent = openLoop(ctx, start, time.Second/time.Duration(w.p.WritesPerS), len(w.g.writes), end, func(i int) (bool, int) {
			op := &w.g.writes[i]
			r := tracedDo(spans, "client.write."+writeKindNames[op.kind], c, op.method, d.url()+op.path, op.body, nil)
			wTuples += len(op.tups)
			if err := writeVerdict(op, r); err != nil {
				if len(wProblems) < 5 {
					wProblems = append(wProblems, fmt.Sprintf("write %d (%s): %v", i, writeKindNames[op.kind], err))
				}
				return false, 0
			}
			if op.want != http.StatusOK {
				return true, 0
			}
			wAccepted += len(op.tups)
			for _, t := range op.tups {
				wUserBytes += w.sp.userBytes(t)
			}
			return true, len(op.tups)
		})
	}()
	go func() {
		defer wg.Done()
		c := newConn()
		var rs []sample
		rs, _ = openLoop(ctx, start, time.Second/time.Duration(w.p.ReadsPerS), len(w.g.reads), end, func(i int) (bool, int) {
			op := &w.g.reads[i]
			got, _, err := fetchWindow(c, d.url(), op.path, op.binary, spans, "client.window."+classNames[op.class])
			if err == nil && !slices.Equal(got, op.want) {
				err = fmt.Errorf("%d rows, want %d", len(got), len(op.want))
			}
			if err != nil {
				if len(rProblems) < 5 {
					rProblems = append(rProblems, fmt.Sprintf("read %d (%s): %v", i, classNames[op.class], err))
				}
				return false, 0
			}
			return true, 0
		})
		for i, s := range rs {
			rClassLat[w.g.reads[i].class] = append(rClassLat[w.g.reads[i].class], float64(s.latency)/1e6)
		}
		rSamples = rs
	}()
	wg.Wait()
	interval := time.Since(start).Seconds()
	m := map[string]float64{}
	if err := serverUsage(m, out, ps, cpu0, wTuples+len(rSamples)); err != nil {
		return nil, err
	}
	disk1, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}

	// End-to-end metrics.
	out.problems = append(append(out.problems, wProblems...), rProblems...)
	limits := []float64{w.p.KeyLimitMs, w.p.DimLimitMs, w.p.JoinLimitMs}
	misses := 0
	for _, s := range wSamples {
		out.attempted++
		if !s.ok {
			out.failed++
		}
		if !s.ok || float64(s.latency)/1e6 > w.p.WriteLimitMs {
			misses++
		}
	}
	for i, s := range rSamples {
		out.attempted++
		if !s.ok {
			out.failed++
		}
		if !s.ok || float64(s.latency)/1e6 > limits[w.g.reads[i].class] {
			misses++
		}
	}
	wl, rl := msOf(wSamples), msOf(rSamples)
	var late []float64
	for _, s := range append(append([]sample(nil), wSamples...), rSamples...) {
		late = append(late, float64(s.late)/1e6)
	}
	m["write_tuples_per_s"] = float64(wAccepted) / interval
	m["write_p50_ms"] = quantile(wl, 0.5)
	m["write_p90_ms"] = quantile(wl, 0.9)
	m["write_p99_ms"] = quantile(wl, 0.99)
	m["window_p50_ms"] = quantile(rl, 0.5)
	m["window_p99_ms"] = quantile(rl, 0.99)
	m["slo_miss_frac"] = float64(misses) / float64(max(len(wSamples)+len(rSamples), 1))
	m["disk_bytes_per_user_byte"] = float64(disk1-disk0) / float64(max(wUserBytes, 1))
	m["segment_s"] = interval
	m["write_requests"] = float64(len(wSamples))
	m["window_requests"] = float64(len(rSamples))
	for c, xs := range rClassLat {
		if len(xs) > 0 {
			m["window_p50_ms."+classNames[c]] = quantile(xs, 0.5)
		}
	}
	out.layer["loadgen.late_ms_p99"] = quantile(late, 0.99)
	if len(wl) > 0 {
		out.layer["client_us_per_write"] = mean(wl) * 1e3
	}
	if len(rl) > 0 {
		out.layer["client_us_per_read"] = mean(rl) * 1e3
	}
	if spans != nil {
		after, err := fetchScrape(admin, d.url())
		if err != nil {
			return nil, err
		}
		var sum, n float64
		for _, route := range []string{"POST /insert", "POST /batch", "DELETE /tuple"} {
			m, c := histMean(before, after, "indep_http_request_duration_seconds", "route="+route)
			sum += m * c
			n += c
		}
		out.layer["indepd.handler_us_per_req"] = sum / max(n, 1) * 1e6
		h, _ := histMean(before, after, "indep_http_request_duration_seconds", "route=GET /window")
		out.layer["indepd.handler_us_per_window"] = h * 1e6
		reuse := delta(before, after, "indep_engine_snapshot_reuses_total")
		copies := delta(before, after, "indep_engine_snapshot_copies_total")
		out.layer["engine.snapshot_reuse_ratio"] = reuse / max(reuse+copies, 1)
		out.layer["engine.snapshot_copies_per_window"] = copies / float64(max(len(rSamples), 1))
		f, _ := histMean(before, after, "indep_wal_fsync_duration_seconds")
		out.layer["wal.fsync_ms"] = f * 1e3
		g, _ := histMean(before, after, "indep_wal_commit_group_records")
		out.layer["wal.records_per_fsync"] = g
		cw, cn := histMean(before, after, "indep_durable_commit_wait_seconds")
		out.layer["wal.commit_wait_ms"] = cw * 1e3
		out.layer["wal.commits_per_write"] = cn / float64(max(len(wSamples), 1))
	}

	// Checks: kill -9, restart on the same directory, and compare the
	// recovered state with every acknowledged write.
	want := map[tup]struct{}{}
	for _, t := range w.g.initial {
		want[t] = struct{}{}
	}
	for _, t := range w.g.tail {
		want[t] = struct{}{}
	}
	for _, op := range w.g.writes[:wSent] {
		switch {
		case op.want != http.StatusOK:
		case op.kind == wDelete:
			delete(want, op.tups[0])
		default:
			for _, t := range op.tups {
				want[t] = struct{}{}
			}
		}
	}
	d.kill()
	d2, err := w.startDaemon(e, dir)
	if err != nil {
		out.check(false, "restart after kill -9: %v", err)
		return m, nil
	}
	defer d2.kill()
	w.checkState(out, admin, d2.url(), want)
	return m, nil
}

// checkState compares a daemon's full state with the expected tuples, one
// check per relation.
func (w *appServe) checkState(out *phaseOut, c *http.Client, base string, want map[tup]struct{}) {
	r := do(c, "GET", base+"/v1/state", nil, nil)
	if r.err != nil || r.status != http.StatusOK {
		out.check(false, "state after restart: %s", fmtErr(r))
		return
	}
	var st struct {
		Relations map[string][]map[string]string `json:"relations"`
	}
	if err := json.Unmarshal(r.body, &st); err != nil {
		out.check(false, "state after restart: %v", err)
		return
	}
	exp := make([][]map[string]string, len(w.sp.rels))
	for t := range want {
		exp[t.rel] = append(exp[t.rel], w.sp.row(t))
	}
	for i, rel := range w.sp.rels {
		got := canonRows(w.sp.attrs[i], st.Relations[rel])
		wnt := canonRows(w.sp.attrs[i], exp[i])
		out.check(slices.Equal(got, wnt), "after kill -9 and restart, %s holds %d tuples, want %d (or contents differ)",
			rel, len(got), len(wnt))
	}
}

// writeVerdict checks one JSON write's answer against its expected verdict.
func writeVerdict(op *writeOp, r reply) error {
	if r.err != nil {
		return r.err
	}
	if r.status != op.want {
		return fmt.Errorf("got %s, want status %d", fmtErr(r), op.want)
	}
	body := strings.TrimSpace(string(r.body))
	switch {
	case op.want != http.StatusOK:
		if !strings.Contains(body, `"rejected":true`) {
			return fmt.Errorf("refusal is not a rejection: %s", body)
		}
	case op.kind == wDelete:
		if body != fmt.Sprintf(`{"deleted":%t}`, op.found) {
			return fmt.Errorf("delete answered %s, want deleted=%t", body, op.found)
		}
	case op.kind == wBatch:
		if body != fmt.Sprintf(`{"accepted":%d,"status":"ok"}`, len(op.tups)) {
			return fmt.Errorf("batch answered %s", body)
		}
	default:
		if body != `{"status":"ok"}` {
			return fmt.Errorf("insert answered %s", body)
		}
	}
	return nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

// layers replays app-serve's write stream through every layer (each twin
// starts from the static data), then its window classes through the
// evaluator and the store, and recovers copies of the prebuilt directory.
func (w *appServe) layers(e *env, traced *phaseOut) (map[string]float64, []ledgerRow, error) {
	sp := w.sp
	base := append(append([]tup(nil), w.g.initial...), w.g.tail...)
	var batches []replayBatch
	for _, op := range w.g.writes {
		var b replayBatch
		if op.kind == wDelete {
			b.del = op.tups
		} else {
			b.ins = op.tups
		}
		if op.want != http.StatusOK {
			b.rejects = 1
		}
		enc := indep.NewBinBatchEncoder(sp.sch)
		for _, t := range b.ins {
			enc.Add(sp.rels[t.rel], sp.row(t))
		}
		for _, t := range b.del {
			enc.Delete(sp.rels[t.rel], sp.row(t))
		}
		b.payload = enc.Bytes()
		batches = append(batches, b)
	}
	rp := &replayer{sp: sp, base: base, batches: batches, spans: traced.spans, work: e.work}
	m, problems, err := rp.measure()
	if err != nil {
		return nil, nil, err
	}
	traced.problems = append(traced.problems, problems...)
	traced.failed += int64(len(problems))
	ph := traced.layer
	for _, k := range []string{"loadgen.late_ms_p99", "engine.snapshot_reuse_ratio", "wal.fsync_ms",
		"wal.records_per_fsync", "wal.commit_wait_ms", "proc.cpu_share.daemon", "indepd.handler_us_per_window"} {
		m[k] = ph[k]
	}
	m["indepd.handler_us_per_req"] = ph["indepd.handler_us_per_req"]
	m["indepd.outside_us_per_req"] = ph["client_us_per_write"] - ph["indepd.handler_us_per_req"]

	// Query layer: the final state of a full run on a twin engine (for
	// the evaluator alone) and a twin store (for the whole query).
	final := map[tup]struct{}{}
	for _, t := range base {
		final[t] = struct{}{}
	}
	for _, op := range w.g.writes {
		switch {
		case op.want != http.StatusOK:
		case op.kind == wDelete:
			delete(final, op.tups[0])
		default:
			for _, t := range op.tups {
				final[t] = struct{}{}
			}
		}
	}
	evalUs, finishUs, err := w.measureQueries(rp, final, m)
	if err != nil {
		return nil, nil, err
	}

	// Recovery of the prebuilt directory, and intern records per write on
	// a durable twin.
	if err := w.measureWAL(e, m); err != nil {
		return nil, nil, err
	}

	wr := func(k string) float64 { return ph[k] }
	perWrite := 0.0
	for _, op := range w.g.writes {
		perWrite += float64(len(op.tups))
	}
	perWrite /= float64(max(len(w.g.writes), 1))
	commitWait := wr("wal.commit_wait_ms") * 1e3 * wr("wal.commits_per_write")
	rowmap := m["store.rowmap_batch_ns_per_tuple"] * perWrite / 1e3
	cut := m["engine.snapshot_cut_us"] * wr("engine.snapshot_copies_per_window")
	ledger := []ledgerRow{
		{"write", "client request (total)", wr("client_us_per_write"), "client, open loop from due time"},
		{"write", "outside handler", wr("client_us_per_write") - wr("indepd.handler_us_per_req"), "queueing behind the schedule, loopback, client"},
		{"write", "wal commit wait (group fsync)", commitWait, "indep_durable_commit_wait_seconds delta"},
		{"write", "store row-map apply", rowmap, "InsertBatch/DeleteCtx, twin replay"},
		{"write", "residual", wr("indepd.handler_us_per_req") - commitWait - rowmap, "handler - the rows above: JSON decode, response"},
		{"read", "client request (total)", wr("client_us_per_read"), "client, open loop from due time"},
		{"read", "outside handler", wr("client_us_per_read") - wr("indepd.handler_us_per_window"), "queueing behind the schedule, loopback, client"},
		{"read", "query eval", evalUs, "query.Evaluator.Window, twin replay, read mix"},
		{"read", "store finish (where, sort, render)", finishUs, "QueryCtx - eval, twin replay"},
		{"read", "snapshot cut", cut, "QuerySnapshot after a write x copies per window"},
		{"read", "residual", wr("indepd.handler_us_per_window") - evalUs - finishUs - cut, "handler - the rows above"},
	}
	return m, ledger, nil
}

// measureQueries times every distinct read of the stream five times:
// Evaluator.Window on a twin engine's snapshot, and ConcurrentStore.QueryCtx
// on a twin store. It returns the read mix's mean eval and finish times.
func (w *appServe) measureQueries(rp *replayer, final map[tup]struct{}, m map[string]float64) (evalUs, finishUs float64, err error) {
	sp := w.sp
	cs, err := sp.sch.OpenConcurrentStore()
	if err != nil {
		return 0, 0, err
	}
	s, fds, err := rp.internal()
	if err != nil {
		return 0, 0, err
	}
	eng, err := engine.New(s, fds, chase.DefaultCaps)
	if err != nil {
		return 0, 0, err
	}
	var ops []indep.BatchOp
	var eops []engine.Op
	for t := range final {
		ops = append(ops, indep.BatchOp{Rel: sp.rels[t.rel], Row: sp.row(t)})
		vals := sp.values(t)
		tt := make(relation.Tuple, len(vals))
		for j, v := range vals {
			tt[j] = eng.Dict().Value(v)
		}
		eops = append(eops, engine.Op{Scheme: int(t.rel), Tuple: tt})
	}
	if err := cs.InsertBatch(ops); err != nil {
		return 0, 0, err
	}
	if err := eng.InsertBatch(eops); err != nil {
		return 0, 0, err
	}
	ctx := context.Background()
	evalSum := make([]float64, 3)
	storeSum := make([]float64, 3)
	count := make([]float64, 3)
	var scanned, returned float64
	done := map[string]bool{}
	for _, rd := range w.g.reads {
		if done[rd.path] {
			continue
		}
		done[rd.path] = true
		var x attrset.Set
		for _, a := range rd.q.Attrs {
			i, _ := s.U.Index(a)
			x.Add(i)
		}
		// Each side keeps its fastest of five runs: the two twins are timed
		// apart, and minima subtract more steadily than means.
		de, ds := time.Duration(1<<62), time.Duration(1<<62)
		for rep := 0; rep < 5; rep++ {
			st := eng.QuerySnapshot()
			var e1, e2 error
			de = min(de, rp.timed(0, "replay.query.eval."+classNames[rd.class], func() { _, e1 = eng.Evaluator().Window(st, x) }))
			q := rd.q
			q.BinaryResult = rd.binary
			ds = min(ds, rp.timed(0, "replay.store.query."+classNames[rd.class], func() { _, e2 = cs.QueryCtx(ctx, q) }))
			if e1 != nil || e2 != nil {
				return 0, 0, fmt.Errorf("replay window: %v %v", e1, e2)
			}
		}
		evalSum[rd.class] += float64(de.Nanoseconds()) / 1e3
		storeSum[rd.class] += float64(ds.Nanoseconds()) / 1e3
		count[rd.class]++
		q := rd.q
		q.Explain = true
		res, err := cs.QueryCtx(ctx, q)
		if err != nil {
			return 0, 0, err
		}
		for _, r := range res.Explain.Relations {
			scanned += float64(r.Rows)
		}
		returned += float64(res.Total)
	}
	for c := range classNames {
		if count[c] > 0 {
			m["query.eval_us."+classNames[c]] = evalSum[c] / count[c]
			m["store.query_finish_us."+classNames[c]] = (storeSum[c] - evalSum[c]) / count[c]
		}
	}
	m["query.rows_scanned_per_row_returned"] = scanned / max(returned, 1)
	qs := cs.QueryStats()
	m["query.plan_hit_ratio"] = float64(qs.PlanHits) / float64(max(qs.Queries, 1))
	// The read mix as sent: each read weighs its class's mean.
	for _, rd := range w.g.reads {
		evalUs += m["query.eval_us."+classNames[rd.class]]
		finishUs += m["store.query_finish_us."+classNames[rd.class]]
	}
	n := float64(max(len(w.g.reads), 1))
	return evalUs / n, finishUs / n, nil
}

// measureWAL recovers copies of the prebuilt directory (recovery time and
// checkpoint decode), then counts the intern records a durable twin logs
// per write of the stream.
func (w *appServe) measureWAL(e *env, m map[string]float64) error {
	sp := w.sp
	var rec, dec []float64
	for i := 0; i < 3; i++ {
		dir, err := w.freshData(e)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := wal.LatestCheckpoint(dir); err != nil {
			return err
		}
		dec = append(dec, float64(time.Since(t0).Nanoseconds())/1e6)
		ds, err := sp.sch.OpenDurableStore(dir, indep.DurableOptions{NoFsync: true})
		if err != nil {
			return err
		}
		rec = append(rec, float64(ds.Recovery().Duration.Nanoseconds())/1e6)
		if err := ds.Close(); err != nil {
			return err
		}
	}
	m["wal.recovery_ms"] = median(rec)
	m["wal.checkpoint_decode_ms"] = median(dec)

	dir, err := w.freshData(e)
	if err != nil {
		return err
	}
	ds, err := sp.sch.OpenDurableStore(dir, indep.DurableOptions{NoFsync: true})
	if err != nil {
		return err
	}
	defer ds.Close()
	ctx := context.Background()
	r0 := ds.WAL().Records
	commits := 0
	for _, op := range w.g.writes {
		var err error
		switch op.kind {
		case wDelete:
			var ok bool
			ok, err = ds.DeleteCtx(ctx, sp.rels[op.tups[0].rel], sp.row(op.tups[0]))
			if ok {
				commits++
			}
		default:
			var ops []indep.BatchOp
			for _, t := range op.tups {
				ops = append(ops, indep.BatchOp{Rel: sp.rels[t.rel], Row: sp.row(t)})
			}
			err = ds.InsertBatchCtx(ctx, ops)
			if err == nil {
				commits++
			}
		}
		if err != nil && !indep.Rejected(err) {
			return err
		}
	}
	m["wal.intern_records_per_op"] = float64(ds.WAL().Records-r0-uint64(commits)) / float64(max(len(w.g.writes), 1))
	return nil
}
