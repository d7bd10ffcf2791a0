package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"indep"
)

var binHeader = map[string]string{"Content-Type": indep.BinContentType}

// loopResult is what the closed loops of one ingest phase produced.
type loopResult struct {
	samples  []sample
	sent     []int // batches sent per connection (a prefix of its queue)
	tuples   int   // tuple operations in answered requests
	accepted int   // tuples acknowledged as accepted
	problems []string
	start    time.Time
	end      time.Time
}

// driveBatches runs one closed loop per queue, each on its own connection,
// posting pre-encoded batches to url until the queue ends or seconds pass.
// verdict checks one answer and returns the number of accepted tuples it
// acknowledges.
func driveBatches(url string, queues [][]binBatch, seconds float64, spans *spanLog,
	verdict func(b *binBatch, r reply) (int, error)) *loopResult {
	res := &loopResult{sent: make([]int, len(queues))}
	var mu sync.Mutex
	var wg sync.WaitGroup
	res.start = time.Now()
	deadline := res.start.Add(time.Duration(seconds * float64(time.Second)))
	for c := range queues {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newConn()
			q := queues[c]
			var tuples, accepted int
			var problems []string
			samples, sent := closedLoop(deadline, len(q), func(i int) (bool, int) {
				r := tracedDo(spans, "client.batchbin", client, "POST", url, q[i].payload, binHeader)
				tuples += len(q[i].tups)
				n, err := verdict(&q[i], r)
				accepted += n
				if err != nil && len(problems) < 5 {
					problems = append(problems, fmt.Sprintf("conn %d batch %d: %v", c, i, err))
				}
				return err == nil, n
			})
			mu.Lock()
			res.samples = append(res.samples, samples...)
			res.sent[c] = sent
			res.tuples += tuples
			res.accepted += accepted
			res.problems = append(res.problems, problems...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.end = time.Now()
	return res
}

// record counts a loop result's requests into the phase and returns the
// segment's write metrics.
func (res *loopResult) record(out *phaseOut) map[string]float64 {
	interval := res.end.Sub(res.start).Seconds()
	out.attempted += int64(len(res.samples))
	for _, s := range res.samples {
		if !s.ok {
			out.failed++
		}
	}
	out.problems = append(out.problems, res.problems...)
	lat := msOf(res.samples)
	m := map[string]float64{
		"write_tuples_per_s": float64(res.accepted) / interval,
		"write_p50_ms":       quantile(lat, 0.5),
		"write_p90_ms":       quantile(lat, 0.9),
		"write_p99_ms":       quantile(lat, 0.99),
		"write_requests":     float64(len(lat)),
		"segment_s":          interval,
	}
	if len(lat) > 0 {
		out.layer["client_us_per_req"] = mean(lat) * 1e3
		out.layer["tuples_per_req"] = float64(res.tuples) / float64(len(lat))
	}
	return m
}

// serverUsage reads the processes' CPU over the interval and their peak
// resident memory into the segment's metrics m. ops is the operation count
// the CPU is divided by.
func serverUsage(m map[string]float64, out *phaseOut, procs []*proc, cpu0 map[*proc]float64, ops int) error {
	cpu1, err := cpuOf(procs)
	if err != nil {
		return err
	}
	var total float64
	byRole := map[string]float64{}
	var rss int64
	for _, p := range procs {
		d := cpu1[p] - cpu0[p]
		total += d
		byRole[p.role] += d
		hwm, err := p.peakRSS()
		if err != nil {
			return err
		}
		rss += hwm
	}
	m["server_cpu_us_per_op"] = total * 1e6 / float64(max(ops, 1))
	m["server_rss_mb"] = float64(rss) / (1 << 20)
	for role, d := range byRole {
		if total > 0 {
			out.layer["proc.cpu_share."+role] = d / total
		}
	}
	return nil
}

// relationCounts reads per-relation tuple counts from a daemon's /stats.
func relationCounts(c *http.Client, base string) (map[string]int, error) {
	r := do(c, "GET", base+"/v1/stats", nil, nil)
	if r.err != nil || r.status != http.StatusOK {
		return nil, fmt.Errorf("stats: %s", fmtErr(r))
	}
	var st struct {
		Relations []struct {
			Relation string `json:"relation"`
			Tuples   int    `json:"tuples"`
		} `json:"relations"`
	}
	if err := json.Unmarshal(r.body, &st); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	out := map[string]int{}
	for _, rel := range st.Relations {
		out[rel.Relation] = rel.Tuples
	}
	return out, nil
}

// fetchWindow runs a window query over JSON or the IWIN1 binary encoding
// and returns its rows in canonical form.
func fetchWindow(c *http.Client, base, path string, binary bool, spans *spanLog, root string) ([]string, reply, error) {
	var hdr map[string]string
	if binary {
		hdr = map[string]string{"Accept": indep.BinContentType}
	}
	r := tracedDo(spans, root, c, "GET", base+path, nil, hdr)
	if r.err != nil || r.status != http.StatusOK {
		return nil, r, fmt.Errorf("window %s: %s", path, fmtErr(r))
	}
	var attrs []string
	var rows []map[string]string
	if binary {
		res, err := indep.DecodeWindowBinary(r.body)
		if err != nil {
			return nil, r, fmt.Errorf("window %s: %w", path, err)
		}
		attrs, rows = res.Attrs, res.Rows
	} else {
		var body struct {
			Attrs []string            `json:"attrs"`
			Rows  []map[string]string `json:"rows"`
		}
		if err := json.Unmarshal(r.body, &body); err != nil {
			return nil, r, fmt.Errorf("window %s: %w", path, err)
		}
		attrs, rows = body.Attrs, body.Rows
	}
	return canonRows(attrs, rows), r, nil
}

func windowPath(q indep.WindowQuery) string {
	v := url.Values{}
	v.Set("attrs", strings.Join(q.Attrs, ","))
	keys := make([]string, 0, len(q.Where))
	for k := range q.Where {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v.Add("where", k+"="+q.Where[k])
	}
	return "/v1/window?" + v.Encode()
}

// checkWindow compares a daemon's window against the oracle's answer for
// the same query, counting one check.
func checkWindow(out *phaseOut, c *http.Client, base string, sp *space, oracle *indep.Database, q indep.WindowQuery, binary bool) {
	want, err := oracle.Query(q)
	if err != nil {
		out.check(false, "oracle window %v: %v", q.Attrs, err)
		return
	}
	got, _, err := fetchWindow(c, base, windowPath(q), binary, nil, "")
	if err != nil {
		out.check(false, "%v", err)
		return
	}
	w := canonRows(want.Attrs, want.Rows)
	out.check(slices.Equal(got, w), "window %v where %v: daemon has %d rows, oracle %d",
		q.Attrs, q.Where, len(got), len(w))
}

// checkCounts compares per-relation row counts with the expected distinct
// tuples, one check per relation.
func checkCounts(out *phaseOut, sp *space, got map[string]int, want map[tup]struct{}) {
	exp := make([]int, len(sp.rels))
	for t := range want {
		exp[t.rel]++
	}
	for i, rel := range sp.rels {
		out.check(got[rel] == exp[i], "relation %s holds %d tuples, want %d", rel, got[rel], exp[i])
	}
}

// ---- bulk-ingest -------------------------------------------------------

type bulkIngest struct {
	p      bulkParams
	sp     *space
	queues [][]binBatch
}

func (w *bulkIngest) params() any { return w.p }

func (w *bulkIngest) generate(e *env) error {
	sp, err := starSpace()
	if err != nil {
		return err
	}
	w.sp = sp
	w.queues, err = genBulk(sp, e.seed, w.p)
	return err
}

func readyAll(ps []*proc) error {
	deadline := time.Now().Add(60 * time.Second)
	for _, p := range ps {
		if err := p.waitReady(deadline); err != nil {
			return err
		}
	}
	return nil
}

func (w *bulkIngest) start(e *env) ([]*proc, float64, error) {
	t0 := time.Now()
	d, err := e.procs.start(e.bin, "daemon", "indepd", "-addr", "127.0.0.1:0",
		"-schema", w.sp.decl[0], "-fds", w.sp.decl[1])
	if err != nil {
		return nil, 0, err
	}
	ps := []*proc{d}
	err = readyAll(ps)
	return ps, time.Since(t0).Seconds(), err
}

func (w *bulkIngest) drive(e *env, ps []*proc, budget float64, spans *spanLog, out *phaseOut) (map[string]float64, error) {
	d := ps[0]
	admin := newConn()
	var before scrape
	var err error
	if spans != nil {
		if before, err = fetchScrape(admin, d.url()); err != nil {
			return nil, err
		}
	}
	cpu0, err := cpuOf(ps)
	if err != nil {
		return nil, err
	}
	res := driveBatches(d.url()+"/v1/batchbin", w.queues, budget, spans, bulkVerdict)
	m := res.record(out)
	if err := serverUsage(m, out, ps, cpu0, res.tuples); err != nil {
		return nil, err
	}
	if spans != nil {
		after, err := fetchScrape(admin, d.url())
		if err != nil {
			return nil, err
		}
		h, _ := histMean(before, after, "indep_http_request_duration_seconds", "route=POST /batchbin")
		out.layer["indepd.handler_us_per_req"] = h * 1e6
	}

	// Checks: per-relation counts and two sampled windows.
	want := map[tup]struct{}{}
	var facts []tup
	for c, q := range w.queues {
		for _, b := range q[:res.sent[c]] {
			if b.conflict {
				continue
			}
			for _, t := range b.tups {
				want[t] = struct{}{}
				if t.rel == 0 && t.ns == 0 {
					facts = append(facts, t)
				}
			}
		}
	}
	got, err := relationCounts(admin, d.url())
	if err != nil {
		out.check(false, "%v", err)
	} else {
		checkCounts(out, w.sp, got, want)
	}
	// Two sampled windows of the fact scheme, one over each wire. Windows
	// that join dimensions are built whole before the filter applies and
	// cost tens of seconds at this store size, so only app-serve reads them.
	for i, bin := range []bool{true, false} {
		if len(facts) == 0 {
			break
		}
		key := facts[(i+1)*len(facts)/3].keys[0]
		oracle, err := starOracle(w.sp, want, 0, key)
		if err != nil {
			return nil, err
		}
		a := w.sp.value(tup{rel: 1, keys: [4]int32{key}}, 0)
		checkWindow(out, admin, d.url(), w.sp, oracle,
			indep.WindowQuery{Attrs: []string{"A", "B", "C", "D"}, Where: map[string]string{"A": a}}, bin)
	}
	return m, nil
}

// bulkVerdict: a batch with a planted conflict must be refused whole with
// 409; every other batch must be accepted whole.
func bulkVerdict(b *binBatch, r reply) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	if b.conflict {
		if r.status != http.StatusConflict || !strings.Contains(string(r.body), `"rejected":true`) {
			return 0, fmt.Errorf("planted conflict not refused: %s", fmtErr(r))
		}
		return 0, nil
	}
	if want := fmt.Sprintf(`{"status":"ok","accepted":%d}`, len(b.tups)); r.status != http.StatusOK ||
		strings.TrimSpace(string(r.body)) != want {
		return 0, fmt.Errorf("batch not accepted whole: %s", fmtErr(r))
	}
	return len(b.tups), nil
}

// starOracle builds a Database holding every stored tuple a window with
// A = key of namespace ns can draw on: the facts with that A, and the
// dimension rows those facts (and the key itself) reference. Star windows
// filtered on A join nothing else, so the oracle's answer is the full
// store's.
func starOracle(sp *space, stored map[tup]struct{}, ns int16, key int32) (*indep.Database, error) {
	refs := [5]map[int32]bool{}
	for d := 1; d <= 4; d++ {
		refs[d] = map[int32]bool{}
	}
	refs[1][key] = true
	var rows []tup
	for t := range stored {
		if t.rel == 0 && t.ns == ns && t.keys[0] == key {
			rows = append(rows, t)
			for d := 1; d <= 4; d++ {
				refs[d][t.keys[d-1]] = true
			}
		}
	}
	for t := range stored {
		if t.rel != 0 && t.ns == ns && refs[t.rel][t.keys[0]] {
			rows = append(rows, t)
		}
	}
	db := sp.sch.NewDatabase()
	for _, t := range rows {
		if err := db.Insert(sp.rels[t.rel], sp.row(t)); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// ---- routed-ingest -----------------------------------------------------

type routedIngest struct {
	p      routedParams
	sp     *space
	queues [][]binBatch
}

func (w *routedIngest) params() any { return w.p }

func (w *routedIngest) generate(e *env) error {
	sp, err := chainSpace(w.p.ChainAttrs)
	if err != nil {
		return err
	}
	w.sp = sp
	w.queues, err = genRouted(sp, e.seed, w.p)
	return err
}

// startCluster starts the shards, waits for them, then starts the router
// over their addresses. The router analyzes the schema before it listens,
// so its /readyz answering means placement is done.
func (w *routedIngest) startCluster(e *env) ([]*proc, error) {
	var ps []*proc
	var members []string
	for i := 0; i < w.p.Shards; i++ {
		name := fmt.Sprintf("shard%d", i+1)
		p, err := e.procs.start(e.bin, "shard", name, "-addr", "127.0.0.1:0",
			"-schema", w.sp.decl[0], "-fds", w.sp.decl[1])
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
		members = append(members, name+"="+p.url())
	}
	if err := readyAll(ps); err != nil {
		return nil, err
	}
	r, err := e.procs.start(e.bin, "router", "router", "-addr", "127.0.0.1:0", "-cluster",
		"-shards", strings.Join(members, ","), "-schema", w.sp.decl[0], "-fds", w.sp.decl[1])
	if err != nil {
		return nil, err
	}
	ps = append([]*proc{r}, ps...)
	return ps, readyAll(ps[:1])
}

func (w *routedIngest) start(e *env) ([]*proc, float64, error) {
	t0 := time.Now()
	ps, err := w.startCluster(e)
	return ps, time.Since(t0).Seconds(), err
}

func (w *routedIngest) drive(e *env, ps []*proc, budget float64, spans *spanLog, out *phaseOut) (map[string]float64, error) {
	router := ps[0]
	admin := newConn()
	var before []scrape
	if spans != nil {
		for _, p := range ps {
			s, err := fetchScrape(admin, p.url())
			if err != nil {
				return nil, err
			}
			before = append(before, s)
		}
	}
	cpu0, err := cpuOf(ps)
	if err != nil {
		return nil, err
	}
	res := driveBatches(router.url()+"/v1/batchbin", w.queues, budget, spans, routedVerdict)
	m := res.record(out)
	if err := serverUsage(m, out, ps, cpu0, res.tuples); err != nil {
		return nil, err
	}
	if spans != nil {
		var shardB, shardA []scrape
		for i, p := range ps {
			after, err := fetchScrape(admin, p.url())
			if err != nil {
				return nil, err
			}
			if i == 0 {
				h, _ := histMean(before[0], after, "indep_http_request_duration_seconds", "route=POST /batchbin")
				out.layer["indepd.handler_us_per_req"] = h * 1e6
				continue
			}
			shardB, shardA = append(shardB, before[i]), append(shardA, after)
		}
		h, n := histMean(sumScrapes(shardB...), sumScrapes(shardA...), "indep_http_request_duration_seconds", "route=POST /batchbin")
		out.layer["indepd.shard_handler_us_per_req"] = h * 1e6
		out.layer["indepd.shard_reqs_per_req"] = n / float64(max(len(res.samples), 1))
	}

	// Checks: per-relation counts summed over the shards, and sampled
	// windows through the router against the oracle.
	want := map[tup]struct{}{}
	for c, q := range w.queues {
		for _, b := range q[:res.sent[c]] {
			rej := map[int]bool{}
			for _, i := range b.rejected {
				rej[i] = true
			}
			for i, t := range b.tups {
				if !rej[i] {
					want[t] = struct{}{}
				}
			}
		}
	}
	got := map[string]int{}
	for _, p := range ps[1:] {
		n, err := relationCounts(admin, p.url())
		if err != nil {
			out.check(false, "%v", err)
			continue
		}
		for k, v := range n {
			got[k] += v
		}
	}
	checkCounts(out, w.sp, got, want)
	oracle := w.sp.sch.NewDatabase()
	for t := range want {
		if err := oracle.Insert(w.sp.rels[t.rel], w.sp.row(t)); err != nil {
			return nil, err
		}
	}
	// Windows anchored at the head of the chain: [A0 A1] reads R0 alone
	// (windows deeper in the chain join every relation before them, and a
	// filtered window is still built whole, so they cost seconds).
	var keys []int32
	for t := range want {
		if t.rel == 0 && t.ns == 0 {
			keys = append(keys, t.keys[0])
		}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	for s, attrs := range [][]string{{"A0", "A1"}, {"A0", "A1"}} {
		if len(keys) == 0 {
			break
		}
		v := w.sp.value(tup{keys: [4]int32{keys[(s+1)*len(keys)/3]}}, 0)
		checkWindow(out, admin, router.url(), w.sp, oracle,
			indep.WindowQuery{Attrs: attrs, Where: map[string]string{"A0": v}}, false)
	}
	return m, nil
}

// routedVerdict: the router's reassembled report must list exactly the
// planted conflicts as rejected, at their indices, and apply the rest.
func routedVerdict(b *binBatch, r reply) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	if r.status != http.StatusOK {
		return 0, fmt.Errorf("batch refused: %s", fmtErr(r))
	}
	var rep indep.BatchReport
	if err := json.Unmarshal(r.body, &rep); err != nil {
		return 0, fmt.Errorf("bad report: %v", err)
	}
	n := len(b.tups)
	if rep.Ops != n || rep.Processed != n || rep.Applied != n-len(b.rejected) || len(rep.Rejected) != len(b.rejected) {
		return 0, fmt.Errorf("report ops=%d processed=%d applied=%d rejected=%d, want %d/%d/%d/%d",
			rep.Ops, rep.Processed, rep.Applied, len(rep.Rejected), n, n, n-len(b.rejected), len(b.rejected))
	}
	for i, o := range rep.Rejected {
		if o.Index != b.rejected[i] {
			return 0, fmt.Errorf("rejected index %d, want %d", o.Index, b.rejected[i])
		}
	}
	return rep.Applied, nil
}
