package main

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"indep"
	"indep/internal/obs"
)

// syncBuffer is an io.Writer safe for the daemon's concurrent slog calls
// (handlers, the WAL group-commit goroutine, and recovery all log).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// scrape fetches /metrics and strict-parses the exposition.
func scrape(t *testing.T, url string) []obs.ParsedFamily {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics content-type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}
	if err := obs.LintExposition(fams); err != nil {
		t.Fatalf("exposition fails lint: %v", err)
	}
	return fams
}

func family(fams []obs.ParsedFamily, name string) *obs.ParsedFamily {
	for i := range fams {
		if fams[i].Name == name {
			return &fams[i]
		}
	}
	return nil
}

// sampleSum adds up every sample named name across the scrape: a counter
// or gauge family's series, or a histogram's name_count series.
func sampleSum(fams []obs.ParsedFamily, name string) float64 {
	var sum float64
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Name == name {
				sum += s.Value
			}
		}
	}
	return sum
}

// TestMetricsExposition drives every subsystem (engine writes and rejects,
// window queries on both paths, WAL commits, a checkpoint) and asserts the
// scrape parses strictly, lints cleanly, and covers the layers the issue
// names: engine, WAL, query, chase, recovery.
func TestMetricsExposition(t *testing.T) {
	ts, _ := newDurableTestServer(t, t.TempDir(), "CT(C,T); CS(C,S)", "C -> T")

	for _, op := range []map[string]any{
		{"relation": "CT", "row": map[string]string{"C": "cs101", "T": "jones"}},
		{"relation": "CS", "row": map[string]string{"C": "cs101", "S": "ada"}},
	} {
		if resp, out := do(t, "POST", ts.URL+"/v1/insert", op); resp.StatusCode != http.StatusOK {
			t.Fatalf("insert: %d %v", resp.StatusCode, out)
		}
	}
	// A rejected insert (C -> T violation) must count as a reject.
	resp, _ := do(t, "POST", ts.URL+"/v1/insert", map[string]any{
		"relation": "CT", "row": map[string]string{"C": "cs101", "T": "smith"}})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting insert: %d", resp.StatusCode)
	}
	if resp, _ := do(t, "GET", ts.URL+"/v1/window?attrs=C,T,S", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("window: %d", resp.StatusCode)
	}
	if resp, _ := do(t, "POST", ts.URL+"/v1/checkpoint", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d", resp.StatusCode)
	}

	fams := scrape(t, ts.URL)
	mustHave := []string{
		// engine
		"indep_engine_inserts_total",
		"indep_engine_rejects_total",
		"indep_engine_tuples",
		"indep_engine_op_duration_seconds",
		"indep_engine_commits_total",
		"indep_engine_fast_path",
		// query
		"indep_query_windows_total",
		"indep_query_fast_evals_total",
		"indep_query_window_duration_seconds",
		// chase (registered even when the fast path never chases)
		"indep_chase_invocations_total",
		// WAL + durability
		"indep_wal_records_total",
		"indep_wal_fsync_duration_seconds",
		"indep_wal_commit_group_records",
		"indep_durable_commit_wait_seconds",
		"indep_checkpoints_total",
		// recovery
		"indep_recovery_replayed_records",
		"indep_recovery_duration_seconds",
		// HTTP layer
		"indep_http_requests_total",
		"indep_http_request_duration_seconds",
	}
	for _, name := range mustHave {
		if family(fams, name) == nil {
			t.Errorf("scrape is missing family %s", name)
		}
	}

	// The reject above must be visible with its relation label.
	rejects := family(fams, "indep_engine_rejects_total")
	if rejects == nil {
		t.Fatal("no rejects family")
	}
	found := false
	for _, s := range rejects.Samples {
		if s.Label("relation") == "CT" && s.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("indep_engine_rejects_total{relation=CT} not >= 1: %+v", rejects.Samples)
	}

	// The two accepted inserts are counted once each, and the durable
	// commits fsynced.
	if n := sampleSum(fams, "indep_engine_inserts_total"); n != 2 {
		t.Errorf("indep_engine_inserts_total = %v, want 2", n)
	}
	if n := sampleSum(fams, "indep_wal_fsync_duration_seconds_count"); n < 1 {
		t.Errorf("indep_wal_fsync_duration_seconds_count = %v, want >= 1", n)
	}
}

// TestReadinessGate starts the handler without a store: liveness answers
// immediately, readiness and store routes 503, and both flip after install.
func TestReadinessGate(t *testing.T) {
	sch, err := indep.Parse("CT(C,T)", "C -> T")
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(sch, discardLogger(), false, obs.RecorderOptions{SampleEvery: 1})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	if resp, _ := do(t, "GET", ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before install: %d", resp.StatusCode)
	}
	if resp, _ := do(t, "GET", ts.URL+"/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz before install: %d, want 503", resp.StatusCode)
	}
	if resp, _ := do(t, "GET", ts.URL+"/v1/stats", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stats before install: %d, want 503", resp.StatusCode)
	}
	// /metrics already serves (HTTP families only).
	scrape(t, ts.URL)

	store, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	s.install(store, nil, nil, 0)

	if resp, _ := do(t, "GET", ts.URL+"/readyz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after install: %d", resp.StatusCode)
	}
	if resp, _ := do(t, "POST", ts.URL+"/v1/insert", map[string]any{
		"relation": "CT", "row": map[string]string{"C": "c1", "T": "t1"}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert after install: %d", resp.StatusCode)
	}
}

// TestTraceEndToEnd sends an insert with a caller-chosen trace ID and
// asserts the ID is echoed in the response header and appears in both the
// access log and the durable commit ack — one grep reconstructs the write
// path from HTTP ingress to fsync.
func TestTraceEndToEnd(t *testing.T) {
	var logBuf syncBuffer
	logger := slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug}))

	sch, err := indep.Parse("CT(C,T)", "C -> T")
	if err != nil {
		t.Fatal(err)
	}
	store, err := sch.OpenDurableStore(t.TempDir(), indep.DurableOptions{NoFsync: true, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	s := newServer(sch, logger, false, obs.RecorderOptions{SampleEvery: 1})
	s.install(store.ConcurrentStore, store, nil, 0)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	const trace = "deadbeefcafe0123"
	req, err := http.NewRequest("POST", ts.URL+"/v1/insert",
		strings.NewReader(`{"relation":"CT","row":{"C":"cs101","T":"jones"}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Indep-Trace", trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Indep-Trace"); got != trace {
		t.Fatalf("response trace header = %q, want %q", got, trace)
	}

	// The handler answered after the commit hook's wait returned, so both
	// lines are flushed by now.
	logs := logBuf.String()
	var access, durable bool
	for _, line := range strings.Split(logs, "\n") {
		if !strings.Contains(line, "trace="+trace) {
			continue
		}
		if strings.Contains(line, "msg=request") {
			access = true
		}
		if strings.Contains(line, `msg="commit durable"`) {
			durable = true
		}
	}
	if !access || !durable {
		t.Fatalf("trace %s: access log=%v, durable ack=%v\nlogs:\n%s", trace, access, durable, logs)
	}

	// A request without the header gets a minted 16-hex ID.
	resp2, _ := do(t, "GET", ts.URL+"/v1/stats", nil)
	minted := resp2.Header.Get("X-Indep-Trace")
	if len(minted) != 16 {
		t.Fatalf("minted trace %q, want 16 hex chars", minted)
	}
}

// TestPprofGate checks /debug/pprof/ is mounted only behind -pprof.
func TestPprofGate(t *testing.T) {
	sch, err := indep.Parse("CT(C,T)", "C -> T")
	if err != nil {
		t.Fatal(err)
	}
	for _, on := range []bool{false, true} {
		s := newServer(sch, discardLogger(), on, obs.RecorderOptions{SampleEvery: 1})
		ts := httptest.NewServer(s)
		resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if on && resp.StatusCode != http.StatusOK {
			t.Errorf("-pprof on: /debug/pprof/cmdline = %d, want 200", resp.StatusCode)
		}
		if !on && resp.StatusCode != http.StatusNotFound {
			t.Errorf("-pprof off: /debug/pprof/cmdline = %d, want 404", resp.StatusCode)
		}
		ts.Close()
	}
}
