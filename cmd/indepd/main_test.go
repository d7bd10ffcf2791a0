package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"indep"
	"indep/internal/obs"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newTestServer(t *testing.T, schemaSrc, fdSrc string) (*httptest.Server, *indep.ConcurrentStore) {
	t.Helper()
	sch, err := indep.Parse(schemaSrc, fdSrc)
	if err != nil {
		t.Fatal(err)
	}
	store, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(sch, discardLogger(), false, obs.RecorderOptions{SampleEvery: 1})
	s.install(store, nil, nil, 0)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, store
}

// newDurableTestServer mounts the handler over a durable store in dir.
func newDurableTestServer(t *testing.T, dir, schemaSrc, fdSrc string) (*httptest.Server, *indep.DurableStore) {
	t.Helper()
	sch, err := indep.Parse(schemaSrc, fdSrc)
	if err != nil {
		t.Fatal(err)
	}
	store, err := sch.OpenDurableStore(dir, indep.DurableOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	s := newServer(sch, discardLogger(), false, obs.RecorderOptions{SampleEvery: 1})
	s.install(store.ConcurrentStore, store, nil, 0)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, store
}

func do(t *testing.T, method, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: bad JSON response: %v", method, url, err)
	}
	return resp, out
}

func TestServerInsertStateDelete(t *testing.T) {
	ts, _ := newTestServer(t, "CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")

	resp, out := do(t, "POST", ts.URL+"/v1/insert", map[string]any{
		"relation": "CT", "row": map[string]string{"C": "cs101", "T": "jones"},
	})
	if resp.StatusCode != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("insert: %d %v", resp.StatusCode, out)
	}

	// Conflicting insert: 409 with rejected=true.
	resp, out = do(t, "POST", ts.URL+"/v1/insert", map[string]any{
		"relation": "CT", "row": map[string]string{"C": "cs101", "T": "smith"},
	})
	if resp.StatusCode != http.StatusConflict || out["rejected"] != true {
		t.Fatalf("conflict: %d %v", resp.StatusCode, out)
	}

	// Malformed insert: 400, not rejected.
	resp, out = do(t, "POST", ts.URL+"/v1/insert", map[string]any{
		"relation": "NOPE", "row": map[string]string{"C": "x"},
	})
	if resp.StatusCode != http.StatusBadRequest || out["rejected"] != false {
		t.Fatalf("malformed: %d %v", resp.StatusCode, out)
	}

	resp, out = do(t, "GET", ts.URL+"/v1/state", nil)
	if resp.StatusCode != http.StatusOK || out["rows"].(float64) != 1 {
		t.Fatalf("state: %d %v", resp.StatusCode, out)
	}
	rels := out["relations"].(map[string]any)
	ct := rels["CT"].([]any)[0].(map[string]any)
	if ct["C"] != "cs101" || ct["T"] != "jones" {
		t.Fatalf("state rows: %v", rels)
	}

	resp, out = do(t, "DELETE", ts.URL+"/v1/tuple", map[string]any{
		"relation": "CT", "row": map[string]string{"C": "cs101", "T": "jones"},
	})
	if resp.StatusCode != http.StatusOK || out["deleted"] != true {
		t.Fatalf("delete: %d %v", resp.StatusCode, out)
	}
	resp, out = do(t, "DELETE", ts.URL+"/v1/tuple", map[string]any{
		"relation": "CT", "row": map[string]string{"C": "cs101", "T": "jones"},
	})
	if resp.StatusCode != http.StatusOK || out["deleted"] != false {
		t.Fatalf("re-delete: %d %v", resp.StatusCode, out)
	}

	// After the delete, the previously conflicting teacher is admissible.
	resp, _ = do(t, "POST", ts.URL+"/v1/insert", map[string]any{
		"relation": "CT", "row": map[string]string{"C": "cs101", "T": "smith"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert after delete: %d", resp.StatusCode)
	}
}

func TestServerBatchAtomic(t *testing.T) {
	// Non-independent schema: the server must still validate (chase path).
	ts, store := newTestServer(t, "CD(C,D); CT(C,T); TD(T,D)", "C -> D; C -> T; T -> D")
	if store.FastPath() {
		t.Fatal("Example 1 must take the chase path")
	}

	bad := map[string]any{"ops": []map[string]any{
		{"relation": "CD", "row": map[string]string{"C": "CS402", "D": "CS"}},
		{"relation": "CT", "row": map[string]string{"C": "CS402", "T": "Jones"}},
		{"relation": "TD", "row": map[string]string{"T": "Jones", "D": "EE"}},
	}}
	resp, out := do(t, "POST", ts.URL+"/v1/batch", bad)
	if resp.StatusCode != http.StatusConflict || out["rejected"] != true {
		t.Fatalf("bad batch: %d %v", resp.StatusCode, out)
	}
	if store.Rows() != 0 {
		t.Fatalf("rejected batch committed %d rows", store.Rows())
	}

	good := map[string]any{"ops": []map[string]any{
		{"relation": "CD", "row": map[string]string{"C": "CS402", "D": "CS"}},
		{"relation": "CT", "row": map[string]string{"C": "CS402", "T": "Jones"}},
		{"relation": "TD", "row": map[string]string{"T": "Jones", "D": "CS"}},
	}}
	resp, out = do(t, "POST", ts.URL+"/v1/batch", good)
	if resp.StatusCode != http.StatusOK || out["accepted"].(float64) != 3 {
		t.Fatalf("good batch: %d %v", resp.StatusCode, out)
	}
	if store.Rows() != 3 {
		t.Fatalf("Rows = %d, want 3", store.Rows())
	}
}

func TestServerAnalysisAndStats(t *testing.T) {
	ts, _ := newTestServer(t, "CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")

	resp, out := do(t, "GET", ts.URL+"/v1/analysis", nil)
	if resp.StatusCode != http.StatusOK || out["independent"] != true || out["fastPath"] != true {
		t.Fatalf("analysis: %d %v", resp.StatusCode, out)
	}
	covers := out["relationCovers"].(map[string]any)
	if _, ok := covers["CT"]; !ok {
		t.Fatalf("analysis covers: %v", covers)
	}

	do(t, "POST", ts.URL+"/v1/insert", map[string]any{
		"relation": "CT", "row": map[string]string{"C": "cs101", "T": "jones"},
	})
	do(t, "POST", ts.URL+"/v1/insert", map[string]any{
		"relation": "CT", "row": map[string]string{"C": "cs101", "T": "smith"},
	})

	resp, out = do(t, "GET", ts.URL+"/v1/stats", nil)
	if resp.StatusCode != http.StatusOK || out["durable"] != false {
		t.Fatalf("stats: %d %v", resp.StatusCode, out)
	}
	if _, ok := out["wal"]; ok {
		t.Fatalf("in-memory stats should omit wal: %v", out)
	}
	stats := out["relations"].([]any)
	if len(stats) != 3 {
		t.Fatalf("stats for %d relations, want 3", len(stats))
	}
	ct := stats[0].(map[string]any)
	if ct["relation"] != "CT" || ct["inserts"].(float64) != 1 || ct["rejects"].(float64) != 1 {
		t.Fatalf("CT stats: %v", ct)
	}

	// In-memory servers refuse /checkpoint.
	resp, out = do(t, "POST", ts.URL+"/v1/checkpoint", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("checkpoint on in-memory store: %d %v", resp.StatusCode, out)
	}
}

func TestServerV1Aliases(t *testing.T) {
	ts, _ := newTestServer(t, "CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	resp, out := do(t, "POST", ts.URL+"/v1/insert", map[string]any{
		"relation": "CT", "row": map[string]string{"C": "cs1", "T": "a"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/insert: %d %v", resp.StatusCode, out)
	}
	resp, out = do(t, "GET", ts.URL+"/v1/state", nil)
	if resp.StatusCode != http.StatusOK || out["rows"].(float64) != 1 {
		t.Fatalf("/v1/state: %d %v", resp.StatusCode, out)
	}
	resp, _ = do(t, "GET", ts.URL+"/v1/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats: %d", resp.StatusCode)
	}
}

func TestServerDurableCheckpointAndRestart(t *testing.T) {
	dir := t.TempDir()
	const schemaSrc, fdSrc = "CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R"
	ts, store1 := newDurableTestServer(t, dir, schemaSrc, fdSrc)

	for i, row := range []map[string]string{
		{"C": "cs101", "T": "jones"},
		{"C": "cs102", "T": "smith"},
	} {
		resp, out := do(t, "POST", ts.URL+"/v1/insert", map[string]any{"relation": "CT", "row": row})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("insert %d: %d %v", i, resp.StatusCode, out)
		}
	}

	// WAL depth shows up in the scrape.
	resp, out := do(t, "GET", ts.URL+"/v1/stats", nil)
	if resp.StatusCode != http.StatusOK || out["durable"] != true {
		t.Fatalf("stats: %d %v", resp.StatusCode, out)
	}
	fams := scrape(t, ts.URL)
	if n := sampleSum(fams, "indep_wal_records_total"); n < 2 {
		t.Fatalf("indep_wal_records_total = %v, want >= 2", n)
	}
	if n := sampleSum(fams, "indep_wal_live_bytes"); n <= 0 {
		t.Fatalf("indep_wal_live_bytes = %v, want > 0", n)
	}

	resp, out = do(t, "POST", ts.URL+"/v1/checkpoint", nil)
	if resp.StatusCode != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("checkpoint: %d %v", resp.StatusCode, out)
	}

	// Restart: close the first store (the directory is flock-guarded) and
	// serve the same directory from a second one.
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}
	ts2, store2 := newDurableTestServer(t, dir, schemaSrc, fdSrc)
	if store2.Recovery().CheckpointSeq == 0 {
		t.Fatalf("restart ignored checkpoint: %+v", store2.Recovery())
	}
	resp, out = do(t, "GET", ts2.URL+"/v1/state", nil)
	if resp.StatusCode != http.StatusOK || out["rows"].(float64) != 2 {
		t.Fatalf("restarted state: %d %v", resp.StatusCode, out)
	}
}

func TestServerBadJSONAndMethods(t *testing.T) {
	ts, _ := newTestServer(t, "CT(C,T)", "C -> T")

	resp, err := http.Post(ts.URL+"/v1/insert", "application/json", bytes.NewBufferString("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: %d", resp.StatusCode)
	}

	// Wrong method on a routed pattern.
	resp, err = http.Get(ts.URL + "/v1/insert")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /insert: %d, want 405", resp.StatusCode)
	}
}

// TestServerWindowIndependent exercises GET /window on the university
// schema: the fast path (no chase) must compute cross-relation windows by
// extension joins, honoring where/project/limit.
func TestServerWindowIndependent(t *testing.T) {
	ts, _ := newTestServer(t, "CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	for _, op := range []map[string]any{
		{"relation": "CT", "row": map[string]string{"C": "cs101", "T": "jones"}},
		{"relation": "CT", "row": map[string]string{"C": "cs102", "T": "curie"}},
		{"relation": "CS", "row": map[string]string{"C": "cs101", "S": "ada"}},
		{"relation": "CS", "row": map[string]string{"C": "cs101", "S": "bob"}},
		{"relation": "CS", "row": map[string]string{"C": "cs999", "S": "eve"}},
	} {
		if resp, out := do(t, "POST", ts.URL+"/v1/insert", op); resp.StatusCode != http.StatusOK {
			t.Fatalf("insert: %d %v", resp.StatusCode, out)
		}
	}

	// Cross-relation window: students with the teacher of their course.
	// cs999 has no CT tuple, so eve's row is not C,S,T-total.
	resp, out := do(t, "GET", ts.URL+"/v1/window?attrs=C,S,T", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("window: %d %v", resp.StatusCode, out)
	}
	if out["fastPath"] != true {
		t.Fatalf("window should use the fast path: %v", out)
	}
	if out["rowCount"].(float64) != 2 {
		t.Fatalf("window rows: %v", out)
	}

	// Selection and projection.
	resp, out = do(t, "GET", ts.URL+"/v1/window?attrs=C,S,T&where=S=ada&project=T", nil)
	if resp.StatusCode != http.StatusOK || out["rowCount"].(float64) != 1 {
		t.Fatalf("filtered window: %d %v", resp.StatusCode, out)
	}
	row := out["rows"].([]any)[0].(map[string]any)
	if row["T"] != "jones" {
		t.Fatalf("ada's teacher: %v", row)
	}

	// Limit.
	resp, out = do(t, "GET", ts.URL+"/v1/window?attrs=C,S&limit=1", nil)
	if resp.StatusCode != http.StatusOK || out["rowCount"].(float64) != 1 || out["total"].(float64) != 3 {
		t.Fatalf("limited window: %d %v", resp.StatusCode, out)
	}

	// Second identical attribute set hits the plan cache.
	resp, out = do(t, "GET", ts.URL+"/v1/window?attrs=C,S,T", nil)
	if resp.StatusCode != http.StatusOK || out["planCached"] != true {
		t.Fatalf("plan cache: %d %v", resp.StatusCode, out)
	}

	// Malformed requests.
	for _, q := range []string{"", "?attrs=", "?attrs=C&where=nope", "?attrs=C&limit=x", "?attrs=NO"} {
		resp, out := do(t, "GET", ts.URL+"/v1/window"+q, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("window%s: %d %v, want 400", q, resp.StatusCode, out)
		}
	}
}

// TestServerWindowChaseFallback checks the non-independent path: the window
// over A,C needs the join-dependency chase (A -> C is not embedded), so the
// result exists only through the global representative instance.
func TestServerWindowChaseFallback(t *testing.T) {
	ts, _ := newTestServer(t, "AB(A,B); BC(B,C)", "A -> C")
	for _, op := range []map[string]any{
		{"relation": "AB", "row": map[string]string{"A": "a1", "B": "b1"}},
		{"relation": "BC", "row": map[string]string{"B": "b1", "C": "c1"}},
	} {
		if resp, out := do(t, "POST", ts.URL+"/v1/insert", op); resp.StatusCode != http.StatusOK {
			t.Fatalf("insert: %d %v", resp.StatusCode, out)
		}
	}
	resp, out := do(t, "GET", ts.URL+"/v1/window?attrs=A,C", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("window: %d %v", resp.StatusCode, out)
	}
	if out["fastPath"] != false {
		t.Fatalf("non-independent schema should fall back to the chase: %v", out)
	}
	rows := out["rows"].([]any)
	if len(rows) != 1 {
		t.Fatalf("window rows: %v", out)
	}
	row := rows[0].(map[string]any)
	if row["A"] != "a1" || row["C"] != "c1" {
		t.Fatalf("window row: %v", row)
	}
}

// FuzzWindowParams throws arbitrary query strings at the /window parameter
// parser: it must never panic, and an accepted parse must satisfy the
// parser's own invariants (attrs nonempty, limit non-negative, where pairs
// well-formed).
func FuzzWindowParams(f *testing.F) {
	f.Add("attrs=C,T")
	f.Add("attrs=C T&where=C=cs101&project=T&limit=10")
	f.Add("attrs=,,&where==&limit=-1")
	f.Add("where=A=1&where=A=2")
	f.Add("attrs=%00&limit=99999999999999999999")
	f.Fuzz(func(t *testing.T, raw string) {
		vals, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		q, err := parseWindowQuery(vals)
		if err != nil {
			return
		}
		if len(q.Attrs) == 0 {
			t.Fatalf("accepted query with no attrs: %q", raw)
		}
		if q.Limit < 0 {
			t.Fatalf("accepted negative limit: %q", raw)
		}
		for attr := range q.Where {
			if attr == "" {
				t.Fatalf("accepted empty where attribute: %q", raw)
			}
		}
	})
}
