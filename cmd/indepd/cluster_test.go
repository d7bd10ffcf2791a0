package main

// End-to-end drills for the -cluster routing tier: real shard daemons
// (httptest servers running the single-node handler) fronted by a real
// routerServer, all over actual HTTP — the only pieces not from production
// are the listeners. The 503 drill replaces one shard with a closed port
// and pins the router's unavailability contract: 503, Retry-After, the
// shard's name, and a partial report the client can act on.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"indep"
	"indep/internal/cluster"
	"indep/internal/obs"
)

const clusterSchema = "CT(C,T); CS(C,S); CHR(C,H,R)"
const clusterFDs = "C -> T; C H -> R"

// newClusterTestServer stands up n shard daemons and a router over them.
// deadShards names shards whose daemon is shut down before the router
// starts (the URL keeps refusing connections).
func newClusterTestServer(t *testing.T, schemaSrc, fdSrc string, n int, deadShards ...string) (*httptest.Server, *cluster.Router) {
	t.Helper()
	dead := make(map[string]bool, len(deadShards))
	for _, s := range deadShards {
		dead[s] = true
	}
	var members []cluster.Member
	for i := 1; i <= n; i++ {
		name := "shard" + string(rune('0'+i))
		shard, _ := newTestServer(t, schemaSrc, fdSrc)
		if dead[name] {
			shard.Close()
		}
		members = append(members, cluster.Member{Name: name, URL: shard.URL})
	}
	sch, err := indep.Parse(schemaSrc, fdSrc)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cluster.NewRouter(sch, members, cluster.Options{
		Retries: 1,
		Backoff: time.Millisecond,
		Timeout: 5 * time.Second,
		Logger:  discardLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newRouterServer(rt, discardLogger(), false, obs.RecorderOptions{SampleEvery: 1}))
	t.Cleanup(ts.Close)
	return ts, rt
}

// TestClusterEndToEnd drives inserts, a batch, a rejection, and a window
// through the router's HTTP API against live shard daemons.
func TestClusterEndToEnd(t *testing.T) {
	ts, _ := newClusterTestServer(t, clusterSchema, clusterFDs, 3)

	resp, _ := do(t, http.MethodPost, ts.URL+"/v1/insert",
		map[string]any{"relation": "CT", "row": map[string]string{"C": "c1", "T": "t1"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %d", resp.StatusCode)
	}
	// The same C with a different T violates C -> T on whatever shard owns it.
	resp, body := do(t, http.MethodPost, ts.URL+"/v1/insert",
		map[string]any{"relation": "CT", "row": map[string]string{"C": "c1", "T": "t2"}})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting insert: %d (%v)", resp.StatusCode, body)
	}

	var ops []map[string]any
	for _, c := range []string{"c1", "c2", "c3", "c4"} {
		ops = append(ops,
			map[string]any{"relation": "CS", "row": map[string]string{"C": c, "S": "s-" + c}},
			map[string]any{"relation": "CHR", "row": map[string]string{"C": c, "H": "h1", "R": "r-" + c}})
	}
	resp, body = do(t, http.MethodPost, ts.URL+"/v1/batch", map[string]any{"ops": ops})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d (%v)", resp.StatusCode, body)
	}
	if body["applied"].(float64) != 8 || body["ops"].(float64) != 8 {
		t.Fatalf("batch report: %v", body)
	}

	resp, body = do(t, http.MethodGet, ts.URL+"/v1/window?attrs=C,T,S", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("window: %d (%v)", resp.StatusCode, body)
	}
	if body["rowCount"].(float64) != 1 { // only c1 has both a T and an S
		t.Fatalf("window rows: %v", body)
	}
	row := body["rows"].([]any)[0].(map[string]any)
	if row["C"] != "c1" || row["T"] != "t1" || row["S"] != "s-c1" {
		t.Fatalf("window row: %v", row)
	}

	resp, body = do(t, http.MethodGet, ts.URL+"/v1/cluster/status", nil)
	if resp.StatusCode != http.StatusOK || body["mode"] != "sharded" {
		t.Fatalf("status: %d %v", resp.StatusCode, body)
	}
	if n := len(body["relations"].([]any)); n != 3 {
		t.Fatalf("status lists %d relations", n)
	}
	resp, body = do(t, http.MethodGet, ts.URL+"/v1/cluster/health", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health: %d", resp.StatusCode)
	}
	for _, s := range body["shards"].([]any) {
		if !s.(map[string]any)["healthy"].(bool) {
			t.Fatalf("shard reported unhealthy: %v", s)
		}
	}
}

// TestClusterShardDown503 pins the router's unavailability contract over
// real HTTP: an op owned by an unreachable shard answers 503 with
// Retry-After and names the shard; ops owned by live shards still work.
func TestClusterShardDown503(t *testing.T) {
	const dead = "shard2"
	ts, rt := newClusterTestServer(t, clusterSchema, clusterFDs, 3, dead)

	rowOwnedBy(t, rt, dead, true) // sanity: the dead shard owns something
	resp, body := do(t, http.MethodPost, ts.URL+"/v1/insert",
		map[string]any{"relation": "CT", "row": rowOwnedBy(t, rt, dead, true)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("insert to dead shard: %d (%v)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if body["shard"] != dead {
		t.Fatalf("503 names shard %v, want %s", body["shard"], dead)
	}
	if !strings.Contains(body["error"].(string), "unreachable") {
		t.Fatalf("503 error: %v", body["error"])
	}

	resp, _ = do(t, http.MethodPost, ts.URL+"/v1/insert",
		map[string]any{"relation": "CT", "row": rowOwnedBy(t, rt, dead, false)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert to live shard: %d", resp.StatusCode)
	}

	// A batch spanning live and dead shards answers 503 but carries the
	// partial report, so the client knows the live shards applied theirs.
	var ops []map[string]any
	for i := 0; i < 16; i++ {
		ops = append(ops, map[string]any{"relation": "CS",
			"row": map[string]string{"C": fmt.Sprintf("bc%d", i), "S": "s1"}})
	}
	resp, body = do(t, http.MethodPost, ts.URL+"/v1/batch", map[string]any{"ops": ops})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("spanning batch: %d (%v)", resp.StatusCode, body)
	}
	rep, ok := body["report"].(map[string]any)
	if !ok {
		t.Fatalf("503 batch response has no report: %v", body)
	}
	if rep["ops"].(float64) != 16 || rep["processed"].(float64) >= 16 || rep["processed"].(float64) == 0 {
		t.Fatalf("partial report: %v", rep)
	}

	// Health reflects the outage.
	resp, body = do(t, http.MethodGet, ts.URL+"/v1/cluster/health", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health: %d", resp.StatusCode)
	}
	for _, s := range body["shards"].([]any) {
		m := s.(map[string]any)
		if (m["name"] == dead) == m["healthy"].(bool) {
			t.Fatalf("health for %v: %v", m["name"], m["healthy"])
		}
	}
}

// rowOwnedBy searches for a CT row the placement assigns (want=true) or
// does not assign (want=false) to the shard.
func rowOwnedBy(t *testing.T, rt *cluster.Router, shard string, want bool) map[string]string {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		row := map[string]string{"C": fmt.Sprintf("probe%d", i), "T": "t"}
		owner, err := rt.Placement().Owner("CT", row)
		if err != nil {
			t.Fatal(err)
		}
		if (owner == shard) == want {
			return row
		}
	}
	t.Fatalf("no CT row with owner==%s being %v in 10000 probes", shard, want)
	return nil
}

// TestClusterBatchBinPartialHTTP pins the shard-side ?partial=1 surface
// the router forwards over: 200 with a JSON report even when ops are
// rejected, against the atomic mode's 409.
func TestClusterBatchBinPartialHTTP(t *testing.T) {
	ts, _ := newTestServer(t, clusterSchema, clusterFDs)
	sch, err := indep.Parse(clusterSchema, clusterFDs)
	if err != nil {
		t.Fatal(err)
	}
	enc := indep.NewBinBatchEncoder(sch)
	for _, r := range []map[string]string{
		{"C": "c1", "T": "t1"}, {"C": "c1", "T": "t2"}, {"C": "c2", "T": "t1"},
	} {
		if err := enc.Add("CT", r); err != nil {
			t.Fatal(err)
		}
	}
	payload := enc.Bytes()

	post := func(url string) *http.Response {
		t.Helper()
		resp, err := http.Post(url, indep.BinContentType, strings.NewReader(string(payload)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post(ts.URL + "/v1/batchbin"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("atomic batchbin with violation: %d", resp.StatusCode)
	}
	resp := post(ts.URL + "/v1/batchbin?partial=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial batchbin: %d", resp.StatusCode)
	}
	var rep indep.BatchReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 3 || rep.Applied != 2 || len(rep.Rejected) != 1 || rep.Rejected[0].Index != 1 {
		t.Fatalf("partial report: %+v", rep)
	}
	if resp := post(ts.URL + "/v1/batchbin?partial=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus partial param: %d", resp.StatusCode)
	}
}

// TestClusterRelEndpoint pins the fragment endpoint the gather path reads.
func TestClusterRelEndpoint(t *testing.T) {
	ts, store := newTestServer(t, clusterSchema, clusterFDs)
	if err := store.Insert("CT", map[string]string{"C": "c1", "T": "t1"}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/cluster/rel?name=CT")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster/rel: %d", resp.StatusCode)
	}
	var buf strings.Builder
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	res, err := indep.DecodeWindowBinary([]byte(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["C"] != "c1" || res.Rows[0]["T"] != "t1" {
		t.Fatalf("fragment rows: %v", res.Rows)
	}
	for _, bad := range []string{"", "nope"} {
		resp, err := http.Get(ts.URL + "/v1/cluster/rel?name=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("cluster/rel?name=%q: %d", bad, resp.StatusCode)
		}
	}
}

// TestClusterWindowBinary pins the router's binary window: with Accept:
// application/x-indep-bin it answers an IWIN1 body that decodes to the
// rows of the JSON answer, on the gather path (independent schema) and on
// the fallback path that proxies the whole query to one shard.
func TestClusterWindowBinary(t *testing.T) {
	for _, tc := range []struct {
		name, schema, fds, attrs string
		fast                     bool
		ops                      []map[string]any
	}{
		{"gather", clusterSchema, clusterFDs, "C,T,S", true, []map[string]any{
			{"relation": "CT", "row": map[string]string{"C": "c1", "T": "t1"}},
			{"relation": "CT", "row": map[string]string{"C": "c2", "T": "t2"}},
			{"relation": "CS", "row": map[string]string{"C": "c1", "S": "s1"}},
			{"relation": "CS", "row": map[string]string{"C": "c2", "S": "s2"}},
			{"relation": "CS", "row": map[string]string{"C": "c3", "S": "s3"}},
		}},
		{"proxied", "CD(C,D); CT(C,T); TD(T,D)", "C -> D; C -> T; T -> D", "C,D", false, []map[string]any{
			{"relation": "CD", "row": map[string]string{"C": "c1", "D": "d1"}},
			{"relation": "CT", "row": map[string]string{"C": "c2", "T": "t2"}},
			{"relation": "TD", "row": map[string]string{"T": "t2", "D": "d2"}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts, _ := newClusterTestServer(t, tc.schema, tc.fds, 2)
			if resp, body := do(t, http.MethodPost, ts.URL+"/v1/batch", map[string]any{"ops": tc.ops}); resp.StatusCode != http.StatusOK {
				t.Fatalf("batch: %d %v", resp.StatusCode, body)
			}
			url := ts.URL + "/v1/window?attrs=" + tc.attrs
			resp, body := do(t, http.MethodGet, url, nil)
			if resp.StatusCode != http.StatusOK || body["fastPath"] != tc.fast || body["rowCount"].(float64) != 2 {
				t.Fatalf("JSON window: %d %v", resp.StatusCode, body)
			}
			req, err := http.NewRequest(http.MethodGet, url, nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Accept", indep.BinContentType)
			bresp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			data, err := io.ReadAll(bresp.Body)
			bresp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if bresp.StatusCode != http.StatusOK || bresp.Header.Get("Content-Type") != indep.BinContentType {
				t.Fatalf("binary window: %d %q", bresp.StatusCode, bresp.Header.Get("Content-Type"))
			}
			res, err := indep.DecodeWindowBinary(data)
			if err != nil {
				t.Fatalf("binary window body: %v", err)
			}
			if res.FastPath != tc.fast || res.Total != 2 {
				t.Fatalf("binary window: fastPath=%v total=%d", res.FastPath, res.Total)
			}
			jsonRows := body["rows"].([]any)
			if len(res.Rows) != len(jsonRows) {
				t.Fatalf("binary rows %v, JSON rows %v", res.Rows, jsonRows)
			}
			for i, raw := range jsonRows {
				for attr, v := range raw.(map[string]any) {
					if res.Rows[i][attr] != v {
						t.Fatalf("row %d: binary %v, JSON %v", i, res.Rows[i], raw)
					}
				}
			}
		})
	}
}
