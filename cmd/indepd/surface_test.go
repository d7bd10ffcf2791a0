package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"indep"
)

// status sends an empty-bodied request and returns the response status.
func status(t *testing.T, method, url string) int {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestSurfaceRoutes pins the one serving surface both tiers share: API
// routes answer under /v1/ only, probes, the scrape and the flight
// recorder answer unversioned, and API traffic lands in the indep_http_*
// series and the flight recorder under its unversioned route label.
func TestSurfaceRoutes(t *testing.T) {
	shard, _ := newTestServer(t, clusterSchema, clusterFDs)
	router, _ := newClusterTestServer(t, clusterSchema, clusterFDs, 2)
	sch, err := indep.Parse(clusterSchema, clusterFDs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range []struct {
		name string
		ts   *httptest.Server
		api  []string
	}{
		{"shard", shard, []string{
			"POST /insert", "POST /batch", "POST /batchbin", "DELETE /tuple",
			"POST /checkpoint", "GET /window", "GET /cluster/rel", "GET /state",
			"GET /analysis", "GET /stats", "GET /repl/wal", "GET /repl/snapshot",
		}},
		{"router", router, []string{
			"POST /insert", "POST /batch", "POST /batchbin", "DELETE /tuple",
			"GET /window", "GET /cluster/status", "GET /cluster/health",
		}},
	} {
		t.Run(tier.name, func(t *testing.T) {
			for _, route := range tier.api {
				method, path, _ := strings.Cut(route, " ")
				if code := status(t, method, tier.ts.URL+"/v1"+path); code == http.StatusNotFound || code == http.StatusMethodNotAllowed {
					t.Errorf("%s /v1%s: %d", method, path, code)
				}
				if code := status(t, method, tier.ts.URL+path); code != http.StatusNotFound {
					t.Errorf("bare %s %s: %d, want 404", method, path, code)
				}
			}
			for _, path := range []string{"/healthz", "/readyz", "/metrics", "/debug/trace/recent"} {
				if code := status(t, "GET", tier.ts.URL+path); code != http.StatusOK {
					t.Errorf("GET %s: %d", path, code)
				}
			}

			enc := indep.NewBinBatchEncoder(sch)
			if err := enc.Add("CS", map[string]string{"C": "c1", "S": "s1"}); err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(tier.ts.URL+"/v1/batchbin", indep.BinContentType, bytes.NewReader(enc.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("batchbin: %d", resp.StatusCode)
			}
			if resp, out := do(t, "POST", tier.ts.URL+"/v1/insert", map[string]any{
				"relation": "CT", "row": map[string]string{"C": "c1", "T": "t1"}}); resp.StatusCode != http.StatusOK {
				t.Fatalf("insert: %d %v", resp.StatusCode, out)
			}
			lat := family(scrape(t, tier.ts.URL), "indep_http_request_duration_seconds")
			if lat == nil {
				t.Fatal("no indep_http_request_duration_seconds family")
			}
			for _, route := range []string{"POST /batchbin", "POST /insert"} {
				found := false
				for _, s := range lat.Samples {
					found = found || (s.Name == lat.Name+"_count" && s.Label("route") == route && s.Value >= 1)
				}
				if !found {
					t.Errorf("indep_http_request_duration_seconds{route=%q} missing", route)
				}
			}
			resp2, out := do(t, "GET", tier.ts.URL+"/debug/trace/recent?route="+url.QueryEscape("POST /batchbin"), nil)
			if resp2.StatusCode != http.StatusOK || out["count"].(float64) < 1 {
				t.Fatalf("recent POST /batchbin traces: %d %v", resp2.StatusCode, out)
			}
		})
	}
}
