package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"indep"
	"indep/internal/obs"
)

// doReq performs a prepared request and decodes its JSON body.
func doReq(t *testing.T, req *http.Request) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req.Clone(req.Context()))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	decodeBody(resp, &out)
	return resp, out
}

// decodeBody drains and closes a response body into v, reporting whether it
// parsed as JSON.
func decodeBody(resp *http.Response, v any) bool {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v) == nil
}

// newReplicaPair mounts a durable primary and a follower replica tailing it
// over HTTP — the two-daemon topology `indepd -data` + `indepd -follow`
// runs, compressed into one process.
func newReplicaPair(t *testing.T, schemaSrc, fdSrc string) (primary, replica *httptest.Server, f *indep.Follower) {
	t.Helper()
	primary, _ = newDurableTestServer(t, t.TempDir(), schemaSrc, fdSrc)

	sch, err := indep.Parse(schemaSrc, fdSrc)
	if err != nil {
		t.Fatal(err)
	}
	f, err = sch.OpenFollower(t.TempDir(), &indep.HTTPReplSource{Base: primary.URL},
		indep.FollowerOptions{NoFsync: true, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	s := newServer(sch, discardLogger(), false, obs.RecorderOptions{SampleEvery: 1})
	s.install(f.ConcurrentStore, f.DurableStore, f, 0)
	replica = httptest.NewServer(s)
	t.Cleanup(replica.Close)
	return primary, replica, f
}

// TestReplicaPairServesFollowerReads covers the daemon-level replication
// contract: writes return position tokens, the replica converges and
// serves them, writes to the replica answer 403, and both sides report
// their role under /stats.
func TestReplicaPairServesFollowerReads(t *testing.T) {
	primary, replica, _ := newReplicaPair(t, "CT(C,T); CS(C,S)", "C -> T")

	var version string
	for i := 0; i < 20; i++ {
		resp, body := do(t, "POST", primary.URL+"/v1/insert", map[string]any{
			"relation": "CT", "row": map[string]string{"C": fmt.Sprintf("c%02d", i), "T": "t"},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("insert %d: %d %v", i, resp.StatusCode, body)
		}
		version = resp.Header.Get("X-Indep-Version")
	}
	if version == "" || !strings.Contains(version, "/") {
		t.Fatalf("write returned no position token, got %q", version)
	}

	// A token-gated read on the replica returns the writes once applied.
	req, _ := http.NewRequest("GET", replica.URL+"/v1/window?attrs=C,T", nil)
	req.Header.Set("X-Indep-Min-Version", version)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, body := doReq(t, req)
		if resp.StatusCode == http.StatusOK {
			if n := body["total"].(float64); n != 20 {
				t.Fatalf("replica window total %v, want 20", n)
			}
			break
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("replica read: %d %v", resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("503 without Retry-After")
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never caught up: %v", body)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The replica refuses writes and checkpoints.
	for _, probe := range []struct {
		method, path string
		body         any
	}{
		{"POST", "/v1/insert", map[string]any{"relation": "CT", "row": map[string]string{"C": "x", "T": "y"}}},
		{"POST", "/v1/batch", map[string]any{"ops": []any{}}},
		{"DELETE", "/v1/tuple", map[string]any{"relation": "CT", "row": map[string]string{"C": "c00", "T": "t"}}},
		{"POST", "/v1/checkpoint", nil},
	} {
		resp, body := do(t, probe.method, replica.URL+probe.path, probe.body)
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("%s %s on replica: %d %v, want 403", probe.method, probe.path, resp.StatusCode, body)
		}
	}

	// Roles under /stats.
	if _, body := do(t, "GET", primary.URL+"/v1/stats", nil); body["replication"].(map[string]any)["role"] != "primary" {
		t.Fatalf("primary role: %v", body["replication"])
	}
	_, body := do(t, "GET", replica.URL+"/v1/stats", nil)
	repl := body["replication"].(map[string]any)
	if repl["role"] != "follower" {
		t.Fatalf("replica role: %v", repl)
	}
	if stream := repl["stream"].(map[string]any); stream["applied_records"].(float64) == 0 {
		t.Fatalf("replica stream stats empty: %v", stream)
	}

	// A bad min-version token is the client's fault.
	req, _ = http.NewRequest("GET", replica.URL+"/v1/window?attrs=C", nil)
	req.Header.Set("X-Indep-Min-Version", "not-a-position")
	if resp, _ := doReq(t, req); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad token: %d, want 400", resp.StatusCode)
	}
}

// TestReplWalEndpointEdges pins the stream endpoint's error contract: 400
// for unparseable cursors, 200-empty for not-yet-written positions, and 410
// once a checkpoint truncates the requested segment.
func TestReplWalEndpointEdges(t *testing.T) {
	primary, _ := newDurableTestServer(t, t.TempDir(), "CT(C,T)", "C -> T")
	for i := 0; i < 5; i++ {
		do(t, "POST", primary.URL+"/v1/insert", map[string]any{
			"relation": "CT", "row": map[string]string{"C": fmt.Sprintf("c%d", i), "T": "t"},
		})
	}

	if resp, _ := do(t, "GET", primary.URL+"/v1/repl/wal?pos=bogus", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad pos: %d, want 400", resp.StatusCode)
	}
	if resp, _ := do(t, "GET", primary.URL+"/v1/repl/wal", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing pos: %d, want 400", resp.StatusCode)
	}

	// A segment far in the future exists only after rotations: empty 200.
	req, _ := http.NewRequest("GET", primary.URL+"/v1/repl/wal?pos=999999/0", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("future pos: %d, want 200", resp.StatusCode)
	}

	// Checkpoint truncates segment 1 away: 410 tells followers to re-sync.
	if resp, body := do(t, "POST", primary.URL+"/v1/checkpoint", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d %v", resp.StatusCode, body)
	}
	if resp, _ := do(t, "GET", primary.URL+"/v1/repl/wal?pos=1/16", nil); resp.StatusCode != http.StatusGone {
		t.Fatalf("truncated pos: %d, want 410", resp.StatusCode)
	}

	// The snapshot endpoint returns a tail position and a decodable body.
	resp, err = http.Get(primary.URL + "/v1/repl/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d", resp.StatusCode)
	}
	if tail := resp.Header.Get(indep.ReplHeaderTail); !strings.HasSuffix(tail, "/0") {
		t.Fatalf("snapshot tail %q, want a segment start", tail)
	}
}

// TestReadYourWritesUnderConcurrentLoad is the satellite acceptance drill:
// concurrent writers on the primary, each immediately reading its own write
// through the replica with the returned token. Every read must either serve
// a state containing the write or answer 503 and succeed on retry — never
// return a state that misses it.
func TestReadYourWritesUnderConcurrentLoad(t *testing.T) {
	primary, replica, _ := newReplicaPair(t, "CT(C,T)", "C -> T")

	const writers, writes = 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; i < writes; i++ {
				key := fmt.Sprintf("w%d-%d", wr, i)
				resp, body := do(t, "POST", primary.URL+"/v1/insert", map[string]any{
					"relation": "CT", "row": map[string]string{"C": key, "T": "t-" + key},
				})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("insert %s: %d %v", key, resp.StatusCode, body)
					return
				}
				token := resp.Header.Get("X-Indep-Version")
				if token == "" {
					errs <- fmt.Errorf("insert %s: no version token", key)
					return
				}

				deadline := time.Now().Add(10 * time.Second)
				for {
					req, _ := http.NewRequest("GET",
						replica.URL+"/v1/window?attrs=C,T&where=C="+key, nil)
					req.Header.Set("X-Indep-Min-Version", token)
					resp, err := client.Do(req)
					if err != nil {
						errs <- err
						return
					}
					var out map[string]any
					okJSON := decodeBody(resp, &out)
					switch {
					case resp.StatusCode == http.StatusOK:
						if !okJSON || out["total"].(float64) != 1 {
							errs <- fmt.Errorf("read-your-writes miss for %s with token %s: %v", key, token, out)
							return
						}
					case resp.StatusCode == http.StatusServiceUnavailable:
						if time.Now().After(deadline) {
							errs <- fmt.Errorf("replica never reached %s", token)
							return
						}
						time.Sleep(5 * time.Millisecond)
						continue
					default:
						errs <- fmt.Errorf("read %s: unexpected %d %v", key, resp.StatusCode, out)
						return
					}
					break
				}
			}
		}(wr)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
