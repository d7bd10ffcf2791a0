// Command indepd serves a maintained database over HTTP/JSON. It loads a
// schema, runs the Graham–Yannakakis independence analysis, and opens a
// ConcurrentStore: independent schemas validate inserts concurrently behind
// per-relation lock stripes, everything else serializes through the chase —
// either way every write is validated, so the served state always has a
// weak instance.
//
// With -data the store is durable: every acknowledged write is appended to
// a write-ahead log (group commit, one fsync per commit group), restarts
// recover the exact pre-crash state, and checkpoints bound replay time. A
// graceful shutdown (SIGINT/SIGTERM) drains connections, writes a final
// checkpoint, and closes the log.
//
// With -follow the daemon is a read-only replica: it keeps its own durable
// copy in -data, tails the primary's write-ahead log over /v1/repl/, and
// serves window queries from its local snapshots. Writes answer 403; reads
// carrying X-Indep-Min-Version (the position token every durable write
// returns in X-Indep-Version) wait briefly for the stream to catch up and
// answer 503 with Retry-After when still behind — read-your-writes without
// blocking the primary.
//
// Usage:
//
//	indepd -schema 'CT(C,T); CS(C,S); CHR(C,H,R)' -fds 'C -> T; C H -> R'
//	indepd -file design.txt -addr :8080 -data /var/lib/indepd
//	indepd -file design.txt -addr :8081 -data /var/lib/indepd-replica -follow http://primary:8080
//
// API routes live under /v1/ only; probe, scrape and debug routes are
// unversioned:
//
//	POST   /v1/insert      {"relation":"CT","row":{"C":"cs101","T":"jones"}}
//	POST   /v1/batch       {"ops":[{"relation":...,"row":{...}}, ...]}  (atomic)
//	POST   /v1/batchbin    length-prefixed binary batch (indep.BinBatchEncoder; atomic, JSON-free)
//	DELETE /v1/tuple       {"relation":"CT","row":{...}}
//	POST   /v1/checkpoint  snapshot state, truncate the log (durable only)
//	GET    /v1/window      ?attrs=C,T[&where=C=cs101&project=T&limit=10]
//	                       (Accept: application/x-indep-bin streams the binary result)
//	GET    /v1/cluster/rel ?name=CT  this node's fragment of one relation, binary
//	GET    /v1/state       full state as JSON rows
//	GET    /v1/analysis    independence analysis
//	GET    /v1/stats       per-relation counters, durability, replication role
//	GET    /v1/repl/wal       raw flushed WAL bytes by cursor (?pos=seq/off&max=&wait=1)
//	GET    /v1/repl/snapshot  encoded state snapshot for follower bootstrap
//	GET    /metrics     Prometheus text exposition of every subsystem
//	GET    /healthz     process liveness (200 as soon as the listener is up)
//	GET    /readyz      503 until recovery finishes, then 200
//	GET    /debug/trace/recent, /debug/trace/{id}  retained request traces
//
// With -cluster the daemon is a stateless routing tier over -shards: it
// serves /v1/insert, /v1/batch, /v1/batchbin, /v1/tuple and /v1/window by
// placement and scatter-gather, plus /v1/cluster/status and
// /v1/cluster/health, on the same surface — middleware, metrics, flight
// recorder, probes, and the -trace-*, -slow and -pprof flags.
//
// /window computes the paper's window function: the X-total projection of
// the representative instance for the requested attribute set, evaluated
// lock-free over a consistent snapshot (relation-by-relation when the
// schema is independent, by the serialized chase otherwise).
//
// The listener comes up before recovery starts, so orchestrators can probe
// /healthz and /readyz while a large log replays; store-backed routes
// answer 503 until then. Every request gets a trace ID (minted, or taken
// from the X-Indep-Trace request header), echoed in the response header
// and attached to the access log, slow-operation records, and — on a
// durable store — the commit's fsync ack, so one grep over the structured
// log reconstructs a write's full path. -pprof mounts net/http/pprof under
// /debug/pprof/.
//
// Rejected writes answer 409 with {"rejected":true}; malformed ones 400.
// If the write-ahead log cannot persist an admitted write the daemon
// answers 503 and should be restarted.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"indep"
	"indep/internal/cluster"
	"indep/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	schemaSrc := flag.String("schema", "", "schema declaration, e.g. 'R1(A,B); R2(B,C)'")
	fdSrc := flag.String("fds", "", "functional dependencies, e.g. 'A -> B; B -> C'")
	file := flag.String("file", "", "read schema/fds from a declaration file")
	data := flag.String("data", "", "data directory for the write-ahead log (empty: in-memory only)")
	follow := flag.String("follow", "", "primary base URL to replicate from (replica mode; requires -data, serves reads only)")
	clusterOn := flag.Bool("cluster", false, "routing-tier mode: no local store, split writes across -shards and scatter-gather windows")
	shards := flag.String("shards", "", "static shard membership for -cluster, e.g. 'shard1=http://10.0.0.1:8080,shard2=http://10.0.0.2:8080'")
	clusterParts := flag.Int("cluster-parts", 0, "hash ranges per partitionable relation (0: twice the shard count)")
	healthEvery := flag.Duration("cluster-health-interval", 5*time.Second, "shard health-check cadence in -cluster mode")
	noFsync := flag.Bool("nofsync", false, "durable mode without fsync (survives process crashes, not power loss)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	logLevel := flag.String("loglevel", "info", "log level: debug, info, warn, or error")
	slow := flag.Duration("slow", 100*time.Millisecond, "log operations and commits at or above this duration (0 disables)")
	traceRing := flag.Int("trace-ring", obs.DefaultRingCapacity, "flight-recorder capacity in traces (rounded up to a power of two)")
	traceSample := flag.Int("trace-sample", obs.DefaultSampleEvery, "retain 1 in N unremarkable traces (slow, errored, and rejected requests are always kept; 1 keeps everything)")
	flag.Parse()

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fatal(fmt.Errorf("bad -loglevel %q: want debug, info, warn, or error", *logLevel))
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))

	var sch *indep.Schema
	var err error
	switch {
	case *file != "":
		sch, err = indep.ParseFile(*file)
	case *schemaSrc != "":
		sch, err = indep.Parse(*schemaSrc, *fdSrc)
	default:
		err = fmt.Errorf("missing -schema (or -file)")
	}
	if err != nil {
		fatal(err)
	}
	logger.Info("schema loaded", "schema", sch.String())

	rec := obs.RecorderOptions{
		Capacity:    *traceRing,
		SampleEvery: *traceSample,
		Slow:        *slow,
	}

	if *clusterOn {
		if *shards == "" {
			fatal(fmt.Errorf("-cluster requires -shards (e.g. -shards 'shard1=http://host1:8080,shard2=http://host2:8080')"))
		}
		if *data != "" || *follow != "" {
			fatal(fmt.Errorf("-cluster is a stateless routing tier; it takes neither -data nor -follow"))
		}
		members, err := cluster.ParseMembers(*shards)
		if err != nil {
			fatal(err)
		}
		rt, err := cluster.NewRouter(sch, members, cluster.Options{
			Parts:  *clusterParts,
			Logger: logger,
		})
		if err != nil {
			fatal(err)
		}
		if shard, fb := rt.Fallback(); fb {
			logger.Warn("cluster mode running in single-node fallback", "shard", shard)
		} else {
			logger.Info("cluster mode", "shards", len(members), "parts", rt.Placement().Parts())
		}
		s := newRouterServer(rt, logger, *pprofOn, rec)
		// The router's only state is the health table: nothing to drain or
		// checkpoint on shutdown.
		s.serve(*addr, func(ctx context.Context) func() {
			rt.CheckHealth(ctx) // prime the health table before the first scrape
			if *healthEvery > 0 {
				go s.healthLoop(ctx, *healthEvery)
			}
			return nil
		})
		return
	}

	// Store-backed routes answer 503 until open has installed the store.
	s := newServer(sch, logger, *pprofOn, rec)
	s.serve(*addr, func(context.Context) func() {
		switch {
		case *follow != "":
			if *data == "" {
				fatal(fmt.Errorf("-follow requires -data (the replica keeps its own durable copy)"))
			}
			follower, err := sch.OpenFollower(*data, &indep.HTTPReplSource{
				Base: strings.TrimRight(*follow, "/"),
				Wait: true,
			}, indep.FollowerOptions{
				NoFsync: *noFsync,
				Logger:  logger,
			})
			if err != nil {
				fatal(err)
			}
			s.install(follower.ConcurrentStore, follower.DurableStore, follower, *slow)
			// Close persists the stream position, so the next start resumes
			// the tail instead of re-syncing from a snapshot.
			return func() {
				if err := follower.Close(); err != nil {
					logger.Error("close", "err", err)
				}
			}
		case *data != "":
			durable, err := sch.OpenDurableStore(*data, indep.DurableOptions{
				NoFsync:    *noFsync,
				Logger:     logger,
				SlowCommit: *slow,
			})
			if err != nil {
				fatal(err)
			}
			s.install(durable.ConcurrentStore, durable, nil, *slow)
			return func() {
				if err := durable.Checkpoint(); err != nil {
					logger.Error("final checkpoint", "err", err)
				} else {
					logger.Info("final checkpoint written")
				}
				if err := durable.Close(); err != nil {
					logger.Error("close", "err", err)
				}
			}
		default:
			store, err := sch.OpenConcurrentStore()
			if err != nil {
				fatal(err)
			}
			s.install(store, nil, nil, *slow)
			return nil
		}
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "indepd:", err)
	os.Exit(2)
}

// server is the shard tier: the shared surface with the store-backed API
// mounted. store and durable are nil until install runs (durable stays nil
// for an in-memory daemon); the surface's ready flag gates every
// store-backed route and also publishes the store pointers to handler
// goroutines.
type server struct {
	*surface
	sch *indep.Schema

	store    *indep.ConcurrentStore
	durable  *indep.DurableStore
	follower *indep.Follower // non-nil in replica mode: read-only, tails a primary
}

// newServer builds the shard daemon's handler; split from main so tests can
// mount it on httptest. The handler works before install: probe and
// metrics routes answer immediately, store routes 503.
func newServer(sch *indep.Schema, logger *slog.Logger, pprofOn bool, rec obs.RecorderOptions) *server {
	s := &server{surface: newSurface(logger, pprofOn, rec), sch: sch}
	s.api("POST /insert", s.handleInsert)
	s.api("POST /batch", s.handleBatch)
	s.api("POST /batchbin", s.handleBatchBin)
	s.api("DELETE /tuple", s.handleDelete)
	s.api("POST /checkpoint", s.handleCheckpoint)
	s.api("GET /window", s.handleWindow)
	s.api("GET /cluster/rel", s.handleClusterRel)
	s.api("GET /state", s.handleState)
	s.api("GET /analysis", s.handleAnalysis)
	s.api("GET /stats", s.handleStats)
	// Replication stream: followers poll these at up to per-millisecond
	// rates, so they log at Debug like the probe routes.
	s.route(slog.LevelDebug, "GET /v1/repl/wal", s.whenReady(s.handleReplWal))
	s.route(slog.LevelDebug, "GET /v1/repl/snapshot", s.whenReady(s.handleReplSnapshot))
	return s
}

// install wires the opened store into the server: telemetry (slow-operation
// log with trace IDs), metric registration, and the readiness flip. Runs
// once, after recovery, before any store-backed route answers. In replica
// mode follower wraps the same durable store and adds the stream metrics.
func (s *server) install(store *indep.ConcurrentStore, durable *indep.DurableStore, follower *indep.Follower, slow time.Duration) {
	store.SetTelemetry(s.log, slow)
	s.store, s.durable, s.follower = store, durable, follower
	switch {
	case follower != nil:
		follower.RegisterMetrics(s.reg)
	case durable != nil:
		durable.RegisterMetrics(s.reg)
	default:
		store.RegisterMetrics(s.reg)
	}
	s.ready.Store(true)
	s.log.Info("ready", "fastPath", store.FastPath(), "durable", durable != nil,
		"replica", follower != nil)
}

// tupleReq is the body of /insert and /tuple.
type tupleReq struct {
	Relation string            `json:"relation"`
	Row      map[string]string `json:"row"`
}

// batchReq is the body of /batch.
type batchReq struct {
	Ops []tupleReq `json:"ops"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeErr maps an error to 409 for constraint rejections, 503 when the
// write-ahead log could not persist an admitted write (the store needs
// operator attention), 500 when the chase ran out of budget (a server-side
// limit, not the client's fault), and 400 for malformed requests.
func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case indep.Rejected(err):
		code = http.StatusConflict
	case indep.DurabilityFailed(err):
		code = http.StatusServiceUnavailable
	case indep.Overloaded(err):
		code = http.StatusInternalServerError
	}
	writeJSON(w, code, map[string]any{
		"error":    err.Error(),
		"rejected": indep.Rejected(err),
	})
}

// maxBodyBytes bounds request bodies; a /batch of tens of thousands of rows
// fits comfortably, a streamed multi-GB body does not.
const maxBodyBytes = 16 << 20

func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad JSON: " + err.Error()})
		return false
	}
	return true
}

func (s *server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if s.readOnly(w) {
		return
	}
	var req tupleReq
	if !decode(w, r, &req) {
		return
	}
	if err := s.store.InsertCtx(r.Context(), req.Relation, req.Row); err != nil {
		writeErr(w, err)
		return
	}
	s.noteVersion(w)
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.readOnly(w) {
		return
	}
	var req batchReq
	if !decode(w, r, &req) {
		return
	}
	ops := make([]indep.BatchOp, len(req.Ops))
	for i, op := range req.Ops {
		ops[i] = indep.BatchOp{Rel: op.Relation, Row: op.Row}
	}
	if err := s.store.InsertBatchCtx(r.Context(), ops); err != nil {
		writeErr(w, err)
		return
	}
	s.noteVersion(w)
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "accepted": len(ops)})
}

// handleBatchBin ingests a length-prefixed binary batch (the payload a
// indep.BinBatchEncoder builds): WAL record frames, decoded and applied
// atomically without touching encoding/json anywhere on the path — the
// response is written literally too. With ?partial=1 — the mode a cluster
// router forwards sub-batches in — operations apply individually in frame
// order and the response is the per-op indep.BatchReport: rejections ride
// inside a 200 instead of aborting the batch, because a batch split across
// shards cannot be atomic anyway.
func (s *server) handleBatchBin(w http.ResponseWriter, r *http.Request) {
	if s.readOnly(w) {
		return
	}
	partial := false
	if p := r.URL.Query().Get("partial"); p != "" {
		b, err := strconv.ParseBool(p)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad partial parameter " + strconv.Quote(p)})
			return
		}
		partial = b
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	payload, err := io.ReadAll(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad body: " + err.Error()})
		return
	}
	if partial {
		rep, err := s.store.ApplyBinBatchPartial(r.Context(), payload)
		if err != nil {
			writeErr(w, err)
			return
		}
		s.noteVersion(w)
		writeJSON(w, http.StatusOK, rep)
		return
	}
	n, err := s.store.ApplyBinBatch(r.Context(), payload)
	if err != nil {
		writeErr(w, err)
		return
	}
	s.noteVersion(w)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, `{"status":"ok","accepted":%d}`+"\n", n)
}

// handleClusterRel serves the shard's raw fragment of one relation as the
// binary window encoding — what a cluster router gathers before evaluating
// a scattered window. The fragment is a consistent snapshot of this shard.
func (s *server) handleClusterRel(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "missing name parameter (e.g. ?name=CT)"})
		return
	}
	data, err := s.store.RelationBinary(name)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	w.Header().Set("Content-Type", indep.BinContentType)
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if s.readOnly(w) {
		return
	}
	var req tupleReq
	if !decode(w, r, &req) {
		return
	}
	deleted, err := s.store.DeleteCtx(r.Context(), req.Relation, req.Row)
	if err != nil {
		writeErr(w, err)
		return
	}
	s.noteVersion(w)
	writeJSON(w, http.StatusOK, map[string]any{"deleted": deleted})
}

func (s *server) handleWindow(w http.ResponseWriter, r *http.Request) {
	if !s.waitMinVersion(w, r) {
		return
	}
	serveWindow(w, r, s.store.QueryCtx, writeErr)
}

func (s *server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.readOnly(w) {
		return
	}
	if s.durable == nil {
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": "store is not durable; start indepd with -data"})
		return
	}
	start := time.Now()
	if err := s.durable.Checkpoint(); err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		return
	}
	st := s.durable.WAL()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"elapsedNs":  time.Since(start).Nanoseconds(),
		"walBytes":   st.TotalBytes,
		"walSegment": st.ActiveSeq,
	})
}

func (s *server) handleState(w http.ResponseWriter, r *http.Request) {
	if !s.waitMinVersion(w, r) {
		return
	}
	snap := s.store.Snapshot()
	rels := make(map[string][]map[string]string, len(s.sch.Relations()))
	for _, name := range s.sch.Relations() {
		rows, err := snap.Tuples(name)
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
			return
		}
		rels[name] = rows
	}
	writeJSON(w, http.StatusOK, map[string]any{"rows": snap.Rows(), "relations": rels})
}

func (s *server) handleAnalysis(w http.ResponseWriter, r *http.Request) {
	a := s.store.Analysis()
	writeJSON(w, http.StatusOK, map[string]any{
		"independent":    a.Independent,
		"reason":         a.Reason,
		"fastPath":       s.store.FastPath(),
		"relationCovers": a.RelationCovers,
		"summary":        a.Summary(),
	})
}

// handleStats reports what /metrics does not carry: per-relation counters
// keyed by relation name, whether the store is durable, and the node's
// replication role (with, on a primary, its flushed position). WAL, query
// and commit-wait figures live only in /metrics.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	stats := s.store.Stats()
	rels := make([]map[string]any, len(stats))
	for i, st := range stats {
		rels[i] = map[string]any{
			"relation": st.Relation,
			"tuples":   st.Tuples,
			"inserts":  st.Inserts,
			"rejects":  st.Rejects,
			"deletes":  st.Deletes,
			"p50Ns":    st.P50.Nanoseconds(),
			"p90Ns":    st.P90.Nanoseconds(),
			"p99Ns":    st.P99.Nanoseconds(),
			"p999Ns":   st.P999.Nanoseconds(),
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"relations":   rels,
		"durable":     s.durable != nil,
		"replication": s.replStatsSection(),
	})
}
