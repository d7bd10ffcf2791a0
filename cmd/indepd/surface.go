package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"indep"
	"indep/internal/obs"
)

// surface is the HTTP serving surface both tiers build on: the metric
// registry, the HTTP families, the flight recorder, the mux, one request
// middleware, and the listen/signal/shutdown loop. A shard daemon (server)
// and a routing tier (routerServer) differ only in the API handlers they
// register and the close step they hand to serve.
type surface struct {
	log  *slog.Logger
	reg  *indep.MetricsRegistry
	http *httpStats
	mux  *http.ServeMux

	// ready gates every API route and flips /readyz: a shard sets it once
	// recovery has finished, a router (no recovery phase) at construction.
	ready atomic.Bool

	// rec is the always-on flight recorder; API requests run under its
	// root spans and /debug/trace serves what it retained.
	rec *obs.Recorder
}

// newSurface builds the shared surface with its unversioned probe, scrape
// and debug routes mounted. These bypass the readiness gate, log at Debug
// (a kubelet hitting /healthz every few seconds must not fill the log),
// and are never traced (reading traces must not evict traces). The literal
// /debug/trace/recent route wins over the {id} wildcard by ServeMux
// precedence.
func newSurface(logger *slog.Logger, pprofOn bool, rec obs.RecorderOptions) *surface {
	reg := indep.NewMetricsRegistry()
	s := &surface{
		log:  logger,
		reg:  reg,
		http: newHTTPStats(reg),
		mux:  http.NewServeMux(),
		rec:  obs.NewRecorder(rec),
	}
	s.rec.Register(reg)
	s.route(slog.LevelDebug, "GET /metrics", s.handleMetrics)
	s.route(slog.LevelDebug, "GET /debug/trace/recent", s.handleTraceRecent)
	s.route(slog.LevelDebug, "GET /debug/trace/{id}", s.handleTraceGet)
	s.route(slog.LevelDebug, "GET /healthz", s.handleHealthz)
	s.route(slog.LevelDebug, "GET /readyz", s.handleReadyz)
	if pprofOn {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

func (s *surface) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// api mounts an API route under /v1 only, behind the readiness gate, with
// Info-level access logging and tracing. pattern is the unversioned
// "METHOD /path" form, which is also the route's label on the
// indep_http_* series and on flight-recorder traces.
func (s *surface) api(pattern string, h http.HandlerFunc) {
	method, path, ok := strings.Cut(pattern, " ")
	if !ok {
		panic("indepd: route pattern without method: " + pattern)
	}
	s.mux.HandleFunc(method+" /v1"+path, s.wrap(slog.LevelInfo, pattern, s.whenReady(h)))
}

// route mounts pattern verbatim, labelled by itself, at the given
// access-log level.
func (s *surface) route(level slog.Level, pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, s.wrap(level, pattern, h))
}

// wrap is the request middleware, applied per route so the log and the
// metric labels carry the registered pattern rather than the raw URL
// (which may embed user data): trace header echo, access log at level,
// and the indep_http_* metrics.
//
// Info-level (API) routes additionally run under the flight recorder: the
// middleware opens the request's root span, handlers grow the span tree
// (through the store and engine on a shard), and on completion the
// recorder decides — tail-based — whether the trace is worth keeping.
// Debug-level routes (probes, scrapes, replication polls, the
// /debug/trace endpoints themselves) are never traced, so a kubelet can't
// flood the sampler.
func (s *surface) wrap(level slog.Level, route string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.http.routeHist(route)
	traced := level >= slog.LevelInfo
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		trace := requestTraceID(r)
		w.Header().Set(traceHeader, trace)
		ctx := obs.WithTrace(r.Context(), trace)
		var tr *obs.RequestTrace
		if traced {
			var root *obs.Span
			tr, root = s.rec.Start(trace, route)
			if root.Recording() {
				root.SetAttr("method", r.Method)
				ctx = obs.ContextWithSpan(ctx, root)
			}
		}
		sw := &statusWriter{ResponseWriter: w}
		s.http.inflight.Add(1)
		h(sw, r.WithContext(ctx))
		s.http.inflight.Add(-1)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		d := time.Since(start)
		if tr != nil {
			root := tr.Root()
			root.SetInt("status", int64(sw.status))
			root.SetInt("resp_bytes", sw.bytes)
			s.rec.Finish(tr, sw.status)
		}
		s.http.note(route, r.Method, sw.status, d, hist)
		s.log.Log(r.Context(), level, "request",
			"trace", trace,
			"method", r.Method,
			"route", route,
			"status", sw.status,
			"bytes", sw.bytes,
			"duration", d)
	}
}

// whenReady answers 503 until ready is set. On a shard the atomic.Bool is
// also the publication barrier for the store pointers: install writes them
// before the Store(true), handlers read them only after Load() observes
// true.
func (s *surface) whenReady(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			writeJSON(w, http.StatusServiceUnavailable,
				map[string]any{"error": "store is recovering; try again shortly"})
			return
		}
		h(w, r)
	}
}

// serve runs a tier to completion. The listener comes up before open
// runs, so /healthz and /readyz answer while a shard replays a large
// write-ahead log and an orchestrator can tell "starting" from "dead".
// open returns the tier's close step (nil for none), which runs after
// SIGINT/SIGTERM has drained the listener; ctx is canceled at the same
// point, stopping whatever open left running in the background.
func (s *surface) serve(addr string, open func(ctx context.Context) (closeStep func())) {
	srv := &http.Server{
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	s.log.Info("listening", "addr", ln.Addr().String())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	life, cancel := context.WithCancel(context.Background())
	defer cancel()
	closeStep := open(life)

	ctx, stop := signal.NotifyContext(life, os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	// Restore default signal behavior immediately: a second SIGINT/SIGTERM
	// during a slow drain or a hung final checkpoint must still kill us.
	stop()
	cancel()
	s.log.Info("shutting down")
	shutCtx, cancelShut := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancelShut()
	if err := srv.Shutdown(shutCtx); err != nil {
		s.log.Warn("shutdown", "err", err)
	}
	if closeStep != nil {
		closeStep()
	}
}

// handleMetrics serves the registry in Prometheus text exposition format
// 0.0.4. Works before readiness: store families appear once a shard has
// registered them, HTTP families from the first request on.
func (s *surface) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteTo(w)
}

// handleHealthz is process liveness: 200 as soon as the listener accepts,
// even while recovery replays the log.
func (s *surface) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleReadyz is readiness: 503 until ready is set, 200 afterwards.
func (s *surface) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "starting"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

// handleTraceGet serves one retained trace by ID. 404 means the ID was
// never retained (tail sampling dropped it) or has been evicted from the
// ring — not that the request never happened.
func (s *surface) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := strings.ToLower(r.PathValue("id"))
	if !indep.ValidTraceID(id) {
		writeJSON(w, http.StatusBadRequest, map[string]any{
			"error": "bad trace id (want 16 hex characters)"})
		return
	}
	tv, ok := s.rec.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]any{
			"error": "trace not retained (sampled out or evicted)"})
		return
	}
	writeJSON(w, http.StatusOK, tv)
}

// handleTraceRecent lists retained traces, newest first:
//
//	min_ms=50          only traces lasting at least 50ms
//	route=POST /insert only traces of that route
//	limit=20           cap the listing (default 50)
func (s *surface) handleTraceRecent(w http.ResponseWriter, r *http.Request) {
	vals := r.URL.Query()
	var minDur time.Duration
	if m := vals.Get("min_ms"); m != "" {
		ms, err := strconv.ParseFloat(m, 64)
		if err != nil || ms < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": fmt.Sprintf("bad min_ms parameter %q", m)})
			return
		}
		minDur = time.Duration(ms * float64(time.Millisecond))
	}
	limit := 50
	if l := vals.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n <= 0 {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": fmt.Sprintf("bad limit parameter %q", l)})
			return
		}
		limit = n
	}
	traces := s.rec.Recent(minDur, vals.Get("route"), limit)
	writeJSON(w, http.StatusOK, map[string]any{
		"count":  len(traces),
		"traces": traces,
	})
}

// parseWindowQuery decodes the /window query parameters:
//
//	attrs=C,T        window attribute set X (required; ',' or space separated)
//	where=C=cs101    equality selection on a window attribute (repeatable)
//	project=T        project the result onto a subset of attrs
//	limit=10         cap the number of returned rows
//
// It validates only shape (presence, separators, integer limit); attribute
// and value resolution happens in the evaluator, which reports unknown
// names.
func parseWindowQuery(vals url.Values) (indep.WindowQuery, error) {
	var q indep.WindowQuery
	split := func(s string) []string {
		return strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' })
	}
	q.Attrs = split(vals.Get("attrs"))
	if len(q.Attrs) == 0 {
		return q, fmt.Errorf("missing attrs parameter (e.g. ?attrs=C,T)")
	}
	q.Project = split(vals.Get("project"))
	for _, w := range vals["where"] {
		attr, val, ok := strings.Cut(w, "=")
		if !ok || attr == "" {
			return q, fmt.Errorf("bad where parameter %q (want attr=value)", w)
		}
		if q.Where == nil {
			q.Where = make(map[string]string)
		}
		if prev, dup := q.Where[attr]; dup && prev != val {
			return q, fmt.Errorf("conflicting where parameters for %s", attr)
		}
		q.Where[attr] = val
	}
	if l := vals.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n < 0 {
			return q, fmt.Errorf("bad limit parameter %q", l)
		}
		q.Limit = n
	}
	if e := vals.Get("explain"); e != "" {
		b, err := strconv.ParseBool(e)
		if err != nil {
			return q, fmt.Errorf("bad explain parameter %q (want a boolean, e.g. explain=1)", e)
		}
		q.Explain = b
	}
	return q, nil
}

// serveWindow answers GET /window for either tier: it parses the query,
// runs eval, and writes the result. A client accepting the binary media
// type gets the IWIN1 body (no rendered row maps, no JSON encode, counts
// carried in-band); everyone else gets JSON. fail writes eval's errors.
func serveWindow(w http.ResponseWriter, r *http.Request,
	eval func(context.Context, indep.WindowQuery) (*indep.WindowResult, error),
	fail func(http.ResponseWriter, error)) {
	q, err := parseWindowQuery(r.URL.Query())
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	q.BinaryResult = strings.Contains(r.Header.Get("Accept"), indep.BinContentType)
	start := time.Now()
	res, err := eval(r.Context(), q)
	if err != nil {
		fail(w, err)
		return
	}
	if q.BinaryResult {
		w.Header().Set("Content-Type", indep.BinContentType)
		w.WriteHeader(http.StatusOK)
		w.Write(res.Bin)
		return
	}
	rows := res.Rows
	if rows == nil {
		rows = []map[string]string{}
	}
	body := map[string]any{
		"attrs":      res.Attrs,
		"rows":       rows,
		"rowCount":   len(rows),
		"total":      res.Total,
		"fastPath":   res.FastPath,
		"planCached": res.PlanCached,
		"elapsedNs":  time.Since(start).Nanoseconds(),
	}
	if res.Explain != nil {
		body["explain"] = res.Explain
	}
	writeJSON(w, http.StatusOK, body)
}
