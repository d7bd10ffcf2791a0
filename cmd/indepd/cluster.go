package main

// The -cluster routing tier: indepd without a store of its own, splitting
// writes across shard daemons by the placement rule (see internal/cluster)
// and answering windows by scatter-gather. It is a plain stateless HTTP
// tier: run several routers over the same -shards list for availability;
// they compute identical placements.

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"indep"
	"indep/internal/cluster"
	"indep/internal/obs"
)

// routerServer is the cluster-mode handler: the shared surface with the
// write and window routes backed by a cluster.Router instead of a store,
// plus the /cluster/status and /cluster/health routes the routing tier
// adds.
type routerServer struct {
	*surface
	rt *cluster.Router
}

func newRouterServer(rt *cluster.Router, logger *slog.Logger, pprofOn bool, rec obs.RecorderOptions) *routerServer {
	s := &routerServer{surface: newSurface(logger, pprofOn, rec), rt: rt}
	rt.RegisterMetrics(s.reg)
	s.api("POST /insert", s.handleInsert)
	s.api("POST /batch", s.handleBatch)
	s.api("POST /batchbin", s.handleBatchBin)
	s.api("DELETE /tuple", s.handleDelete)
	s.api("GET /window", s.handleWindow)
	s.api("GET /cluster/status", s.handleStatus)
	s.api("GET /cluster/health", s.handleHealth)
	s.ready.Store(true) // a router has no recovery phase
	return s
}

// writeRouteErr maps router errors: an unreachable or failing shard is 503
// with Retry-After (the cluster heals by the shard coming back, not by the
// client giving up), a rejection is 409, anything else 400.
func (s *routerServer) writeRouteErr(w http.ResponseWriter, err error, extra map[string]any) {
	var se *cluster.ShardError
	if errors.As(err, &se) && !indep.Rejected(err) {
		w.Header().Set("Retry-After", "1")
		body := map[string]any{"error": err.Error(), "shard": se.Shard}
		for k, v := range extra {
			body[k] = v
		}
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeErr(w, err)
}

func (s *routerServer) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req tupleReq
	if !decode(w, r, &req) {
		return
	}
	if err := s.rt.Insert(r.Context(), req.Relation, req.Row); err != nil {
		s.writeRouteErr(w, err, nil)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

func (s *routerServer) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req tupleReq
	if !decode(w, r, &req) {
		return
	}
	if err := s.rt.Delete(r.Context(), req.Relation, req.Row); err != nil {
		s.writeRouteErr(w, err, nil)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleBatch accepts the JSON batch shape and routes it per owner. The
// response is the reassembled per-op report; unlike a single node's atomic
// /batch, rejections are per-op and do not void the rest of the batch.
func (s *routerServer) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchReq
	if !decode(w, r, &req) {
		return
	}
	enc := indep.NewBinBatchEncoder(s.rt.Schema())
	for _, op := range req.Ops {
		if err := enc.Add(op.Relation, op.Row); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
			return
		}
	}
	s.routeBatch(w, r, enc.Bytes())
}

// handleBatchBin accepts the binary batch payload and routes it per owner.
func (s *routerServer) handleBatchBin(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	payload, err := io.ReadAll(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad body: " + err.Error()})
		return
	}
	s.routeBatch(w, r, payload)
}

func (s *routerServer) routeBatch(w http.ResponseWriter, r *http.Request, payload []byte) {
	rep, err := s.rt.Batch(r.Context(), payload)
	if err != nil {
		if rep == nil {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
			return
		}
		// Some shards failed after others applied their sub-batches: report
		// what happened and let the client retry the payload — re-applies
		// are no-ops (see cluster.Options.Retries for the one exception),
		// so the retry converges.
		s.writeRouteErr(w, err, map[string]any{"report": rep})
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *routerServer) handleWindow(w http.ResponseWriter, r *http.Request) {
	serveWindow(w, r, s.rt.Window, func(w http.ResponseWriter, err error) {
		s.writeRouteErr(w, err, nil)
	})
}

func (s *routerServer) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.rt.Status())
}

// handleHealth actively probes every shard (GET /cluster/status reports
// passively observed health; this one spends round-trips).
func (s *routerServer) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"shards": s.rt.CheckHealth(r.Context())})
}

// healthLoop pings all shards on a fixed cadence so /cluster/status stays
// fresh even on an idle router; canceled by daemon shutdown.
func (s *routerServer) healthLoop(ctx context.Context, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			for _, h := range s.rt.CheckHealth(ctx) {
				if !h.Healthy {
					s.log.Warn("shard unhealthy", "shard", h.Name, "error", h.LastError,
						"failures", strconv.FormatUint(h.Failures, 10))
				}
			}
		}
	}
}
