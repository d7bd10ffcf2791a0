package indep

import (
	"context"

	"indep/internal/obs"
)

// MetricsRegistry aliases the internal telemetry registry so callers
// outside the module can construct one, hand it to RegisterMetrics, and
// serve its Prometheus exposition (WriteTo / Expose).
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metric registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTraceID returns a fresh 16-hex-character request trace ID.
func NewTraceID() string { return obs.NewTraceID() }

// WithTrace attaches a trace ID to the context. Mutations and queries made
// through the *Ctx store methods carry it into slow-operation records and a
// durable store's fsync ack, so one grep over the structured log
// reconstructs the request's full write path.
func WithTrace(ctx context.Context, id string) context.Context {
	return obs.WithTrace(ctx, id)
}

// TraceID returns the context's trace ID, or "" when none was attached.
func TraceID(ctx context.Context) string { return obs.Trace(ctx) }

// ValidTraceID reports whether id is a well-formed trace ID: exactly 16
// lowercase hex characters, the shape NewTraceID mints.
func ValidTraceID(id string) bool { return obs.ValidTraceID(id) }

// Span aliases the internal tracing span. A nil *Span is valid and inert:
// every method no-ops, so instrumented code never branches on "is tracing
// on". Spans are created by StartSpan (or TraceRecorder.Start for the
// root) and closed with End.
type Span = obs.Span

// Trace aliases one request's span tree (see TraceRecorder).
type Trace = obs.RequestTrace

// TraceView aliases the JSON rendering of a finished trace, the shape the
// daemon's /debug/trace endpoints serve.
type TraceView = obs.TraceView

// TraceRecorder aliases the internal flight recorder: an always-on,
// lock-free ring of recently retained traces with tail-based retention
// (keep slow, errored, and rejected requests; sample the rest).
type TraceRecorder = obs.Recorder

// TraceRecorderOptions tunes NewTraceRecorder; the zero value gives the
// defaults.
type TraceRecorderOptions = obs.RecorderOptions

// NewTraceRecorder builds a flight recorder.
func NewTraceRecorder(o TraceRecorderOptions) *TraceRecorder { return obs.NewRecorder(o) }

// StartSpan opens a child of the context's active span, returning a context
// carrying the child. On a context with no active span it returns (ctx, nil)
// without allocating — tracing costs nothing unless a recorder sampled the
// request. Close the returned span with End (nil-safe).
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return obs.StartSpan(ctx, name)
}

// ContextWithSpan returns a context whose active span is s; the *Ctx store
// methods create their child spans under it.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return obs.ContextWithSpan(ctx, s)
}

// SpanFromContext returns the context's active span, or nil when the
// request is untraced.
func SpanFromContext(ctx context.Context) *Span { return obs.SpanFrom(ctx) }
