// Command indepbench regenerates the experiments recorded in
// EXPERIMENTS.md — the paper's worked examples, the theorem validations
// against the chase oracle, and the complexity measurements — and, with
// -engine, times in-process ingest into the concurrent store.
//
// Usage:
//
//	indepbench                 # run every experiment
//	indepbench -exp E1,T3      # run selected experiments
//	indepbench -seed 7 -scale 50
//
//	indepbench -engine -shape star -n 200000 -batch 64 -workers 4 -json
//
// The -engine mode drives inserts through the public ConcurrentStore —
// the same per-relation lock stripes indepd serves from — and reports
// tuples/s plus per-relation latency percentiles. With -json it emits one
// JSON object instead of text, including -benchmem-style allocs/op and
// B/op (whole-process MemStats deltas divided by tuples); CI's benchdiff
// gate compares its writeTuplesPerSec against the committed BENCH_*.json
// floor.
//
// Served topologies (a daemon over either wire, a durable node with window
// reads, a sharded router) are measured by the repo benchmark in
// perfbench/, which drives indepd over HTTP and checks every answer.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"indep"
	"indep/internal/attrset"
	"indep/internal/experiments"
	"indep/internal/fd"
	"indep/internal/obs"
	"indep/internal/schema"
	"indep/internal/workload"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids (E1,E2,E3,T1,T2,T3,C1,P1,A1,M1) or 'all'")
	seed := flag.Int64("seed", 1982, "random seed")
	scale := flag.Int("scale", 0, "work scale (0 = default)")

	engine := flag.Bool("engine", false, "load-test the concurrent store instead of running experiments")
	shape := flag.String("shape", "star", "workload shape: star, chain, random")
	attrs := flag.Int("attrs", 25, "universe size of the generated schema")
	schemes := flag.Int("schemes", 5, "relation schemes (star/random)")
	n := flag.Int("n", 100000, "tuples to insert")
	batch := flag.Int("batch", 64, "tuples per InsertBatch (1 = single inserts)")
	workers := flag.Int("workers", 8, "concurrent writers")
	jsonOut := flag.Bool("json", false, "emit one JSON result object (with -benchmem-style ns/op, B/op, allocs/op) instead of text")
	flag.Parse()

	var err error
	if *engine {
		err = runEngine(engineConfig{
			shape: *shape, attrs: *attrs, schemes: *schemes, seed: *seed,
			n: *n, batch: *batch, workers: *workers,
			jsonOut: *jsonOut,
		}, os.Stdout)
	} else {
		err = runExperiments(os.Stdout, *exp, experiments.Params{Seed: *seed, Scale: *scale})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "indepbench:", err)
		os.Exit(2)
	}
}

// runExperiments writes the reports of the comma-separated experiment ids
// (or of every experiment, for "all") to w. An unknown id is an error,
// reported before any experiment runs.
func runExperiments(w io.Writer, ids string, p experiments.Params) error {
	if ids == "all" {
		_, err := io.WriteString(w, experiments.RunAll(p))
		return err
	}
	var runs []experiments.Runner
	for _, id := range strings.Split(ids, ",") {
		id = strings.TrimSpace(strings.ToUpper(id))
		run, ok := experiments.Registry[id]
		if !ok {
			return fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(experiments.Order, ","))
		}
		runs = append(runs, run)
	}
	for _, run := range runs {
		if _, err := fmt.Fprintln(w, run(p)); err != nil {
			return err
		}
	}
	return nil
}

type engineConfig struct {
	shape          string
	attrs, schemes int
	seed           int64
	n, batch       int
	workers        int
	jsonOut        bool
}

// memProbe brackets a load with runtime.MemStats reads so the report can
// carry -benchmem-style figures: whole-process Mallocs and TotalAlloc
// deltas divided by operation count. A GC before the first read drops
// setup garbage from the delta.
type memProbe struct{ m0 runtime.MemStats }

func startMemProbe() *memProbe {
	p := &memProbe{}
	runtime.GC()
	runtime.ReadMemStats(&p.m0)
	return p
}

// perOp returns (allocs/op, bytes/op) for ops operations since the probe
// started.
func (p *memProbe) perOp(ops int64) (allocs, bytes float64) {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	if ops <= 0 {
		return 0, 0
	}
	return float64(m1.Mallocs-p.m0.Mallocs) / float64(ops),
		float64(m1.TotalAlloc-p.m0.TotalAlloc) / float64(ops)
}

// benchReport is the -json output: one object per run, stable field names,
// so CI and BENCH_*.json records can diff runs mechanically.
type benchReport struct {
	Mode         string  `json:"mode"` // always "engine"
	Shape        string  `json:"shape"`
	Schemes      int     `json:"schemes"`
	Attrs        int     `json:"attrs"`
	FastPath     bool    `json:"fastPath"`
	Store        string  `json:"store"`
	Workers      int     `json:"workers"`
	Batch        int     `json:"batch"`
	WriteTuples  int64   `json:"writeTuples"`
	WriteTPS     float64 `json:"writeTuplesPerSec"`
	WriteNsPerOp float64 `json:"writeNsPerOp"`
	// MeasuredOps is the denominator of AllocsPerOp/BytesPerOp: the
	// tuples written.
	MeasuredOps int64   `json:"measuredOps"`
	AllocsPerOp float64 `json:"allocsPerOp"`
	BytesPerOp  float64 `json:"bytesPerOp"`
	ElapsedNs   int64   `json:"elapsedNs"`
	// WriteBatchLat holds log2-bucketed histogram quantiles (the same
	// obs.Histogram the store's telemetry uses) per InsertBatch call.
	WriteBatchLat *latQuantiles `json:"writeBatchLatencyNs,omitempty"`
	// Span-overhead probe: the same duplicate single-tuple insert timed
	// untraced (nil span, the pay-nothing path) and traced (recorder root
	// span per op, arena pooled, sampled out). The delta is what a
	// flight-recorder-sampled request pays per store call.
	UntracedInsertNsPerOp float64 `json:"untracedInsertNsPerOp,omitempty"`
	TracedInsertNsPerOp   float64 `json:"tracedInsertNsPerOp,omitempty"`
	SpanOverheadNsPerOp   float64 `json:"spanOverheadNsPerOp,omitempty"`
}

// latQuantiles renders a latency histogram snapshot for the JSON report.
type latQuantiles struct {
	Count  uint64 `json:"count"`
	P50Ns  int64  `json:"p50Ns"`
	P90Ns  int64  `json:"p90Ns"`
	P99Ns  int64  `json:"p99Ns"`
	P999Ns int64  `json:"p999Ns"`
}

func latFromSnapshot(s obs.HistSnapshot) *latQuantiles {
	if s.Count == 0 {
		return nil
	}
	p50, p90, p99, p999 := s.Quantiles()
	return &latQuantiles{Count: s.Count, P50Ns: p50, P90Ns: p90, P99Ns: p99, P999Ns: p999}
}

func emitJSON(w io.Writer, r benchReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// buildWorkloadSchema generates a covering schema of the requested shape
// with one key FD per multi-attribute non-fact scheme (which keeps every
// shape independent, so the benchmark exercises the fast path), then
// renders it through the public parser — the same text format indepd
// accepts.
func buildWorkloadSchema(cfg engineConfig) (*indep.Schema, error) {
	r := rand.New(rand.NewSource(cfg.seed))
	var wcfg workload.Config
	switch cfg.shape {
	case "star":
		wcfg = workload.Config{Attrs: cfg.attrs, Schemes: cfg.schemes, Shape: workload.ShapeStar}
	case "chain":
		wcfg = workload.Config{Attrs: cfg.attrs, SchemeMax: 5, Shape: workload.ShapeChain}
	case "random":
		wcfg = workload.Config{Attrs: cfg.attrs, Schemes: cfg.schemes, SchemeMax: 5, Shape: workload.ShapeRandom}
	default:
		return nil, fmt.Errorf("unknown shape %q (star, chain, random)", cfg.shape)
	}
	s, _ := workload.Schema(r, wcfg)
	var fds fd.List
	for i := range s.Rels {
		cols := s.Attrs(i).Attrs()
		if s.Name(i) == "FACT" || len(cols) < 2 {
			continue
		}
		var rhs attrset.Set
		for _, a := range cols[1:] {
			rhs.Add(a)
		}
		fds = append(fds, fd.FD{LHS: attrset.Of(cols[0]), RHS: rhs})
	}
	return indep.Parse(renderSchema(s), renderFDs(s, fds))
}

func renderSchema(s *schema.Schema) string {
	parts := make([]string, s.Size())
	for i := range parts {
		parts[i] = fmt.Sprintf("%s(%s)", s.Name(i), strings.Join(s.U.Names(s.Attrs(i)), ","))
	}
	return strings.Join(parts, "; ")
}

func renderFDs(s *schema.Schema, fds fd.List) string {
	parts := make([]string, len(fds))
	for i, f := range fds {
		parts[i] = f.Format(s.U)
	}
	return strings.Join(parts, "; ")
}

// rowFor builds the row of relation rel for a seed: every value is a pure
// function of (attribute, seed), so all FDs hold by construction and
// distinct seeds never conflict.
func rowFor(sch *indep.Schema, rel string, seed int) (map[string]string, error) {
	attrs, err := sch.RelationAttrs(rel)
	if err != nil {
		return nil, err
	}
	row := make(map[string]string, len(attrs))
	for _, a := range attrs {
		row[a] = fmt.Sprintf("%s_%d", a, seed)
	}
	return row, nil
}

// measureSpanOverhead times one duplicate single-tuple insert both untraced
// (spanless context — the pay-nothing path every unsampled request takes)
// and traced (a recorder root span opened and finished around each insert,
// the shape the daemon's middleware produces). A duplicate insert isolates
// the hot guard/commit path without growing the store between runs. The
// recorder samples everything out, so the traced loop also exercises the
// steady-state arena pooling.
func measureSpanOverhead(store *indep.ConcurrentStore, sch *indep.Schema, rels []string) (untracedNs, tracedNs float64, err error) {
	const iters = 50000
	rel := rels[0]
	row, err := rowFor(sch, rel, 0)
	if err != nil {
		return 0, 0, err
	}
	ctx := context.Background()
	if err := store.InsertCtx(ctx, rel, row); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := store.InsertCtx(ctx, rel, row); err != nil {
			return 0, 0, err
		}
	}
	untracedNs = float64(time.Since(start).Nanoseconds()) / iters

	rec := indep.NewTraceRecorder(indep.TraceRecorderOptions{Capacity: 8, Slow: -1, SampleEvery: 1 << 30})
	id := indep.NewTraceID()
	start = time.Now()
	for i := 0; i < iters; i++ {
		tr, root := rec.Start(id, "POST /insert")
		if err := store.InsertCtx(indep.ContextWithSpan(ctx, root), rel, row); err != nil {
			return 0, 0, err
		}
		rec.Finish(tr, 200)
	}
	tracedNs = float64(time.Since(start).Nanoseconds()) / iters
	return untracedNs, tracedNs, nil
}

// runEngine inserts cfg.n generated tuples into an in-memory
// ConcurrentStore from cfg.workers writers and writes the report to out.
func runEngine(cfg engineConfig, out io.Writer) error {
	sch, err := buildWorkloadSchema(cfg)
	if err != nil {
		return err
	}
	store, err := sch.OpenConcurrentStore()
	if err != nil {
		return err
	}
	const mode = "in-memory"
	rels := sch.Relations()
	if !cfg.jsonOut {
		fmt.Fprintf(out, "engine load: shape=%s schemes=%d attrs=%d fast-path=%v mode=%s\n",
			cfg.shape, len(rels), cfg.attrs, store.FastPath(), mode)
	}

	if cfg.batch < 1 {
		cfg.batch = 1
	}
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	// Split n across workers without truncation: the first n%workers
	// workers take one extra tuple, and seed ranges stay disjoint.
	starts := make([]int, cfg.workers+1)
	for w := 0; w < cfg.workers; w++ {
		count := cfg.n / cfg.workers
		if w < cfg.n%cfg.workers {
			count++
		}
		starts[w+1] = starts[w] + count
	}
	errs := make(chan error, cfg.workers)
	var writeLat obs.Histogram
	probe := startMemProbe()
	start := time.Now()
	for w := 0; w < cfg.workers; w++ {
		go func(w int) {
			base, per := starts[w], starts[w+1]-starts[w]
			for i := 0; i < per; i += cfg.batch {
				k := min(cfg.batch, per-i)
				ops := make([]indep.BatchOp, k)
				for j := range ops {
					seed := base + i + j
					rel := rels[seed%len(rels)]
					row, err := rowFor(sch, rel, seed)
					if err != nil {
						errs <- err
						return
					}
					ops[j] = indep.BatchOp{Rel: rel, Row: row}
				}
				bs := time.Now()
				if err := store.InsertBatch(ops); err != nil {
					errs <- err
					return
				}
				writeLat.ObserveSince(bs)
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < cfg.workers; w++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	total := starts[cfg.workers]
	allocsPerOp, bytesPerOp := probe.perOp(int64(total))
	untracedNs, tracedNs, err := measureSpanOverhead(store, sch, rels)
	if err != nil {
		return err
	}
	if cfg.jsonOut {
		return emitJSON(out, benchReport{
			Mode: "engine", Shape: cfg.shape, Schemes: len(rels), Attrs: cfg.attrs,
			FastPath: store.FastPath(), Store: mode,
			Workers: cfg.workers, Batch: cfg.batch,
			WriteTuples: int64(total),
			WriteTPS:    float64(total) / elapsed.Seconds(),
			WriteNsPerOp: float64(elapsed.Nanoseconds()) /
				float64(max(total, 1)),
			MeasuredOps: int64(total),
			AllocsPerOp: allocsPerOp, BytesPerOp: bytesPerOp,
			ElapsedNs:             elapsed.Nanoseconds(),
			WriteBatchLat:         latFromSnapshot(writeLat.Snapshot()),
			UntracedInsertNsPerOp: untracedNs,
			TracedInsertNsPerOp:   tracedNs,
			SpanOverheadNsPerOp:   tracedNs - untracedNs,
		})
	}
	fmt.Fprintf(out, "inserted %d tuples in %v (%.0f tuples/s) batch=%d workers=%d rows=%d (%.1f allocs/op, %.0f B/op)\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds(),
		cfg.batch, cfg.workers, store.Rows(), allocsPerOp, bytesPerOp)
	if bl := latFromSnapshot(writeLat.Snapshot()); bl != nil {
		fmt.Fprintf(out, "batch latency: p50=%v p90=%v p99=%v p999=%v (%d batches)\n",
			time.Duration(bl.P50Ns), time.Duration(bl.P90Ns),
			time.Duration(bl.P99Ns), time.Duration(bl.P999Ns), bl.Count)
	}
	fmt.Fprintf(out, "span overhead: untraced insert %.0f ns/op, traced %.0f ns/op (+%.0f ns)\n",
		untracedNs, tracedNs, tracedNs-untracedNs)

	fmt.Fprintf(out, "%-10s %10s %10s %10s %12s %12s\n", "relation", "tuples", "inserts", "rejects", "p50", "p99")
	for _, st := range store.Stats() {
		fmt.Fprintf(out, "%-10s %10d %10d %10d %12v %12v\n",
			st.Relation, st.Tuples, st.Inserts, st.Rejects, st.P50, st.P99)
	}
	return nil
}
