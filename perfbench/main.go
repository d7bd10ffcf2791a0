// Command perfbench is the repository benchmark. It builds indepd from the
// checked-out tree, starts real daemons on loopback, drives them over the
// binary and JSON wires from one client process, checks every answer, and
// prints one JSON result line.
//
// Run it from the repository root through its wrapper, which builds this
// package first:
//
//	bash perfbench/run.sh --workload bulk-ingest --seed 1 --seconds 10 --trace 0
//
// Workloads: bulk-ingest (closed-loop binary batches into an in-memory
// daemon on the star schema), app-serve (open-loop JSON writes and window
// reads against a durable daemon recovered from a prebuilt directory), and
// routed-ingest (closed-loop binary batches through a cluster router over
// two shards on the 64-attribute keyed chain). With --trace 0 the result
// carries the end-to-end metrics; with --trace 1 it runs the workload
// untraced and then traced, replays the same inputs in-process through
// each layer's public functions, and carries the per-layer metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef is a metric the final JSON line carries.
type metricDef struct {
	name, unit string
}

// e2eMetrics are the end-to-end metrics every workload reports in its
// result line (--trace 0); BENCHMARK.json lists the same names. They are
// the figures that stay steady on a shared host: memory and set-up time
// barely move when the hypervisor steals CPU, neighbours contend for
// caches, or the disk is busy, while throughput, latency, and even CPU
// time per operation of these workloads swing with them.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"server_rss_mb", "MB"},
}

// tableOnlyMetrics are end-to-end metrics printed in the table but not in
// the result line: they exist on one workload only, read 0 on a correct
// run, or swing with host steal and disk contention (see e2eMetrics), and
// the result line must carry the same steady names on every workload.
var tableOnlyMetrics = []metricDef{
	{"server_cpu_us_per_op", "us"},
	{"write_tuples_per_s", "tuples/s"},
	{"write_p50_ms", "ms"},
	{"write_p90_ms", "ms"},
	{"write_p99_ms", "ms"},
	{"window_p50_ms", "ms"},
	{"window_p99_ms", "ms"},
	{"slo_miss_frac", "ratio"},
	{"failed_op_frac", "ratio"},
	{"disk_bytes_per_user_byte", "ratio"},
	{"host_steal_frac", "ratio"},
}

// layerMetrics are the per-layer metrics every workload reports in its
// result line (--trace 1); BENCHMARK.json lists the same names.
var layerMetrics = []metricDef{
	{"indepd.handler_us_per_req", "us"},
	{"indepd.outside_us_per_req", "us"},
	{"binwire.encode_ns_per_tuple", "ns"},
	{"binwire.bytes_per_tuple", "count"},
	{"binwire.decode_ns_per_tuple", "ns"},
	{"store.apply_ns_per_tuple", "ns"},
	{"store.apply_allocs_per_tuple", "count"},
	{"store.partial_ns_per_tuple", "ns"},
	{"store.rowmap_batch_ns_per_tuple", "ns"},
	{"engine.batch_ns_per_tuple", "ns"},
	{"engine.intern_ns_per_value", "ns"},
	{"engine.intern_new_ratio", "ratio"},
	{"engine.snapshot_cut_us", "us"},
	{"guard.insert_ns_per_tuple", "ns"},
	{"guard.delete_ns_per_tuple", "ns"},
	{"guard.reject_ratio", "ratio"},
	{"wal.append_us_per_commit", "us"},
	{"independence.decide_ms", "ms"},
	{"cluster.plan_placement_ms", "ms"},
	{"router.batch_us_per_tuple", "us"},
	{"router.shard_apply_us_per_tuple", "us"},
	{"router.place_ns_per_op", "ns"},
	{"router.forward_bytes_per_client_byte", "ratio"},
	{"router.subbatches_per_batch", "count"},
	{"router.shard_skew", "ratio"},
}

// env is what a workload run gets: the seed, the timing, the built daemon,
// a scratch directory, and the process set every child is registered in.
type env struct {
	ctx     context.Context
	root    string
	work    string
	bin     string
	seed    int64
	seconds int
	procs   *procSet
	clock   *stageClock
}

// phaseOut is one measured phase of a workload: the daemon(s) under load
// for the timed interval, then the checks.
type phaseOut struct {
	metrics   map[string]float64 // end-to-end metrics, by name
	attempted int64
	failed    int64
	problems  []string
	spans     *spanLog
	layer     map[string]float64 // workload-specific layer figures gathered during the phase
}

func newPhaseOut() *phaseOut {
	return &phaseOut{metrics: map[string]float64{}, layer: map[string]float64{}}
}

// check counts one verification; a false cond is a failed operation.
func (o *phaseOut) check(cond bool, format string, args ...any) {
	o.attempted++
	if !cond {
		o.failed++
		if len(o.problems) < 20 {
			o.problems = append(o.problems, fmt.Sprintf(format, args...))
		}
	}
}

// workload is one named traffic mix.
type workload interface {
	// params returns the workload's sizes, rates, limits and batch sizes.
	params() any
	// generate draws every input from the seed; nothing is timed.
	generate(e *env) error
	// start brings up a fresh deployment and returns its processes and its
	// set-up time: from spawning the servers until every /readyz answers
	// 200, not counting preparation such as copying a data directory.
	start(e *env) ([]*proc, float64, error)
	// drive runs one timed segment against a deployment from start,
	// checks every answer, and returns the segment's end-to-end metrics,
	// its measured length in segment_s included; a traced segment also
	// fills out.layer. A segment never runs past budget seconds.
	drive(e *env, ps []*proc, budget float64, spans *spanLog, out *phaseOut) (map[string]float64, error)
	// layers replays the generated inputs in-process through each layer's
	// public functions and combines them with the traced phase into the
	// per-layer metrics and the self-time ledger.
	layers(e *env, traced *phaseOut) (map[string]float64, []ledgerRow, error)
}

// ledgerRow is one row of a workload's self-time table.
type ledgerRow struct {
	path  string // "write" or "read"
	layer string
	us    float64 // self time per request
	how   string
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "bulk-ingest":
		return &bulkIngest{p: bulkDefaults}, nil
	case "app-serve":
		return &appServe{p: appDefaults}, nil
	case "routed-ingest":
		return &routedIngest{p: routedDefaults}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (bulk-ingest, app-serve, routed-ingest)", name)
}

// stageClock prints how long each stage of a run took, for whoever tunes
// the benchmark's own running time.
type stageClock struct{ last time.Time }

func (c *stageClock) done(name string) {
	now := time.Now()
	fmt.Printf("stage %-10s %.3fs\n", name, now.Sub(c.last).Seconds())
	c.last = now
}

// maxSegments bounds a run whose segments end early, such as one whose
// requests all fail at once.
const maxSegments = 50

// bestOf names the metrics that take their best segment, and whether
// higher is better.
var bestOf = map[string]bool{
	"write_tuples_per_s": true,
	"write_p50_ms":       false,
	"write_p90_ms":       false,
	"write_p99_ms":       false,
	"window_p50_ms":      false,
	"window_p99_ms":      false,
}

// measure drives fresh deployments, one segment each, until the segments
// have measured seconds in total or limit segments ran. setup_s is the
// median of their set-up times. Wall-clock figures (throughput, latency
// quantiles) take the best segment, the min-of-N rule: on a shared host,
// steal and a busy disk only ever slow a segment down, so the best one is
// the steadiest estimate of the program. Every other metric takes the
// median segment.
func measure(e *env, wl workload, seconds float64, limit int, spans *spanLog) (*phaseOut, error) {
	out := newPhaseOut()
	out.spans = spans
	per := map[string][]float64{}
	var setupTimes []float64
	steal0, total0 := hostSteal()
	var timed float64
	n := 0
	for ; timed < seconds && n < limit; n++ {
		ps, t, err := wl.start(e)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, t)
		m, err := wl.drive(e, ps, seconds, spans, out)
		for _, p := range ps {
			p.kill()
		}
		if err != nil {
			return nil, err
		}
		timed += m["segment_s"]
		for k, v := range m {
			per[k] = append(per[k], v)
		}
		printJSONLine(fmt.Sprintf("segment %d", n+1), m)
	}
	for k, v := range per {
		higher, best := bestOf[k]
		switch {
		case !best:
			out.metrics[k] = median(v)
		case higher:
			out.metrics[k] = slices.Max(v)
		default:
			out.metrics[k] = slices.Min(v)
		}
	}
	out.metrics["setup_s"] = median(setupTimes)
	delete(out.metrics, "segment_s")
	out.metrics["segments"] = float64(n)
	out.metrics["measured_s"] = timed
	if steal1, total1 := hostSteal(); total1 > total0 {
		out.metrics["host_steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}
	out.metrics["failed_op_frac"] = float64(out.failed) / float64(max(out.attempted, 1))
	e.clock.done("measure")
	return out, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "bulk-ingest, app-serve, or routed-ingest")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 10, "length of the timed interval")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	root := flag.String("root", ".", "repository root to build indepd from")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	wl, err := newWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	rootAbs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if _, err := os.Stat(filepath.Join(rootAbs, "cmd", "indepd")); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: no cmd/indepd under", rootAbs)
		return 2
	}

	if err := os.MkdirAll(filepath.Join(rootAbs, ".bench_build"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	work, err := os.MkdirTemp(filepath.Join(rootAbs, ".bench_build"), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	procs := &procSet{}
	defer os.RemoveAll(work)
	defer procs.killAll()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		// A signal must not leave daemons behind: kill them, remove the
		// scratch directory, and exit.
		<-sigs
		procs.killAll()
		os.RemoveAll(work)
		os.Exit(3)
	}()
	ctx := context.Background()

	clock := &stageClock{last: time.Now()}
	e := &env{ctx: ctx, root: rootAbs, work: work, seed: *seed, seconds: *seconds, procs: procs, clock: clock}
	e.bin, err = buildDaemon(ctx, rootAbs, work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	clock.done("build")
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *trace)
	printJSONLine("provenance", provenance(rootAbs))
	printJSONLine("params", wl.params())
	if err := wl.generate(e); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: generate:", err)
		return 2
	}
	clock.done("generate")

	var res result
	if *trace == 0 {
		out, err := measure(e, wl, float64(*seconds), maxSegments, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		printMetrics(*name, out.metrics)
		res = newResult(out, e2eMetrics, out.metrics)
	} else {
		res, err = tracedRun(e, wl, *name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
	}
	clock.done("run")
	for _, p := range res.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	line, err := json.Marshal(res.line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.line.Correct {
		return 1
	}
	return 0
}

// tracedRun measures one segment of the workload untraced and one traced,
// each on a fresh deployment, and replays its inputs in-process.
func tracedRun(e *env, wl workload, name string) (result, error) {
	half := float64(e.seconds) / 2
	plain, err := measure(e, wl, half, 1, nil)
	if err != nil {
		return result{}, err
	}
	spans := newSpanLog()
	traced, err := measure(e, wl, half, 1, spans)
	if err != nil {
		return result{}, err
	}
	layer, ledger, err := wl.layers(e, traced)
	if err != nil {
		return result{}, err
	}
	dir := filepath.Join(e.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err == nil {
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, e.seed))
		if err := spans.writeFile(path); err != nil {
			return result{}, err
		}
		fmt.Printf("spans: %d written to %s\n", len(spans.spans), path)
	}
	fmt.Println("tracing overhead (traced minus untraced median):")
	for _, m := range []string{"write_p50_ms", "write_p99_ms", "window_p50_ms", "window_p99_ms"} {
		if _, ok := plain.metrics[m]; ok {
			fmt.Printf("  %-24s untraced %-12.4f traced %-12.4f overhead %.4f ms\n", m,
				plain.metrics[m], traced.metrics[m], traced.metrics[m]-plain.metrics[m])
		}
	}
	printLedger(name, ledger)
	printLayers(name, layer)
	out := &phaseOut{
		attempted: plain.attempted + traced.attempted,
		failed:    plain.failed + traced.failed,
		problems:  append(plain.problems, traced.problems...),
	}
	return newResult(out, layerMetrics, layer), nil
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	line     resultLine
	problems []string
}

func newResult(out *phaseOut, defs []metricDef, vals map[string]float64) result {
	r := result{problems: out.problems, line: resultLine{
		Correct:   out.failed == 0,
		Attempted: max(out.attempted, 1),
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			r.line.Correct = false
			r.problems = append(r.problems, "metric not measured: "+d.name)
			continue
		}
		r.line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return r
}

func printJSONLine(label string, v any) {
	b, _ := json.Marshal(v)
	fmt.Printf("%s %s\n", label, b)
}

func printMetrics(name string, m map[string]float64) {
	fmt.Printf("end-to-end metrics (%s):\n", name)
	for _, d := range append(append([]metricDef(nil), e2eMetrics...), tableOnlyMetrics...) {
		if v, ok := m[d.name]; ok {
			fmt.Printf("  %-26s %16s %s\n", d.name, fmtNum(v), d.unit)
		}
	}
	var extra []string
	for k := range m {
		if !isDefined(k) {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Printf("  %-26s %16s\n", k, fmtNum(m[k]))
	}
}

func isDefined(name string) bool {
	for _, d := range append(append([]metricDef(nil), e2eMetrics...), tableOnlyMetrics...) {
		if d.name == name {
			return true
		}
	}
	return false
}

func printLayers(name string, m map[string]float64) {
	fmt.Printf("per-layer metrics (%s):\n", name)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-40s %s\n", k, fmtNum(m[k]))
	}
}

func printLedger(name string, rows []ledgerRow) {
	fmt.Printf("self-time ledger (%s), µs per request:\n", name)
	for _, r := range rows {
		fmt.Printf("  %-6s %-34s %12.3f  %s\n", r.path, r.layer, r.us, r.how)
	}
}

// provenance records where a result came from.
func provenance(root string) map[string]any {
	p := map[string]any{
		"nproc":     runtime.NumCPU(),
		"gomaxproc": runtime.GOMAXPROCS(0),
		"go":        runtime.Version(),
		"os":        runtime.GOOS + "/" + runtime.GOARCH,
		"time":      time.Now().UTC().Format(time.RFC3339),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	p["commit"] = commitOf(root)
	p["tree_sha256"] = treeHash(root)
	return p
}

// commitOf names the commit of the tree: git's answer when the tree itself
// is a repository (the search stops at its parent), otherwise "unknown" —
// an exported checkout has no history; tree_sha256 identifies it instead.
func commitOf(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// treeHash digests the Go sources and module file of the tree outside the
// benchmark's own and build directories, in path order.
func treeHash(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && rel != "." || rel == "perfbench") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			if data, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", rel, len(data))
				h.Write(data)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
