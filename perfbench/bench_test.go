package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"indep"
)

// Self-tests of the benchmark itself: reproducible inputs, metric names
// that match BENCHMARK.json, a verifier that catches wrong answers, and the
// /proc readers. Run with `go test` in this directory.

func TestSameSeedSamePayloads(t *testing.T) {
	star, err := starSpace()
	if err != nil {
		t.Fatal(err)
	}
	chain, err := chainSpace(64)
	if err != nil {
		t.Fatal(err)
	}
	bp := bulkDefaults
	bp.SegmentTuples = 4000
	rp := routedDefaults
	rp.SegmentTuples = 4000
	ap := appDefaults
	ap.WritesPerS, ap.ReadsPerS = 50, 10

	render := func(seed int64) []byte {
		var buf bytes.Buffer
		bq, err := genBulk(star, seed, bp)
		if err != nil {
			t.Fatal(err)
		}
		rq, err := genRouted(chain, seed, rp)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range append(bq, rq...) {
			for _, b := range q {
				fmt.Fprintf(&buf, "%v %v|", b.conflict, b.rejected)
				buf.Write(b.payload)
			}
		}
		g, err := genApp(star, seed, 1, ap)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range g.writes {
			fmt.Fprintf(&buf, "%s %s %d %v|", w.method, w.path, w.want, w.found)
			buf.Write(w.body)
		}
		for _, r := range g.reads {
			fmt.Fprintf(&buf, "%s %v %q|", r.path, r.binary, r.want)
		}
		fmt.Fprintf(&buf, "%v %v", g.initial, g.tail)
		return buf.Bytes()
	}
	a, b, c := render(7), render(7), render(8)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds generated the same inputs")
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, spec []struct{ Name, Unit string }) {
		if len(defs) != len(spec) {
			t.Fatalf("%s: benchmark prints %d metrics, BENCHMARK.json lists %d", what, len(defs), len(spec))
		}
		for i := range defs {
			if defs[i].name != spec[i].Name || defs[i].unit != spec[i].Unit {
				t.Errorf("%s %d: benchmark prints %s (%s), BENCHMARK.json lists %s (%s)",
					what, i, defs[i].name, defs[i].unit, spec[i].Name, spec[i].Unit)
			}
		}
	}
	same("end_to_end", e2eMetrics, spec.EndToEnd)
	same("per_layer", layerMetrics, spec.PerLayer)
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
}

func TestVerdictsFlagWrongAnswers(t *testing.T) {
	conflict := &binBatch{tups: make([]tup, 64), conflict: true}
	clean := &binBatch{tups: make([]tup, 64)}
	ok := reply{status: 200, body: []byte(`{"status":"ok","accepted":64}` + "\n")}
	refused := reply{status: 409, body: []byte(`{"error":"x","rejected":true}`)}
	if _, err := bulkVerdict(conflict, ok); err == nil {
		t.Error("an accepted planted conflict passed")
	}
	if _, err := bulkVerdict(clean, refused); err == nil {
		t.Error("a refused clean batch passed")
	}
	if n, err := bulkVerdict(clean, ok); err != nil || n != 64 {
		t.Errorf("a correct answer failed: %d %v", n, err)
	}

	routed := &binBatch{tups: make([]tup, 64), rejected: []int{9}}
	rep := func(idx int) reply {
		b, _ := json.Marshal(indep.BatchReport{Ops: 64, Processed: 64, Applied: 63,
			Rejected: []indep.OpOutcome{{Index: idx, Code: "rejected"}}})
		return reply{status: 200, body: b}
	}
	if _, err := routedVerdict(routed, rep(10)); err == nil {
		t.Error("a rejection at the wrong index passed")
	}
	if _, err := routedVerdict(routed, rep(9)); err != nil {
		t.Errorf("a correct report failed: %v", err)
	}

	del := &writeOp{kind: wDelete, want: 200, found: true}
	if err := writeVerdict(del, reply{status: 200, body: []byte(`{"deleted":false}`)}); err == nil {
		t.Error("a delete that missed a live tuple passed")
	}
	ins := &writeOp{kind: wConflict, want: 409}
	if err := writeVerdict(ins, reply{status: 200, body: []byte(`{"status":"ok"}`)}); err == nil {
		t.Error("an accepted planted conflict passed")
	}
}

// A daemon that accepts everything, planted conflicts included, must fail
// the run.
func TestPlantedWrongVerdictFailsRun(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"status":"ok","accepted":64}`)
	}))
	defer srv.Close()
	star, err := starSpace()
	if err != nil {
		t.Fatal(err)
	}
	p := bulkDefaults
	p.SegmentTuples, p.ConflictOdds = 1280, 3
	queues, err := genBulk(star, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	res := driveBatches(srv.URL, queues, 5, nil, bulkVerdict)
	out := newPhaseOut()
	res.record(out)
	if out.failed == 0 {
		t.Fatal("accepted planted conflicts were not counted as failures")
	}
	if r := newResult(out, nil, nil); r.line.Correct {
		t.Fatal("a run with wrong verdicts reported correct")
	}
}

// A daemon answering a window with a row the oracle lacks must fail the
// check, over either wire.
func TestPlantedWrongWindowFailsCheck(t *testing.T) {
	star, err := starSpace()
	if err != nil {
		t.Fatal(err)
	}
	oracle := star.sch.NewDatabase()
	fact := tup{keys: [4]int32{1, 2, 3, 4}}
	if err := oracle.Insert("FACT", star.row(fact)); err != nil {
		t.Fatal(err)
	}
	q := indep.WindowQuery{Attrs: []string{"A", "B", "C", "D"}, Where: map[string]string{"A": star.value(fact, 0)}}
	good, err := oracle.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	bad := *good
	bad.Rows = append([]map[string]string{}, good.Rows...)
	bad.Rows[0] = map[string]string{"A": good.Rows[0]["A"], "B": "B.0.99", "C": good.Rows[0]["C"], "D": good.Rows[0]["D"]}

	for _, binary := range []bool{false, true} {
		for _, answer := range []*indep.WindowResult{good, &bad} {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Header.Get("Accept") == indep.BinContentType {
					db := star.sch.NewDatabase()
					for _, row := range answer.Rows {
						db.Insert("FACT", row)
					}
					res, _ := db.Query(indep.WindowQuery{Attrs: q.Attrs, BinaryResult: true})
					w.Write(res.Bin)
					return
				}
				json.NewEncoder(w).Encode(map[string]any{"attrs": answer.Attrs, "rows": answer.Rows})
			}))
			out := newPhaseOut()
			checkWindow(out, newConn(), srv.URL, star, oracle, q, binary)
			srv.Close()
			if wrong := answer == &bad; (out.failed == 1) != wrong {
				t.Errorf("binary=%v wrong=%v: %d failed checks (%v)", binary, wrong, out.failed, out.problems)
			}
		}
	}
}

func TestProcReaders(t *testing.T) {
	stat, err := os.ReadFile("testdata/proc_stat.txt")
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := parseStatCPU(stat)
	if err != nil || cpu != 17.5 {
		t.Fatalf("utime+stime = %v, %v; want 17.5s (1500+250 ticks)", cpu, err)
	}
	status, err := os.ReadFile("testdata/proc_status.txt")
	if err != nil {
		t.Fatal(err)
	}
	hwm, err := parseStatusHWM(status)
	if err != nil || hwm != 516848<<10 {
		t.Fatalf("VmHWM = %d, %v; want %d", hwm, err, 516848<<10)
	}
	if _, err := parseStatCPU([]byte("4242 (x) S 1 2")); err == nil {
		t.Error("a truncated stat line parsed")
	}
	if _, err := parseStatusHWM([]byte("VmRSS: 1 kB\n")); err == nil {
		t.Error("a status without VmHWM parsed")
	}
}
