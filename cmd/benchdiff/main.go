// Command benchdiff is the CI benchmark-regression gate: it compares a
// fresh benchmark run against the committed BENCH_*.json floors and fails
// on a real regression, so a PR cannot quietly lose the performance a
// previous PR paid for.
//
// Usage:
//
//	go test -bench 'GuardInsert$' -benchmem . > bench.txt
//	go run ./cmd/indepbench -engine -shape star -n 200000 -batch 64 -workers 4 -json > engine.json
//	go run ./cmd/benchdiff -floors BENCH_10.json -bench bench.txt -engine engine.json
//
// Two floors are enforced (the two numbers every perf PR has fought for):
//
//   - BenchmarkGuardInsert ns/op, parsed from the -benchmem text output.
//     More than -threshold slower than the floor fails the gate.
//   - indepbench -engine writeTuplesPerSec, read from the -json report.
//     More than -threshold below the floor fails the gate.
//
// Alloc counts are compared warn-only: allocation regressions are worth a
// log line, but CI boxes disagree about them too often to hard-fail on.
// The floors come from the newest committed BENCH_*.json's "after" values,
// so raising a floor is an explicit, reviewed act of recording a new
// benchmark file — not a side effect of a lucky CI run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// floorsFile is the slice of BENCH_*.json benchdiff reads: the two
// enforced entries' "after" objects. Extra entries and fields are ignored.
type floorsFile struct {
	Issue      int `json:"issue"`
	Benchmarks map[string]struct {
		After map[string]float64 `json:"after"`
	} `json:"benchmarks"`
}

// engineReport is the slice of indepbench -json benchdiff reads.
type engineReport struct {
	WriteTPS    float64 `json:"writeTuplesPerSec"`
	AllocsPerOp float64 `json:"allocsPerOp"`
}

const (
	guardKey  = "BenchmarkGuardInsert"
	ingestKey = "indepbench -engine writeTuplesPerSec"
)

func main() {
	floorsPath := flag.String("floors", "", "committed BENCH_*.json with the floors (benchmarks.*.after)")
	benchPath := flag.String("bench", "", "go test -bench -benchmem text output containing BenchmarkGuardInsert")
	enginePath := flag.String("engine", "", "indepbench -engine -json report")
	threshold := flag.Float64("threshold", 0.25, "fractional regression that fails the gate")
	flag.Parse()
	if *floorsPath == "" || *benchPath == "" || *enginePath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -floors, -bench and -engine are all required")
		os.Exit(2)
	}
	failures, err := run(*floorsPath, *benchPath, *enginePath, *threshold, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d floor(s) regressed more than %.0f%%\n", failures, *threshold*100)
		os.Exit(1)
	}
}

// run performs the comparison and returns the number of hard failures.
// Configuration errors (missing files, missing floors, unparseable input)
// are returned as errors: a gate that cannot read its floors must not
// pass silently.
func run(floorsPath, benchPath, enginePath string, threshold float64, out io.Writer) (int, error) {
	floors, err := loadFloors(floorsPath)
	if err != nil {
		return 0, err
	}
	guardNs, guardAllocs, err := parseGuardBench(benchPath)
	if err != nil {
		return 0, err
	}
	engine, err := loadEngine(enginePath)
	if err != nil {
		return 0, err
	}

	failures := 0
	check := func(name string, floor, got float64, lowerIsBetter bool, unit string) {
		var regressed float64 // fraction worse than the floor, negative = better
		if lowerIsBetter {
			regressed = got/floor - 1
		} else {
			regressed = floor/got - 1
		}
		verdict := "ok"
		if regressed > threshold {
			verdict = "FAIL"
			failures++
		}
		fmt.Fprintf(out, "%-4s %-40s floor %.0f %s, got %.0f %s (%+.1f%%)\n",
			verdict, name, floor, unit, got, unit, regressed*100)
	}
	guardFloor, ok := floors.Benchmarks[guardKey]
	if !ok || guardFloor.After["ns_op"] == 0 {
		return 0, fmt.Errorf("%s: no %s ns_op floor", floorsPath, guardKey)
	}
	check(guardKey+" ns/op", guardFloor.After["ns_op"], guardNs, true, "ns")

	ingestFloor, ok := floors.Benchmarks[ingestKey]
	if !ok || ingestFloor.After["tuples_per_sec"] == 0 {
		return 0, fmt.Errorf("%s: no %q tuples_per_sec floor", floorsPath, ingestKey)
	}
	check("engine ingest tuples/s", ingestFloor.After["tuples_per_sec"], engine.WriteTPS, false, "t/s")

	// Alloc comparisons never fail the gate, but a regression is printed
	// loudly enough to read in the job log.
	warnAllocs := func(name string, floor, got float64) {
		if floor > 0 && got > floor*(1+threshold) {
			fmt.Fprintf(out, "warn %-40s allocs/op %.1f exceeds floor %.1f (not fatal)\n", name, got, floor)
		}
	}
	warnAllocs(guardKey, guardFloor.After["allocs_op"], guardAllocs)
	warnAllocs("engine ingest", ingestFloor.After["allocs_op"], engine.AllocsPerOp)
	return failures, nil
}

func loadFloors(path string) (*floorsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f floorsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func loadEngine(path string) (*engineReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r engineReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.WriteTPS == 0 {
		return nil, fmt.Errorf("%s: no writeTuplesPerSec (is this an -engine -json report?)", path)
	}
	return &r, nil
}

// parseGuardBench pulls ns/op and allocs/op for BenchmarkGuardInsert out
// of `go test -bench -benchmem` text output. Lines look like:
//
//	BenchmarkGuardInsert \t 4907958 \t 933.9 ns/op \t 331 B/op \t 0 allocs/op
func parseGuardBench(path string) (nsOp, allocsOp float64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		// Exact benchmark, any GOMAXPROCS suffix; not sub-benchmarks.
		name, _, _ := strings.Cut(fields[0], "-")
		if name != "BenchmarkGuardInsert" {
			continue
		}
		for i := 1; i < len(fields)-1; i++ {
			v, convErr := strconv.ParseFloat(fields[i], 64)
			if convErr != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				nsOp = v
			case "allocs/op":
				allocsOp = v
			}
		}
		if nsOp > 0 {
			return nsOp, allocsOp, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	return 0, 0, fmt.Errorf("%s: no BenchmarkGuardInsert ns/op line found", path)
}
