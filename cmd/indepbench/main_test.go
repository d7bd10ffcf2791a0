package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"indep/internal/experiments"
)

// TestEngineJSONContract pins the slice of the -engine -json report that
// CI's benchdiff gate reads (writeTuplesPerSec, allocsPerOp) plus the
// fast-path flag that says the run measured the independent-schema path.
func TestEngineJSONContract(t *testing.T) {
	var out bytes.Buffer
	cfg := engineConfig{shape: "star", attrs: 25, schemes: 5, seed: 1982,
		n: 2000, batch: 64, workers: 2, jsonOut: true}
	if err := runEngine(cfg, &out); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Mode        string  `json:"mode"`
		WriteTuples int64   `json:"writeTuples"`
		WriteTPS    float64 `json:"writeTuplesPerSec"`
		AllocsPerOp float64 `json:"allocsPerOp"`
		FastPath    bool    `json:"fastPath"`
	}
	dec := json.NewDecoder(&out)
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("report is not one JSON object: %v", err)
	}
	if dec.More() {
		t.Fatal("report carries more than one JSON value")
	}
	if rep.Mode != "engine" || rep.WriteTuples != 2000 {
		t.Errorf("mode=%q writeTuples=%d, want engine/2000", rep.Mode, rep.WriteTuples)
	}
	if rep.WriteTPS <= 0 || rep.AllocsPerOp <= 0 || !rep.FastPath {
		t.Errorf("writeTuplesPerSec=%v allocsPerOp=%v fastPath=%v, want >0, >0, true",
			rep.WriteTPS, rep.AllocsPerOp, rep.FastPath)
	}
}

// TestRunExperiments checks that selected experiments print their
// reports and that an unknown id fails before anything runs.
func TestRunExperiments(t *testing.T) {
	var out bytes.Buffer
	if err := runExperiments(&out, "e1", experiments.Params{}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "== E1:") {
		t.Errorf("-exp e1 printed %q", out.String())
	}
	out.Reset()
	err := runExperiments(&out, "E1,X9", experiments.Params{})
	if err == nil || !strings.Contains(err.Error(), `"X9"`) {
		t.Fatalf("unknown experiment id: err = %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("an invalid id list still ran experiments: %q", out.String())
	}
}
