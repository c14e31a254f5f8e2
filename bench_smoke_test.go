// Benchmark-smoke test: scripts/bench.sh must emit parseable JSON with the
// fields the perf trajectory depends on. The test spawns a nested `go test
// -bench`, so it only runs when asked for explicitly (make benchsmoke sets
// the environment variable); plain `go test ./...` skips it.
package ispy_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

func TestBenchScriptEmitsJSON(t *testing.T) {
	if os.Getenv("ISPY_BENCH_SMOKE") == "" {
		t.Skip("spawns a nested `go test -bench`; run via `make benchsmoke` (sets ISPY_BENCH_SMOKE=1)")
	}
	// The PR label only names the throwaway file's provenance field here —
	// -o points at a temp path, so no committed baseline is touched. The
	// run still exercises the regression gate against the newest committed
	// BENCH_PR*.json (bench.sh's default), which is what makes this the
	// `make check` perf gate.
	out := filepath.Join(t.TempDir(), "bench.json")
	cmd := exec.Command("./scripts/bench.sh", "-pr", "6", "-quick", "-o", out)
	if text, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("bench.sh failed: %v\n%s", err, text)
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("bench.sh did not write %s: %v", out, err)
	}
	var f struct {
		PR              string  `json:"pr"`
		GoVersion       string  `json:"go_version"`
		FastpathSpeedup float64 `json:"fastpath_speedup"`
		AnalysisSpeedup float64 `json:"analysis_speedup"`
		Benchmarks      []struct {
			Name    string             `json:"name"`
			NsPerOp float64            `json:"ns_per_op"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, data)
	}
	if f.PR == "" || f.GoVersion == "" {
		t.Errorf("missing provenance fields: pr=%q go_version=%q", f.PR, f.GoVersion)
	}
	if len(f.Benchmarks) < 3 {
		t.Fatalf("expected at least fast-path, reference and analysis benchmarks, got %d", len(f.Benchmarks))
	}
	analysis := false
	for _, b := range f.Benchmarks {
		if b.NsPerOp <= 0 {
			t.Errorf("benchmark %q has non-positive ns/op", b.Name)
		}
		if b.Name == "AnalysisPipeline" {
			// The offline analysis reports time only; the analysis gate
			// compares its ns/op.
			analysis = true
			continue
		}
		if b.Metrics["instrs/s"] <= 0 {
			t.Errorf("benchmark %q is missing the instrs/s metric", b.Name)
		}
	}
	if !analysis {
		t.Error("the quick run lacks AnalysisPipeline, so the gate cannot watch the analysis layer")
	}
	if f.FastpathSpeedup <= 0 {
		t.Errorf("fastpath_speedup not derived (got %v)", f.FastpathSpeedup)
	}
	if f.AnalysisSpeedup <= 0 {
		t.Errorf("analysis_speedup not recorded by the gate (got %v)", f.AnalysisSpeedup)
	}
}
