// benchjson converts `go test -bench` text output (read from stdin) into
// the machine-readable BENCH_*.json format scripts/bench.sh emits at the
// repo root. See docs/PERFORMANCE.md for the file's schema and how to read
// it.
//
// Usage: go test -bench ... | go run ./scripts/benchjson -pr PR6 -o BENCH_PR6.json
//
// The -pr label is required (scripts/bench.sh derives it from its own
// required -pr N argument), so every baseline lands in its own
// BENCH_PR<N>.json and the per-PR trajectory accumulates instead of being
// clobbered.
//
// A second mode turns the tool into a regression gate:
//
//	go run ./scripts/benchjson -gate-old BENCH_PR3.json -gate-new fresh.json -max-loss-pct 10
//
// compares the wordpress fast-path throughput of two baseline files, and the
// AnalysisPipeline time when both files carry it, and exits 1 when the new
// one has lost more than the threshold on either — the perf regression gate
// scripts/bench.sh wires into `make check`. When both files carry
// AnalysisPipeline, gate mode also records the analysis_speedup ratio (the
// old file's median ns/op over the new one's) into the -gate-new file, so
// every baseline states its analysis speed against the one before it.
//
// Benchmark lines have the shape
//
//	BenchmarkName/sub-8   3   27948047 ns/op   76221482 instrs/s   12 B/op   4 allocs/op
//
// i.e. a name (with -GOMAXPROCS suffix), an iteration count, then
// value/unit pairs. ns/op, B/op and allocs/op get dedicated fields; every
// other unit (custom b.ReportMetric metrics such as instrs/s) lands in the
// metrics map. When both the wordpress fast-path throughput and the
// reference-kernel throughput are present, the derived fastpath_speedup
// ratio is recorded at the top level — that is the number the PR's
// acceptance criterion tracks.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// File is the emitted JSON document.
type File struct {
	PR              string      `json:"pr"`
	GoVersion       string      `json:"go_version"`
	GOOS            string      `json:"goos"`
	GOARCH          string      `json:"goarch"`
	CPU             string      `json:"cpu,omitempty"`
	FastpathSpeedup float64     `json:"fastpath_speedup,omitempty"`
	AnalysisSpeedup float64     `json:"analysis_speedup,omitempty"`
	Benchmarks      []Benchmark `json:"benchmarks"`
}

func main() {
	pr := flag.String("pr", "", "PR label recorded in the file (required, e.g. PR6)")
	out := flag.String("o", "", "output file (default stdout)")
	gateOld := flag.String("gate-old", "", "gate mode: committed baseline JSON to compare against")
	gateNew := flag.String("gate-new", "", "gate mode: freshly measured baseline JSON")
	maxLoss := flag.Float64("max-loss-pct", 10, "gate mode: max tolerated throughput loss in percent")
	flag.Parse()

	if *gateOld != "" || *gateNew != "" {
		if *gateOld == "" || *gateNew == "" {
			fmt.Fprintln(os.Stderr, "benchjson: -gate-old and -gate-new must be given together")
			os.Exit(2)
		}
		os.Exit(gate(*gateOld, *gateNew, *maxLoss))
	}
	if *pr == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -pr is required (e.g. -pr PR6); every baseline gets its own BENCH_PR<N>.json")
		os.Exit(2)
	}

	f := File{
		PR:        *pr,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu:"); ok {
			f.CPU = strings.TrimSpace(cpu)
			continue
		}
		b, ok := parseBenchLine(line)
		if ok {
			f.Benchmarks = append(f.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading stdin: %v\n", err)
		os.Exit(1)
	}
	if len(f.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}

	fast := metric(f.Benchmarks, "SimulatorThroughput/wordpress", "instrs/s")
	ref := metric(f.Benchmarks, "SimulatorReference", "instrs/s")
	if fast > 0 && ref > 0 {
		f.FastpathSpeedup = fast / ref
	}

	enc, err := encode(&f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// encode renders a baseline file the way every BENCH_PR*.json is written.
func encode(f *File) ([]byte, error) {
	enc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(enc, '\n'), nil
}

// parseBenchLine parses one "Benchmark... N val unit [val unit]..." line;
// ok is false for any line that is not a benchmark result.
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	// Strip the trailing -GOMAXPROCS suffix go test appends.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = val
		case "B/op":
			b.BytesPerOp = val
		case "allocs/op":
			b.AllocsPerOp = val
		default:
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[unit] = val
		}
	}
	return b, b.NsPerOp > 0
}

// analysisBench is the offline-analysis benchmark the gate also watches.
const analysisBench = "AnalysisPipeline"

// load reads one baseline file.
func load(path string) (File, error) {
	var f File
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("%s: %v", path, err)
	}
	return f, nil
}

// gate compares two baseline files and returns the process exit code. It
// checks the wordpress fast-path throughput and the AnalysisPipeline time,
// each only when both files carry it (an incomparable pair is not a
// regression): 0 when every comparison is within maxLoss percent, 1 on a
// real loss, 2 when a file cannot be read or written. When both files
// carry AnalysisPipeline it also records analysis_speedup (median over
// median) in the new file.
func gate(oldPath, newPath string, maxLoss float64) int {
	oldF, err := load(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: gate: %v\n", err)
		return 2
	}
	newF, err := load(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: gate: %v\n", err)
		return 2
	}
	code := 0
	oldFast := metric(oldF.Benchmarks, "SimulatorThroughput/wordpress", "instrs/s")
	newFast := metric(newF.Benchmarks, "SimulatorThroughput/wordpress", "instrs/s")
	if oldFast <= 0 || newFast <= 0 {
		fmt.Fprintf(os.Stderr, "benchjson: gate: wordpress throughput missing (%s: %.0f, %s: %.0f); skipping comparison\n",
			oldPath, oldFast, newPath, newFast)
	} else {
		lossPct := (1 - newFast/oldFast) * 100
		fmt.Fprintf(os.Stderr, "benchjson: gate: wordpress throughput %s %.3g instrs/s → %s %.3g instrs/s (%+.1f%%, limit -%.0f%%)\n",
			oldPath, oldFast, newPath, newFast, -lossPct, maxLoss)
		if lossPct > maxLoss {
			fmt.Fprintf(os.Stderr, "benchjson: gate: FAIL — throughput regressed %.1f%% (> %.0f%%)\n", lossPct, maxLoss)
			code = 1
		}
	}
	// The analysis gate compares each file's fastest repetition: machine
	// noise only ever adds time, so the minimum is the steadiest estimate
	// of the code's own cost on a shared runner.
	oldAll, newAll := nsPerOp(oldF.Benchmarks, analysisBench), nsPerOp(newF.Benchmarks, analysisBench)
	if len(oldAll) == 0 || len(newAll) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: gate: %s missing from %s or %s; skipping comparison\n",
			analysisBench, oldPath, newPath)
		return code
	}
	oldNs, newNs := oldAll[0], newAll[0]
	lossPct := (newNs/oldNs - 1) * 100
	fmt.Fprintf(os.Stderr, "benchjson: gate: %s %s %.3g ns/op → %s %.3g ns/op (%+.1f%% time, limit +%.0f%%)\n",
		analysisBench, oldPath, oldNs, newPath, newNs, lossPct, maxLoss)
	if lossPct > maxLoss {
		fmt.Fprintf(os.Stderr, "benchjson: gate: FAIL — %s slowed %.1f%% (> %.0f%%)\n", analysisBench, lossPct, maxLoss)
		code = 1
	}
	newF.AnalysisSpeedup = median(oldAll) / median(newAll)
	enc, err := encode(&newF)
	if err == nil {
		err = os.WriteFile(newPath, enc, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: gate: recording analysis_speedup: %v\n", err)
		return 2
	}
	return code
}

// median returns the middle of a sorted, non-empty slice.
func median(sorted []float64) float64 {
	return sorted[len(sorted)/2]
}

// nsPerOp returns the ns/op of every repetition of the benchmark named
// exactly name, sorted ascending.
func nsPerOp(bs []Benchmark, name string) []float64 {
	var ns []float64
	for _, b := range bs {
		if b.Name == name && b.NsPerOp > 0 {
			ns = append(ns, b.NsPerOp)
		}
	}
	sort.Float64s(ns)
	return ns
}

// metric returns the named custom metric averaged over every benchmark
// whose name contains sub (go test -count N emits one line per repetition;
// averaging them damps machine noise), or 0 when absent.
func metric(bs []Benchmark, sub, unit string) float64 {
	var sum float64
	var n int
	for _, b := range bs {
		if strings.Contains(b.Name, sub) && b.Metrics[unit] > 0 {
			sum += b.Metrics[unit]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
