// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload in process against the public APIs of internal/experiments and
// internal/server (driven through httptest), checks every output against a
// reference, and prints the metrics as one JSON object on the last line of
// standard output. See README.md in this directory.
//
//	bash _perfbench/run.sh --workload fig10-cold --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"ispy/internal/experiments"
	"ispy/internal/traffic"
	"ispy/internal/workload"
)

// options configure one run.
type options struct {
	workload string
	seed     uint64
	dur      time.Duration
	trace    bool
	setups   int

	fig10     experiments.Config // the timed regeneration
	fig10Warm experiments.Config // the set-up warm-up regeneration
	analyze   budget             // analyze-warm requests
	scenario  budget             // scenario-fresh requests and fill

	stored    bool // references come from refs.json
	recompute bool // also recompute a seeded sample without a cache
}

// defaultOptions are the budgets BENCHMARK.json's workloads run at.
func defaultOptions() options {
	fig := experiments.DefaultConfig()
	fig.Parallel = false
	warm := fig.WithMeasureInstrs(100_000)
	return options{
		setups:    3,
		fig10:     fig,
		fig10Warm: warm,
		analyze:   serverBudget(0),
		scenario:  serverBudget(1_000_000),
		stored:    true,
	}
}

var workloads = map[string]func(*options, *checker, string) (*outcome, error){
	"fig10-cold":     fig10Cold,
	"analyze-warm":   analyzeWarm,
	"scenario-fresh": scenarioFresh,
}

func main() {
	name := flag.String("workload", "", "workload: fig10-cold, analyze-warm or scenario-fresh")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "length of the timed region in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	writeRefs := flag.Bool("write-refs", false, "recompute refs.json for the default seed and write it to _perfbench/refs.json")
	selftest := flag.Bool("selftest", false, "run the reduced-budget self-test of all three workloads")
	flag.Parse()

	switch {
	case *selftest:
		os.Exit(runSelftest())
	case *writeRefs:
		if err := writeRefFile(filepath.Join("_perfbench", "refs.json")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	o := defaultOptions()
	o.workload, o.seed, o.trace = *name, *seed, *trace == 1
	o.dur = time.Duration(*seconds * float64(time.Second))
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(&o, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout, &o)
}

// result is one run's verdict and metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string // human-readable lines printed above the JSON
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run runs one workload. corrupt, when set, replaces that reference digest
// with a wrong one (the self-test's proof that the checker bites).
func run(o *options, corrupt func(map[string]string)) (*result, error) {
	wl := workloads[o.workload]
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q (want fig10-cold, analyze-warm or scenario-fresh)", o.workload)
	}
	refs, err := storedRefs()
	if err != nil {
		return nil, err
	}
	want := map[string]string{}
	if o.stored {
		for k, v := range refs.Digests {
			want[k] = v
		}
		o.recompute = o.seed != refs.Seed
	} else if want, err = computeRefs(o); err != nil {
		return nil, err
	}
	if corrupt != nil {
		corrupt(want)
	}
	chk := &checker{want: want}

	root := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	out, err := wl(o, chk, dir)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: chk.attempted, Failed: chk.failed, Correct: chk.failed == 0, Metrics: map[string]metric{}}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	if o.trace {
		res.layerMetrics(o, out)
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := out.t.write(path); err != nil {
			return nil, err
		}
		res.notes = append(res.notes, "spans written to "+path)
	} else {
		res.endToEnd(o, out)
	}
	return res, nil
}

// computeRefs recomputes, without a cache, the references a reduced-budget
// run needs before it starts (scenario bodies are sampled after the run).
func computeRefs(o *options) (map[string]string, error) {
	want := map[string]string{}
	switch o.workload {
	case "fig10-cold":
		s, err := labFig10(o.fig10)
		if err != nil {
			return nil, err
		}
		want["fig10"] = digest([]byte(s))
	case "analyze-warm", "scenario-fresh":
		prefix, b := "analyze/", o.analyze
		if o.workload == "scenario-fresh" {
			prefix, b = "fill/", o.scenario
		}
		for _, app := range workload.AppNames {
			body, err := labAnalyze(app, b)
			if err != nil {
				return nil, err
			}
			want[prefix+app] = digest(body)
		}
	}
	return want, nil
}

// percentile is the nearest-rank percentile of ds in milliseconds.
func percentile(ds []time.Duration, p float64) float64 {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i].Nanoseconds()) / 1e6
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// opNames give each workload's end-to-end metrics the names the README
// uses for them.
var opNames = map[string][4]string{
	"fig10-cold":     {"fig10_s", "fig10_s", "fig10_per_s", "fig10_s"},
	"analyze-warm":   {"analyze_p50_ms", "analyze_p90_ms", "analyze_rps", "analyze_cold_p50_ms"},
	"scenario-fresh": {"scenario_p50_ms", "scenario_p90_ms", "scenario_rps", "fill_cold_p50_ms"},
}

func (r *result) endToEnd(o *options, out *outcome) {
	n := len(out.op)
	p50 := percentile(out.op, 0.5)
	tail := percentile(out.op, out.tailP)
	rate := float64(n) / out.elapsed.Seconds()
	// fig10-cold has no separate cold pass: every regeneration is cold.
	cold, coldN := p50, n
	if len(out.cold) > 0 {
		cold, coldN = percentile(out.cold, 0.5), len(out.cold)
	}
	setup := percentile(out.setup, 0.5) / 1e3
	r.Metrics["op_p50_ms"] = metric{p50, "ms"}
	r.Metrics["op_tail_ms"] = metric{tail, "ms"}
	r.Metrics["ops_per_s"] = metric{rate, "1/s"}
	r.Metrics["cold_p50_ms"] = metric{cold, "ms"}
	r.Metrics["setup_s"] = metric{setup, "s"}
	r.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	names := opNames[o.workload]
	if n <= 10 {
		r.notes = append(r.notes, fmt.Sprintf("operations: %v", out.op))
	}
	beyond := n - int(math.Ceil(out.tailP*float64(n)))
	r.notes = append(r.notes,
		fmt.Sprintf("%-22s %12.3f ms  (op_p50_ms, n=%d)", names[0], p50, n),
		fmt.Sprintf("%-22s %12.3f ms  (op_tail_ms = p%g, n=%d, %d beyond)", names[1], tail, out.tailP*100, n, beyond),
		fmt.Sprintf("%-22s %12.4f 1/s (ops_per_s, %d clients, %.1f s)", names[2], rate, clientsFor(o), out.elapsed.Seconds()),
		fmt.Sprintf("%-22s %12.3f ms  (cold_p50_ms, n=%d)", names[3], cold, coldN),
		fmt.Sprintf("%-22s %12.4f s   (median of %d set-ups)", "setup_s", setup, len(out.setup)),
		fmt.Sprintf("%-22s %12.1f MB", "peak_rss_mb", peakRSSMB()),
	)
	// p99 is shown but not a metric: on a VM that loses the CPU to its host
	// in bursts, it moved by up to 30% between otherwise equal runs.
	if n >= 1000 {
		r.notes = append(r.notes, fmt.Sprintf("%-22s %12.3f ms  (p99, n=%d, %d beyond; not gated)",
			"p99_ms", percentile(out.op, 0.99), n, n-int(math.Ceil(0.99*float64(n)))))
	}
}

func clientsFor(o *options) int {
	if o.workload == "fig10-cold" {
		return 1
	}
	return clients
}

// spanLayers are the layer boundaries the traced run records, in report
// order; each yields <name>_ms (self time per traced operation) and
// <name>_share_pct (share of the traced wall time).
var spanLayers = []string{
	"workload.generate",
	"profile.collect", "profile.label",
	"core.select", "core.discover", "core.plan",
	"asmdb.build",
	"sim.base", "sim.ideal", "sim.asmdb", "sim.ispy", "sim.scenario",
	"traffic.compose", "traffic.world",
	"artifacts.load", "artifacts.store",
	"server.self",
}

func (r *result) layerMetrics(o *options, out *outcome) {
	t := out.t
	self, incl, top := t.layerTimes()
	self["server.self"] = self["server.request"]
	wall := float64(t.wall.Nanoseconds()) / 1e6
	ops := float64(len(out.traced))
	set := func(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	simMS := 0.0
	for _, l := range spanLayers {
		set(l+"_ms", self[l]/ops, "ms")
		set(l+"_share_pct", 100*ratio(self[l], wall), "%")
		if len(l) > 4 && l[:4] == "sim." {
			simMS += self[l]
		}
	}
	set("server.request_ms", incl["server.request"]/ops, "ms")
	c := t.counts
	set("workload.generate_calls", c["workload.generate_calls"]/ops, "count")
	set("profile.labeled_snapshots", c["profile.labeled_snapshots"]/ops, "count")
	set("core.discover_calls", c["core.discover_calls"]/ops, "count")
	set("core.discover_adopted_ratio", ratio(c["core.discover_adopted"], c["core.discover_calls"]), "ratio")
	set("sim.minstrs_per_s", ratio(c["sim.instrs"]/1e6, simMS/1e3), "Minstr/s")
	set("artifacts.hit_ratio", ratio(c["artifacts.hits"], c["artifacts.loads"]), "ratio")
	set("artifacts.read_bytes", c["artifacts.read_bytes"]/ops, "bytes")
	set("artifacts.write_bytes", c["artifacts.write_bytes"]/ops, "bytes")
	var m model
	if out.model != nil {
		m = *out.model
	}
	set("model.ispy_speedup_pct", m.speedup, "%")
	set("model.ispy_pct_of_ideal", m.pctOfIdeal, "%")
	set("model.ispy_vs_asmdb_pct", m.vsAsmdb, "%")
	untracedMS, tracedMS := percentile(out.op, 0.5), percentile(out.traced, 0.5)
	set("bench.trace_overhead_pct", 100*(tracedMS-untracedMS)/untracedMS, "%")
	set("bench.unattributed_pct", 100*ratio(wall-top, wall), "%")
	set("bench.error_rate", ratio(float64(r.Failed), float64(r.Attempted)), "ratio")

	r.notes = append(r.notes, fmt.Sprintf("traced: %d operations, %.1f ms wall over %d client timelines; untraced median %.3f ms, traced median %.3f ms",
		len(out.traced), wall, clientsFor(o), untracedMS, tracedMS))
	for _, l := range spanLayers {
		if self[l] != 0 {
			r.notes = append(r.notes, fmt.Sprintf("  %-20s %10.3f ms/op  %6.2f%%", l, self[l]/ops, 100*ratio(self[l], wall)))
		}
	}
	r.notes = append(r.notes, fmt.Sprintf("  %-20s %10.3f ms/op  %6.2f%%", "(unattributed)", (wall-top)/ops, 100*ratio(wall-top, wall)))
	if out.model != nil {
		r.notes = append(r.notes, fmt.Sprintf("model: I-SPY speedup %.1f%% (paper 15.5%%), %.1f%% of ideal (paper 90.4%%), %.1f%% better than AsmDB (paper 22.4%%)",
			m.speedup, m.pctOfIdeal, m.vsAsmdb))
	}
}

func (r *result) print(f *os.File, o *options) {
	fmt.Fprintf(f, "workload %s seed %d trace %v: attempted %d failed %d\n", o.workload, o.seed, o.trace, r.Attempted, r.Failed)
	for _, n := range r.notes {
		fmt.Fprintln(f, n)
	}
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // numbers and strings always encode
	}
	fmt.Fprintln(f, string(b))
}

func parseScenario(seed uint64) (*traffic.Spec, error) {
	return traffic.ParseSpec(scenarioSpec(seed))
}
