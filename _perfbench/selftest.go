package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"ispy/internal/experiments"
	"ispy/internal/workload"
)

// refSeed is the workload seed refs.json covers in full; refScenarios is
// how many requests of its scenario stream have stored digests (more than
// one run sends).
const (
	refSeed      = 1
	refScenarios = 512
)

// writeRefFile recomputes every stored reference without an artifact cache
// and writes refs.json.
func writeRefFile(path string) error {
	o := defaultOptions()
	want := map[string]string{}
	figCfg := o.fig10
	figCfg.Parallel, figCfg.Jobs = true, clients
	s, err := labFig10(figCfg)
	if err != nil {
		return err
	}
	want["fig10"] = digest([]byte(s))
	for _, app := range workload.AppNames {
		for prefix, b := range map[string]budget{"analyze/": o.analyze, "fill/": o.scenario} {
			body, err := labAnalyze(app, b)
			if err != nil {
				return err
			}
			want[prefix+app] = digest(body)
		}
	}
	seeds, _ := scenarioStream(refSeed)
	lab := experiments.NewLab(labConfig(workload.AppNames, o.scenario))
	lab.ForEachApp("reference", func(a *experiments.App) error { a.ISPY(); return nil })
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < refScenarios; i += clients {
				body, err := labScenario(lab, seeds[i], o.scenario)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				want[fmt.Sprintf("scenario/%d", seeds[i])] = digest(body)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	b, err := json.MarshalIndent(refFile{Seed: refSeed, Digests: want}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json declares.
func benchmarkMetrics() (e2e, layer map[string]string, err error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, nil, err
	}
	var f struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range f.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range f.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer, nil
}

// runSelftest runs all three workloads at reduced budgets, untraced and
// traced, with references recomputed in process. It asserts that every
// metric BENCHMARK.json names is emitted with its unit, that verification
// passes, and that a deliberately wrong reference digest is reported as a
// failure. It returns the process exit code.
func runSelftest() int {
	e2e, layer, err := benchmarkMetrics()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench selftest:", err)
		return 1
	}
	base := defaultOptions()
	base.seed, base.dur, base.setups, base.stored = 7, time.Second, 2, false
	base.fig10.Apps = []string{"wordpress", "tomcat", "verilator"}
	base.fig10 = base.fig10.WithMeasureInstrs(100_000)
	base.fig10Warm = base.fig10.WithMeasureInstrs(60_000)
	base.analyze, base.scenario = serverBudget(100_000), serverBudget(100_000)
	wrongKey := map[string]string{
		"fig10-cold":     "fig10",
		"analyze-warm":   "analyze/" + workload.AppNames[0],
		"scenario-fresh": "fill/" + workload.AppNames[0],
	}

	failures := 0
	report := func(ok bool, format string, args ...any) {
		verdict := "PASS"
		if !ok {
			verdict = "FAIL"
			failures++
		}
		fmt.Printf("%s %s\n", verdict, fmt.Sprintf(format, args...))
	}
	for _, wl := range []string{"fig10-cold", "analyze-warm", "scenario-fresh"} {
		for _, traced := range []bool{false, true} {
			o := base
			o.workload, o.trace = wl, traced
			res, err := run(&o, nil)
			if err != nil {
				report(false, "%s trace=%v: %v", wl, traced, err)
				continue
			}
			report(res.Correct && res.Failed == 0, "%s trace=%v verifies (%d attempted, %d failed)", wl, traced, res.Attempted, res.Failed)
			want := e2e
			if traced {
				want = layer
			}
			missing := 0
			for name, unit := range want {
				if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
					missing++
					fmt.Printf("  metric %s: got %+v, want unit %q\n", name, m, unit)
				}
			}
			report(missing == 0 && len(res.Metrics) == len(want), "%s trace=%v emits all %d metrics with their units", wl, traced, len(want))
		}
		o := base
		o.workload = wl
		key := wrongKey[wl]
		res, err := run(&o, func(want map[string]string) { want[key] = "0000000000000000" })
		report(err == nil && res.Failed > 0 && !res.Correct, "%s reports a wrong reference digest for %s as failures", wl, key)
	}
	if failures > 0 {
		fmt.Printf("selftest: %d checks failed\n", failures)
		return 1
	}
	fmt.Println("selftest: all checks passed")
	return 0
}
