// ispy-diag is the developer diagnostics tool: side-by-side per-application
// comparisons of baseline / ideal / AsmDB / I-SPY, and residual-miss
// decomposition for the injected binary. It exposes the raw numbers the
// polished experiment harness (cmd/ispy) aggregates.
//
// Usage:
//
//	ispy-diag compare [app...]    one-line comparison per app (default: all)
//	ispy-diag residual [app...]   decompose I-SPY's remaining misses
package main

import (
	"fmt"
	"os"
	"time"

	"ispy/internal/asmdb"
	"ispy/internal/core"
	"ispy/internal/isa"
	"ispy/internal/profile"
	"ispy/internal/sim"
	"ispy/internal/workload"
)

func main() {
	cmd := "compare"
	args := os.Args[1:]
	if len(args) > 0 {
		cmd = args[0]
		args = args[1:]
	}
	apps := workload.AppNames
	if len(args) > 0 {
		apps = args
	}
	var run func(workload.Params)
	switch cmd {
	case "compare":
		run = compare
	case "residual":
		run = residual
	default:
		fmt.Fprintf(os.Stderr, "usage: ispy-diag {compare|residual} [app...]\n")
		os.Exit(2)
	}
	// Resolve every name before any work starts: an unknown app fails the
	// command with one line naming the valid presets.
	params := make([]workload.Params, len(apps))
	for i, name := range apps {
		p, err := workload.LookupParams(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ispy-diag: %v\n", err)
			os.Exit(1)
		}
		params[i] = p
	}
	for _, p := range params {
		run(p)
	}
}

func runProg(w *workload.Workload, prog *isa.Program, cfg sim.Config) *sim.Stats {
	return sim.Run(prog, workload.NewExecutor(w, workload.DefaultInput(w)), cfg, nil)
}

func compare(p workload.Params) {
	w := workload.Generate(p)
	cfg := sim.Default().WithWorkloadCPI(w.Params.BackendCPI)

	t0 := time.Now()
	base := runProg(w, w.Prog, cfg)
	idealCfg := cfg
	idealCfg.Ideal = true
	ideal := runProg(w, w.Prog, idealCfg)

	prof := profile.Collect(w, workload.DefaultInput(w), cfg)
	adb := asmdb.BuildDefault(prof, core.DefaultOptions())
	adbStats := runProg(w, adb.Prog, asmdb.RunConfig(cfg))
	ispy := core.BuildISPY(prof, cfg, core.DefaultOptions())
	ispyStats := runProg(w, ispy.Prog, cfg)

	sp := func(s *sim.Stats) float64 { return (float64(base.Cycles)/float64(s.Cycles) - 1) * 100 }
	pctIdeal := func(s *sim.Stats) float64 {
		return (float64(base.Cycles)/float64(s.Cycles) - 1) / (float64(base.Cycles)/float64(ideal.Cycles) - 1) * 100
	}
	kc := ispy.Plan.KindCounts()
	fmt.Printf("%-16s ideal=%5.1f%% asmdb=%5.1f%%(%4.0f%%id acc=%4.1f%% dyn=%4.1f%% mpki=%5.2f) ispy=%5.1f%%(%4.0f%%id acc=%4.1f%% dyn=%4.1f%% mpki=%5.2f fp=%4.1f%%) baseMPKI=%5.2f kinds=[P%d C%d L%d CL%d] stat=%.1f%%/%.1f%% [%.1fs]\n",
		p.Name, sp(ideal),
		sp(adbStats), pctIdeal(adbStats), adbStats.PrefetchAccuracy()*100, adbStats.DynFootprintIncrease()*100, adbStats.MPKI(),
		sp(ispyStats), pctIdeal(ispyStats), ispyStats.PrefetchAccuracy()*100, ispyStats.DynFootprintIncrease()*100, ispyStats.MPKI(),
		ispyStats.CondFalsePositiveRate()*100,
		base.MPKI(),
		kc[isa.KindPrefetch], kc[isa.KindCprefetch], kc[isa.KindLprefetch], kc[isa.KindCLprefetch],
		adb.StaticIncrease(w.Prog)*100, ispy.StaticIncrease(w.Prog)*100,
		time.Since(t0).Seconds())
}
