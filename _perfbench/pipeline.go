package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"ispy/internal/artifacts"
	"ispy/internal/asmdb"
	"ispy/internal/cfg"
	"ispy/internal/core"
	"ispy/internal/experiments"
	"ispy/internal/hashx"
	"ispy/internal/isa"
	"ispy/internal/metrics"
	"ispy/internal/profile"
	"ispy/internal/server"
	"ispy/internal/sim"
	"ispy/internal/traceio"
	"ispy/internal/traffic"
	"ispy/internal/workload"
)

// pipe re-drives the harness pipeline through each layer's public
// functions, in the order experiments.Lab and the server's analyze and
// scenario paths call them, with a span around every layer call. Its
// outputs must be byte-identical to the program's own, so the traced run
// measures the same work as the untraced one.
type pipe struct {
	cache *artifacts.Cache
	sc    scope
}

var bg = context.Background()

// appRun mirrors experiments.App: one application's workload, simulator
// configuration and lazily computed artifacts.
type appRun struct {
	d    *pipe
	name string
	w    *workload.Workload
	in   workload.Input
	cfg  sim.Config
	// The lab keeps every artifact of every app until the figure is done;
	// so does appRun, so both runs carry the same live heap.
	prof   *profile.Profile
	labels *profile.ContextProfile
	asmdb  *core.Build
	ispy   *core.Build
}

func (d *pipe) app(name string, b budget) *appRun {
	var w *workload.Workload
	d.sc.do("workload.generate", func() { w = workload.Preset(name) })
	d.sc.t.count("workload.generate_calls", 1)
	c := sim.Default().WithWorkloadCPI(w.Params.BackendCPI)
	c.MaxInstrs, c.WarmupInstrs = b.measure, b.warmup
	return &appRun{d: d, name: name, w: w, in: workload.DefaultInput(w), cfg: c}
}

func (a *appRun) key(kind string) *artifacts.Key {
	return artifacts.NewKey(kind, a.name).Params(a.w.Params).Input(a.in)
}

// loaded and stored count artifact traffic at the cache boundary.
func (d *pipe) loaded(k *artifacts.Key, hit bool) {
	d.sc.t.count("artifacts.loads", 1)
	if hit {
		d.sc.t.count("artifacts.hits", 1)
		d.sc.t.count("artifacts.read_bytes", d.fileSize(k))
	}
}

func (d *pipe) stored(k *artifacts.Key) {
	d.sc.t.count("artifacts.write_bytes", d.fileSize(k))
}

func (d *pipe) fileSize(k *artifacts.Key) float64 {
	if d.sc.t == nil {
		return 0
	}
	fi, err := os.Stat(filepath.Join(d.cache.Dir(), k.Filename()))
	if err != nil {
		return 0
	}
	return float64(fi.Size())
}

// simulated counts the instructions a sim.Run call simulated.
func (d *pipe) simulated(c sim.Config, st *sim.Stats) {
	d.sc.t.count("sim.instrs", float64(c.WarmupInstrs+st.Instrs))
}

// stats loads run statistics for k or simulates prog under c inside a span
// named layer and stores them.
func (a *appRun) stats(k *artifacts.Key, layer string, c sim.Config, prog func() *isa.Program) *sim.Stats {
	d := a.d
	var st *sim.Stats
	var ok bool
	d.sc.do("artifacts.load", func() { st, ok = d.cache.LoadStats(bg, k) })
	d.loaded(k, ok)
	if ok {
		return st
	}
	p := prog()
	d.sc.do(layer, func() { st = sim.Run(p, workload.NewExecutor(a.w, a.in), c, nil) })
	d.simulated(c, st)
	d.sc.do("artifacts.store", func() { d.cache.StoreStats(bg, k, st) })
	d.stored(k)
	return st
}

func (a *appRun) build(k *artifacts.Key, compute func() *core.Build) *core.Build {
	d := a.d
	var b *core.Build
	var ok bool
	d.sc.do("artifacts.load", func() { b, ok = d.cache.LoadBuild(bg, k) })
	d.loaded(k, ok)
	if ok {
		return b
	}
	b = compute()
	d.sc.do("artifacts.store", func() { d.cache.StoreBuild(bg, k, b) })
	d.stored(k)
	return b
}

func (a *appRun) base() *sim.Stats {
	return a.stats(a.key("base").SimConfig(a.cfg), "sim.base", a.cfg, func() *isa.Program { return a.w.Prog })
}

func (a *appRun) ideal() *sim.Stats {
	c := a.cfg
	c.Ideal = true
	return a.stats(a.key("ideal").SimConfig(c), "sim.ideal", c, func() *isa.Program { return a.w.Prog })
}

func (a *appRun) profile() *profile.Profile {
	if a.prof != nil {
		return a.prof
	}
	d := a.d
	k := a.key("profile").SimConfig(a.cfg)
	var ok bool
	d.sc.do("artifacts.load", func() { a.prof, ok = d.cache.LoadProfile(bg, k, a.w, a.in) })
	d.loaded(k, ok)
	if ok {
		return a.prof
	}
	d.sc.do("profile.collect", func() { a.prof = profile.Collect(a.w, a.in, a.cfg) })
	d.sc.do("artifacts.store", func() { d.cache.StoreProfile(bg, k, a.prof) })
	d.stored(k)
	return a.prof
}

func (a *appRun) asmdbStats() *sim.Stats {
	opt := core.DefaultOptions()
	runCfg := asmdb.RunConfig(a.cfg)
	k := a.key("asmdb-run").SimConfig(a.cfg).Options(opt).SimConfig(runCfg)
	return a.stats(k, "sim.asmdb", runCfg, func() *isa.Program {
		bk := a.key("asmdb-build").SimConfig(a.cfg).Options(opt)
		a.asmdb = a.build(bk, func() *core.Build {
			var b *core.Build
			p := a.profile()
			a.d.sc.do("asmdb.build", func() { b = asmdb.BuildDefault(p, opt) })
			return b
		})
		return a.asmdb.Prog
	})
}

func (a *appRun) ispyBuild() *core.Build {
	if a.ispy == nil {
		k := a.key("ispy-build").SimConfig(a.cfg).Options(core.DefaultOptions())
		a.ispy = a.build(k, a.analyze)
	}
	return a.ispy
}

func (a *appRun) ispyStats() *sim.Stats {
	k := a.key("ispy-run").SimConfig(a.cfg).Options(core.DefaultOptions())
	return a.stats(k, "sim.ispy", a.cfg, func() *isa.Program { return a.ispyBuild().Prog })
}

// analyze is core.BuildISPY (Prepare, then BuildFromPrepared) spelled out
// call by call, so site selection, labelling, each context discovery and
// plan building get spans of their own.
func (a *appRun) analyze() *core.Build {
	sc, t := &a.d.sc, a.d.sc.t
	p := a.profile()
	opt := core.DefaultOptions()
	var choices []core.SiteChoice
	var uncovered uint64
	sc.do("core.select", func() { choices, uncovered = core.SelectSites(p.Graph, opt) })
	var needs []core.SiteChoice
	for _, c := range choices {
		if c.Fanout > opt.FanoutEpsilon {
			needs = append(needs, c)
		}
	}
	var cp *profile.ContextProfile
	if len(needs) > 0 {
		sites, bySite := core.GroupBySite(needs)
		targets := make([]profile.Targets, 0, len(sites))
		for _, s := range sites {
			tg := profile.Targets{Site: s}
			for _, c := range bySite[s] {
				tg.Lines = append(tg.Lines, c.Target)
			}
			targets = append(targets, tg)
		}
		sc.do("profile.label", func() {
			cp = profile.CollectContexts(p.Workload, p.Input, a.cfg, targets, opt.MaxDistCycles+opt.CtxWindowSlackCycles)
		})
		a.labels = cp
		if t != nil {
			for _, ls := range cp.Sets {
				t.count("profile.labeled_snapshots", float64(len(ls.Pos)+len(ls.Neg)))
			}
		}
	}
	bopt := opt
	bopt.BloomDensity = core.AdjustDensity(p.AvgHashDensity, 16, bopt.HashBits)
	contexts := make(map[cfg.LineKey]core.ContextResult)
	if cp != nil {
		for _, c := range needs {
			ls := cp.Get(c.Site, c.Target)
			if ls == nil {
				continue
			}
			var res core.ContextResult
			sc.do("core.discover", func() { res = core.DiscoverContext(ls, c.Site, bopt) })
			t.count("core.discover_calls", 1)
			if res.Conditional() {
				contexts[c.Target] = res
				t.count("core.discover_adopted", 1)
			}
		}
	}
	var plan *core.Plan
	var prog *isa.Program
	sc.do("core.plan", func() {
		plan = core.BuildPlan(p.Workload.Prog, choices, contexts, p.Graph.TotalMisses, uncovered, bopt)
		prog = plan.Apply(p.Workload.Prog)
	})
	return &core.Build{Prog: prog, Plan: plan, Sites: choices, Contexts: contexts}
}

// model holds Fig. 10's averages, the modelled design's headline outputs.
type model struct{ speedup, pctOfIdeal, vsAsmdb float64 }

// fig10 regenerates Fig. 10 the way a sequential lab does (experiments'
// runFig10 over Lab.Warm) and renders it with experiments.Result.String.
func (d *pipe) fig10(apps []string, b budget) (string, model) {
	t := metrics.NewTable("app", "ideal speedup", "AsmDB speedup", "I-SPY speedup", "I-SPY %-of-ideal", "I-SPY vs AsmDB")
	var pctIdeal, ispySp, vsAsmdb []float64
	pct := func(v float64) string { return fmt.Sprintf("%.1f%%", v) }
	runs := make([]*appRun, len(apps))
	for i, name := range apps {
		runs[i] = d.app(name, b)
	}
	for _, a := range runs {
		name := a.name
		base, ideal := a.base(), a.ideal()
		adb, ispy := a.asmdbStats(), a.ispyStats()
		sI := metrics.SpeedupPct(base.Cycles, ideal.Cycles)
		sA := metrics.SpeedupPct(base.Cycles, adb.Cycles)
		sY := metrics.SpeedupPct(base.Cycles, ispy.Cycles)
		pi := metrics.PctOfIdeal(base.Cycles, ispy.Cycles, ideal.Cycles)
		rel := 0.0
		if sA > 0 {
			rel = (sY/sA - 1) * 100
		}
		pctIdeal = append(pctIdeal, pi)
		ispySp = append(ispySp, sY)
		vsAsmdb = append(vsAsmdb, rel)
		t.AddRow(name, pct(sI), pct(sA), pct(sY), pct(pi), pct(rel))
	}
	m := model{metrics.Mean(ispySp), metrics.Mean(pctIdeal), metrics.Mean(vsAsmdb)}
	res := &experiments.Result{
		ID:    "fig10",
		Title: "Speedup over the no-prefetch baseline",
		Paper: "I-SPY: avg 15.5% speedup (up to 45.9%), 90.4% of ideal on average, 22.4% faster than AsmDB",
		Measured: fmt.Sprintf("I-SPY: avg %.1f%% speedup (up to %.1f%%), %.1f%% of ideal on average, %.1f%% faster than AsmDB",
			m.speedup, metrics.Max(ispySp), m.pctOfIdeal, m.vsAsmdb),
		Table: t,
	}
	return res.String(), m
}

// analyzeApp mirrors the server's single-app analyze: baseline run, I-SPY
// build, I-SPY run, flattened into the response body.
func (d *pipe) analyzeApp(app string, b budget) []byte {
	a := d.app(app, b)
	base := a.base()
	build := a.ispyBuild()
	ispy := a.ispyStats()
	return encode(analyzeResponse(app, b.measure, base, ispy, build.Plan))
}

// scenario mirrors the server's scenario analyze (experiments' runScenario).
func (d *pipe) scenario(specText string, b budget) ([]byte, error) {
	spec, err := traffic.ParseSpec(specText)
	if err != nil {
		return nil, err
	}
	var tr *traceio.ScenarioTrace
	d.sc.do("traffic.compose", func() { tr = traffic.Compose(spec) })
	var world *traffic.World
	d.sc.do("traffic.world", func() { world, err = traffic.BuildWorld(spec) })
	if err != nil {
		return nil, err
	}
	var tbuf bytes.Buffer
	if err := traceio.WriteScenario(&tbuf, tr); err != nil {
		return nil, err
	}
	traceHash := hashx.FNV1a64(tbuf.Bytes())
	c := sim.Default().WithWorkloadCPI(world.BackendCPI())
	c.MaxInstrs, c.WarmupInstrs = b.measure, b.warmup

	baseKey := artifacts.NewKey("scenario-base", spec.Name).Str(spec.Material()).Uint(traceHash).SimConfig(c)
	baseSt, baseRows, err := d.scenarioRun(baseKey, c, world, tr, func() (*isa.Program, error) { return world.Prog, nil })
	if err != nil {
		return nil, err
	}
	ispyKey := artifacts.NewKey("scenario-ispy", spec.Name).Str(spec.Material()).Uint(traceHash).SimConfig(c)
	names := spec.Apps()
	apps := make(map[string]*appRun, len(names))
	for _, name := range names {
		a := d.app(name, b)
		apps[name] = a
		ispyKey = ispyKey.Str(name).Params(a.w.Params).Input(a.in).SimConfig(a.cfg).Options(core.DefaultOptions())
	}
	ispySt, ispyRows, err := d.scenarioRun(ispyKey, c, world, tr, func() (*isa.Program, error) {
		progs := make([]*isa.Program, len(world.Tenants))
		for i, tn := range world.Tenants {
			progs[i] = apps[tn.Spec.App].ispyBuild().Prog
		}
		var merged *isa.Program
		var err error
		d.sc.do("traffic.world", func() { merged, err = world.Merged(progs) })
		return merged, err
	})
	if err != nil {
		return nil, err
	}
	return encode(scenarioResponse(b.measure, &experiments.ScenarioResult{
		Spec: spec, Trace: tr, Base: baseSt, ISPY: ispySt, BaseRows: baseRows, ISPYRows: ispyRows,
	})), nil
}

func (d *pipe) scenarioRun(k *artifacts.Key, c sim.Config, world *traffic.World, tr *traceio.ScenarioTrace,
	prog func() (*isa.Program, error)) (*sim.Stats, []traffic.TenantRow, error) {
	var st *sim.Stats
	var rows []traffic.TenantRow
	var ok bool
	d.sc.do("artifacts.load", func() { st, rows, ok = d.cache.LoadScenario(bg, k) })
	d.loaded(k, ok)
	if ok {
		return st, rows, nil
	}
	p, err := prog()
	if err != nil {
		return nil, nil, err
	}
	d.sc.do("sim.scenario", func() {
		var ex *traffic.Executor
		if ex, err = traffic.NewExecutor(world, tr); err != nil {
			return
		}
		col := traffic.NewCollector(world)
		st = sim.Run(p, ex, c, col.Hooks())
		rows = col.Rows()
	})
	if err != nil {
		return nil, nil, err
	}
	d.simulated(c, st)
	d.sc.do("artifacts.store", func() { d.cache.StoreScenario(bg, k, st, rows) })
	d.stored(k)
	return st, rows, nil
}

// The response bodies below follow the server's wire shape (server.
// AnalyzeResponse, written as JSON plus a newline).

func statsSummary(s *sim.Stats) server.StatsSummary {
	return server.StatsSummary{
		Instrs:              s.BaseInstrs,
		Cycles:              s.Cycles,
		L1IMisses:           s.L1IMisses,
		StallCycles:         s.StallCycles,
		PrefetchInstrs:      s.DynPrefetchInstrs,
		PrefetchLinesIssued: s.PrefetchLinesIssued,
	}
}

func analyzeResponse(app string, instrs uint64, base, ispy *sim.Stats, plan *core.Plan) *server.AnalyzeResponse {
	ps := server.PlanSummary{
		Prefetches:      len(plan.Prefetches),
		MissesTotal:     plan.MissesTotal,
		MissesPlanned:   plan.MissesPlanned,
		MissesUncovered: plan.MissesUncovered,
	}
	for i := range plan.Prefetches {
		if len(plan.Prefetches[i].CtxBlocks) > 0 {
			ps.Conditional++
		}
		if len(plan.Prefetches[i].Targets) > 1 {
			ps.Coalesced++
		}
	}
	resp := &server.AnalyzeResponse{App: app, Instrs: instrs, Baseline: statsSummary(base), ISPY: statsSummary(ispy), Plan: ps}
	if resp.ISPY.Cycles > 0 {
		resp.Speedup = float64(resp.Baseline.Cycles) / float64(resp.ISPY.Cycles)
	}
	return resp
}

func scenarioResponse(instrs uint64, res *experiments.ScenarioResult) *server.AnalyzeResponse {
	resp := &server.AnalyzeResponse{
		Scenario: res.Spec.Name,
		Instrs:   instrs,
		Baseline: statsSummary(res.Base),
		ISPY:     statsSummary(res.ISPY),
	}
	row := func(base, ispy *traffic.TenantRow) server.TenantSummary {
		return server.TenantSummary{
			Name: base.Name, App: base.App, SLO: base.SLO, Requests: base.Requests,
			BaseMPKI: traffic.MPKI(base), ISPYMPKI: traffic.MPKI(ispy),
		}
	}
	for i := range res.BaseRows {
		resp.Tenants = append(resp.Tenants, row(&res.BaseRows[i], &res.ISPYRows[i]))
	}
	baseSLO, ispySLO := traffic.SLORows(res.BaseRows), traffic.SLORows(res.ISPYRows)
	for i := range baseSLO {
		resp.SLOClasses = append(resp.SLOClasses, row(&baseSLO[i], &ispySLO[i]))
	}
	if resp.ISPY.Cycles > 0 {
		resp.Speedup = float64(resp.Baseline.Cycles) / float64(resp.ISPY.Cycles)
	}
	return resp
}

func encode(resp *server.AnalyzeResponse) []byte {
	b, err := json.Marshal(resp)
	if err != nil {
		panic(err) // a struct of numbers and strings always encodes
	}
	return append(b, '\n')
}
