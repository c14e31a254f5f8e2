// The bridge between the Lab and the on-disk artifact cache: every artifact
// the harness computes flows through cached, the one load-or-compute helper,
// which consults the cache (when configured), maintains the hit/miss/bypass
// telemetry, and times every recomputation. It never fails — a broken cache
// entry degrades to a recompute, exactly like a cold cache.
package experiments

import (
	"context"
	"time"

	"ispy/internal/artifacts"
	"ispy/internal/asmdb"
	"ispy/internal/core"
	"ispy/internal/isa"
	"ispy/internal/profile"
	"ispy/internal/sim"
	"ispy/internal/workload"
)

// key starts an artifact key covering the inputs every per-app artifact
// shares: the workload generation parameters and the profiled input.
func (a *App) key(kind string) *artifacts.Key {
	return artifacts.NewKey(kind, a.Name).
		Params(a.Params).
		Input(a.Params.DefaultInput())
}

// A format is how one artifact type is read from and written to the cache.
type format[T any] struct {
	load  func(*artifacts.Cache, context.Context, *artifacts.Key) (T, bool)
	store func(*artifacts.Cache, context.Context, *artifacts.Key, T)
}

var (
	statsFormat = format[*sim.Stats]{(*artifacts.Cache).LoadStats, (*artifacts.Cache).StoreStats}
	buildFormat = format[*core.Build]{(*artifacts.Cache).LoadBuild, (*artifacts.Cache).StoreBuild}
)

// profileFormat binds a cached profile to the live workload and input.
func profileFormat(w *workload.Workload, in workload.Input) format[*profile.Profile] {
	return format[*profile.Profile]{
		load: func(c *artifacts.Cache, ctx context.Context, k *artifacts.Key) (*profile.Profile, bool) {
			return c.LoadProfile(ctx, k, w, in)
		},
		store: (*artifacts.Cache).StoreProfile,
	}
}

// cached loads the artifact for k in format f or computes (and stores) it.
func cached[T any](l *Lab, f format[T], k *artifacts.Key, compute func() T) T {
	if v, ok := lookup(l, f.load, k); ok {
		return v
	}
	return computed(l, f, k, compute)
}

// lookup is cached's read half: it loads k (when the cache is enabled) and
// counts the lookup as one bypass, hit or miss.
func lookup[T any](l *Lab, load func(*artifacts.Cache, context.Context, *artifacts.Key) (T, bool), k *artifacts.Key) (T, bool) {
	if !l.cache.Enabled() {
		l.tel.CacheBypass(k.Kind())
		var zero T
		return zero, false
	}
	v, ok := load(l.cache, l.ctx, k)
	if ok {
		l.tel.CacheHit(k.Kind())
		l.tel.Progressf("hit      %s", k.Filename())
	} else {
		l.tel.CacheMiss(k.Kind())
	}
	return v, ok
}

// computed is cached's write half, run after a lookup that found nothing:
// it computes the artifact for k and stores it in format f (a no-op
// without a cache).
func computed[T any](l *Lab, f format[T], k *artifacts.Key, compute func() T) T {
	v := timed(l, k.Kind(), faulted(l, k, compute))
	f.store(l.cache, l.ctx, k, v)
	return v
}

// faulted interposes the lab's fault injector (when configured) at the
// artifact's compute site — "compute/<kind>/<app>" — so tests can force a
// panic or error into exactly one app's computation. With no injector the
// original closure is returned untouched.
func faulted[T any](l *Lab, k *artifacts.Key, compute func() T) func() T {
	if l.faults == nil {
		return compute
	}
	site := "compute/" + k.Kind() + "/" + k.App()
	return func() T {
		l.faultHit(site)
		return compute()
	}
}

// timed runs compute under the per-artifact wall-time telemetry.
func timed[T any](l *Lab, kind string, compute func() T) T {
	start := time.Now()
	v := compute()
	d := time.Since(start)
	l.tel.ObserveArtifact(kind, d)
	l.tel.Progressf("computed %s in %.2fs", kind, d.Seconds())
	return v
}

// ISPYVariant builds and runs an I-SPY variant reusing the prepared
// evidence; cfg overrides the simulator configuration (HashBits follows
// opt). Both the build and the run are cached per (options, configuration)
// point, making sensitivity sweeps idempotent across harness runs.
func (a *App) ISPYVariant(opt core.Options, cfg sim.Config) (*core.Build, *sim.Stats) {
	if opt.HashBits != 0 {
		cfg.HashBits = opt.HashBits
	}
	b := a.variantBuild(opt)
	k := a.key("ispy-variant-run").SimConfig(a.SimCfg()).Options(opt).SimConfig(cfg)
	st := cached(a.lab, statsFormat, k, func() *sim.Stats { return a.Run(b.Prog, cfg) })
	return b, st
}

// ISPYVariantStats is ISPYVariant for callers that only need the run: on a
// warm cache it serves the statistics without touching the build at all.
func (a *App) ISPYVariantStats(opt core.Options, cfg sim.Config) *sim.Stats {
	if opt.HashBits != 0 {
		cfg.HashBits = opt.HashBits
	}
	k := a.key("ispy-variant-run").SimConfig(a.SimCfg()).Options(opt).SimConfig(cfg)
	return cached(a.lab, statsFormat, k, func() *sim.Stats {
		return a.Run(a.variantBuild(opt).Prog, cfg)
	})
}

func (a *App) variantBuild(opt core.Options) *core.Build {
	k := a.key("ispy-variant-build").SimConfig(a.SimCfg()).Options(opt)
	return cached(a.lab, buildFormat, k, func() *core.Build {
		return core.BuildFromPrepared(a.Profile(), a.Prepared(), opt)
	})
}

// FreshVariantStats builds I-SPY from scratch at buildCfg — required when
// opt moves the prefetch-distance window, which re-labels the contexts the
// shared Prepared evidence bakes in — runs the result under runCfg, and
// caches the run.
func (a *App) FreshVariantStats(opt core.Options, buildCfg, runCfg sim.Config) *sim.Stats {
	if opt.HashBits != 0 {
		runCfg.HashBits = opt.HashBits
	}
	k := a.key("ispy-fresh-run").SimConfig(buildCfg).Options(opt).SimConfig(runCfg)
	return cached(a.lab, statsFormat, k, func() *sim.Stats {
		b := core.BuildISPY(a.Profile(), buildCfg, opt)
		return a.Run(b.Prog, runCfg)
	})
}

// AsmDBAt builds and runs AsmDB at an explicit fan-out threshold (Fig. 3),
// caching both artifacts per threshold.
func (a *App) AsmDBAt(threshold float64) (*core.Build, *sim.Stats) {
	bk := a.key("asmdb-th-build").SimConfig(a.SimCfg()).Options(core.DefaultOptions()).Float(threshold)
	b := cached(a.lab, buildFormat, bk, func() *core.Build {
		return asmdb.Build(a.Profile(), threshold, core.DefaultOptions())
	})
	runCfg := asmdb.RunConfig(a.SimCfg())
	rk := a.key("asmdb-th-run").SimConfig(a.SimCfg()).Options(core.DefaultOptions()).Float(threshold).SimConfig(runCfg)
	st := cached(a.lab, statsFormat, rk, func() *sim.Stats { return a.Run(b.Prog, runCfg) })
	return b, st
}

// RunCachedInput simulates prog under cfg with input in, caching the
// statistics under kind. The program itself is not part of the key, so kind
// must uniquely identify the recipe that produced prog (e.g. "ispy-drift"
// for the default I-SPY build run on drifted inputs); cfg and in are folded
// in full, including any profile-derived prefetch mask.
func (a *App) RunCachedInput(kind string, prog *isa.Program, cfg sim.Config, in workload.Input) *sim.Stats {
	k := artifacts.NewKey(kind, a.Name).Params(a.Params).SimConfig(cfg).Input(in)
	return cached(a.lab, statsFormat, k, func() *sim.Stats { return a.RunInput(prog, cfg, in) })
}
