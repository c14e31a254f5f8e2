package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ispy/internal/core"
)

// cacheCfg is a tiny lab configuration pointed at dir.
func cacheCfg(dir string) Config {
	return Config{
		Apps:          []string{"tomcat"},
		MeasureInstrs: 120_000,
		WarmupInstrs:  30_000,
		SweepInstrs:   60_000,
		SweepWarmup:   15_000,
		Parallel:      true,
		CacheDir:      dir,
	}
}

// TestWarmCacheServesEveryArtifact is the end-to-end acceptance check: a
// second lab over the same cache directory must serve every headline
// artifact from disk — zero misses — and produce identical results.
func TestWarmCacheServesEveryArtifact(t *testing.T) {
	dir := t.TempDir()

	cold := NewLab(cacheCfg(dir))
	if err := cold.Validate(); err != nil {
		t.Fatal(err)
	}
	cold.Warm()
	a := cold.App("tomcat")
	coldBase, coldISPY := a.Base().Cycles, a.ISPYStats().Cycles
	if cold.Telemetry().Hits() != 0 {
		t.Errorf("cold run reported %d hits", cold.Telemetry().Hits())
	}
	if cold.Telemetry().Misses() == 0 {
		t.Error("cold run reported no misses")
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("cold run persisted no artifacts (err=%v)", err)
	}

	warm := NewLab(cacheCfg(dir))
	warm.Warm()
	b := warm.App("tomcat")
	if b.Base().Cycles != coldBase || b.ISPYStats().Cycles != coldISPY {
		t.Error("warm-cache results differ from cold-run results")
	}
	if warm.Telemetry().Hits() == 0 {
		t.Error("warm run reported no cache hits")
	}
	if warm.Telemetry().Misses() != 0 {
		t.Errorf("warm run recomputed %d artifacts", warm.Telemetry().Misses())
	}
}

func TestVariantAndFreshRunsAreCached(t *testing.T) {
	dir := t.TempDir()
	opt := core.DefaultOptions()
	opt.Coalesce = false

	cold := NewLab(cacheCfg(dir))
	a := cold.App("tomcat")
	coldVar := a.ISPYVariantStats(opt, a.SweepCfg()).Cycles
	coldFresh := a.FreshVariantStats(opt, a.SweepCfg(), a.SweepCfg()).Cycles

	warm := NewLab(cacheCfg(dir))
	b := warm.App("tomcat")
	if b.ISPYVariantStats(opt, b.SweepCfg()).Cycles != coldVar {
		t.Error("variant run differs across cache generations")
	}
	if b.FreshVariantStats(opt, b.SweepCfg(), b.SweepCfg()).Cycles != coldFresh {
		t.Error("fresh-variant run differs across cache generations")
	}
	if warm.Telemetry().Misses() != 0 {
		t.Errorf("warm variant runs recomputed %d artifacts", warm.Telemetry().Misses())
	}
	// A different option point is a different artifact, not a stale hit.
	opt2 := opt
	opt2.MaxPreds = 2
	b.ISPYVariantStats(opt2, b.SweepCfg())
	if warm.Telemetry().Misses() == 0 {
		t.Error("new option point served from cache")
	}
}

// TestCorruptCacheEntryRecomputes: damaging an entry on disk must silently
// fall back to recomputation (and repair the entry).
func TestCorruptCacheEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	cold := NewLab(cacheCfg(dir))
	want := cold.App("tomcat").Base().Cycles

	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatal("no cache entries written")
	}
	for _, e := range entries {
		if err := os.WriteFile(filepath.Join(dir, e.Name()), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	warm := NewLab(cacheCfg(dir))
	if got := warm.App("tomcat").Base().Cycles; got != want {
		t.Errorf("recomputed base = %d, want %d", got, want)
	}
	if warm.Telemetry().Hits() != 0 || warm.Telemetry().Misses() == 0 {
		t.Error("corrupt entry was not treated as a miss")
	}
}

func TestValidateSurfacesCacheError(t *testing.T) {
	// A cache path that collides with an existing file cannot be created.
	f := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	l := NewLab(Config{Apps: []string{"tomcat"}, CacheDir: filepath.Join(f, "sub")})
	if err := l.Validate(); err == nil {
		t.Error("unusable cache dir accepted")
	}
}

// TestISPYPlanOnWarmCacheNeedsOnlyParams: a cold ISPYPlan looks the build
// up once (a miss computes it without a second read); a warm one serves
// the plan and the app's evaluation run from the cache without ever
// generating the workload; without a cache it is ISPY's plan.
func TestISPYPlanOnWarmCacheNeedsOnlyParams(t *testing.T) {
	dir := t.TempDir()
	cold := NewLab(cacheCfg(dir))
	a := cold.App("tomcat")
	plan, st := a.ISPYPlan(), a.ISPYStats()
	if plan != a.ISPY().Plan {
		t.Error("cold ISPYPlan is not the plan of the build it computed")
	}
	// ispy-build, profile and ispy-run: one miss each.
	if h, m := cold.Telemetry().Hits(), cold.Telemetry().Misses(); h != 0 || m != 3 {
		t.Errorf("cold ISPYPlan+ISPYStats: %d hits, %d misses; want 0 and 3", h, m)
	}

	warm := NewLab(cacheCfg(dir))
	b := warm.App("tomcat")
	got := b.ISPYPlan()
	if b.ISPYStats().Cycles != st.Cycles {
		t.Error("warm ISPYStats differs from the cold one")
	}
	if h, m := warm.Telemetry().Hits(), warm.Telemetry().Misses(); h != 2 || m != 0 {
		t.Errorf("warm ISPYPlan+ISPYStats: %d hits, %d misses; want 2 and 0", h, m)
	}
	if b.w.v != nil {
		t.Error("a warm ISPYPlan generated the workload")
	}
	if !reflect.DeepEqual(got, b.ISPY().Plan) {
		t.Error("warm ISPYPlan differs from the cached build's plan")
	}

	cfg := cacheCfg("")
	if got := NewLab(cfg).App("tomcat").ISPYPlan(); !reflect.DeepEqual(got, a.ISPY().Plan) {
		t.Error("cache-less ISPYPlan differs from ISPY().Plan")
	}
}
