package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ispy/internal/profile"
	"ispy/internal/rng"
	"ispy/internal/sim"
	"ispy/internal/workload"
)

// Golden-equivalence tests: the bitmask fast path (DiscoverContext, and a
// discoverer reused across calls as its scratch pool reuses them) must
// return exactly what the frozen DiscoverContextReference returns, field
// for field with floats compared bit for bit.

// sameContext reports whether two results are identical, Blocks nil-ness
// included, floats compared by their bits.
func sameContext(a, b ContextResult) bool {
	return (a.Blocks == nil) == (b.Blocks == nil) && slices.Equal(a.Blocks, b.Blocks) &&
		math.Float64bits(a.Precision) == math.Float64bits(b.Precision) &&
		math.Float64bits(a.Recall) == math.Float64bits(b.Recall) &&
		math.Float64bits(a.Baseline) == math.Float64bits(b.Baseline)
}

// checkAgainstReference runs one discovery through the reference, a fresh
// DiscoverContext, and the shared scratch d, and reports any difference.
func checkAgainstReference(t *testing.T, d *discoverer, what string, ls *profile.LabeledSet, site int32, opt Options) ContextResult {
	t.Helper()
	want := DiscoverContextReference(ls, site, opt)
	if got := DiscoverContext(ls, site, opt); !sameContext(got, want) {
		t.Errorf("%s: DiscoverContext = %+v, reference = %+v", what, got, want)
	}
	if got := d.discover(ls, site, opt); !sameContext(got, want) {
		t.Errorf("%s: reused scratch = %+v, reference = %+v", what, got, want)
	}
	return want
}

// goldenPreds is Fig. 17's sweep plus every size around the exhaustive /
// greedy boundary.
var goldenPreds = []int{1, 2, 3, 4, 5, 6, 8, 16, 32}

func TestDiscoverContextMatchesReferenceOnPresets(t *testing.T) {
	for _, app := range workload.AppNames {
		t.Run(app, func(t *testing.T) {
			w := workload.Preset(app)
			scfg := sim.Default()
			scfg.MaxInstrs = 60_000
			scfg.WarmupInstrs = 30_000
			scfg = scfg.WithWorkloadCPI(w.Params.BackendCPI)
			p := profile.Collect(w, workload.DefaultInput(w), scfg)
			base := DefaultOptions()
			prep := Prepare(p, scfg, base)
			if prep.CP == nil {
				t.Skip("no site needs a condition at this budget")
			}
			base.BloomDensity = AdjustDensity(p.AvgHashDensity, 16, base.HashBits)
			var d discoverer
			calls, adopted := 0, 0
			for _, c := range prep.Needs {
				ls := prep.CP.Get(c.Site, c.Target)
				if ls == nil {
					continue
				}
				calls++
				if checkAgainstReference(t, &d, fmt.Sprintf("%d→%v default", c.Site, c.Target), ls, c.Site, base).Conditional() {
					adopted++
				}
				for _, k := range goldenPreds {
					opt := base
					opt.Coalesce = false
					opt.MaxPreds = k
					opt.CandidatePool = max(k, 8) // Fig. 17's pool rule
					checkAgainstReference(t, &d, fmt.Sprintf("%d→%v preds=%d", c.Site, c.Target, k), ls, c.Site, opt)
				}
			}
			if calls == 0 {
				t.Skip("no labeled sets at this budget")
			}
			t.Logf("%d (site, target) sets, %d adopt a context at the default options", calls, adopted)
		})
	}
}

// randomSet draws nPos/nNeg snapshots of width blocks from [0, blocks),
// each block present in a snapshot with its own per-side probability, so
// that frequencies spread across the MinRecall threshold.
func randomSet(seed uint64, nPos, nNeg, width, blocks int) *profile.LabeledSet {
	r := rng.New(seed)
	posP := make([]float64, blocks)
	negP := make([]float64, blocks)
	for b := range posP {
		posP[b] = r.Float64()
		negP[b] = r.Float64()
	}
	draw := func(p []float64) []int32 {
		var s []int32
		for len(s) < width {
			b := r.Intn(blocks)
			if r.Bool(p[b]) {
				s = append(s, int32(b))
			}
		}
		return s
	}
	ls := &profile.LabeledSet{PosTotal: uint64(nPos) * 3, NegTotal: uint64(nNeg) * 5}
	for i := 0; i < nPos; i++ {
		ls.Pos = append(ls.Pos, draw(posP))
	}
	for i := 0; i < nNeg; i++ {
		ls.Neg = append(ls.Neg, draw(negP))
	}
	return ls
}

func TestDiscoverContextWidePoolMatchesReference(t *testing.T) {
	// A pool wider than 64 blocks. Low MinRecall lets ~100 blocks qualify;
	// both the greedy path and a shallow exhaustive search run over it.
	ls := randomSet(7, 60, 50, 80, 120)
	var d discoverer
	for _, tc := range []struct{ preds, pool int }{{2, 100}, {5, 100}, {8, 100}, {16, 70}} {
		opt := DefaultOptions()
		opt.MinRecall = 0.2
		opt.MinPrecisionGain = 0.01
		opt.BloomDensity = 0.3
		opt.MaxPreds, opt.CandidatePool = tc.preds, tc.pool
		res := checkAgainstReference(t, &d, fmt.Sprintf("preds=%d pool=%d", tc.preds, tc.pool), ls, 3, opt)
		if !res.Conditional() {
			t.Errorf("preds=%d pool=%d: reference adopted no context; the case no longer covers the search", tc.preds, tc.pool)
		}
	}
	eligible := 0
	for b, pf := range presenceFreq(ls.Pos) {
		if b != 3 && pf >= 0.2 {
			eligible++
		}
	}
	if eligible <= 64 {
		t.Errorf("%d blocks qualify for the pool, want > 64", eligible)
	}
}

func TestDiscoverContextEdgeCasesMatchReference(t *testing.T) {
	tie := &profile.LabeledSet{PosTotal: 40, NegTotal: 60}
	for i := 0; i < 40; i++ {
		tie.Pos = append(tie.Pos, []int32{10, 11, 12, 20})
	}
	for i := 0; i < 60; i++ {
		// 10, 11 and 12 each appear in a third of the negatives, so every
		// same-size subset of them scores exactly the same.
		tie.Neg = append(tie.Neg, []int32{20, int32(10 + i%3)})
	}
	everywhere := &profile.LabeledSet{PosTotal: 20, NegTotal: 30}
	for i := 0; i < 20; i++ {
		// Every extension of a context scores exactly the same, so the
		// greedy search must stop after its first block.
		everywhere.Pos = append(everywhere.Pos, []int32{1, 2, 3})
		everywhere.Neg = append(everywhere.Neg, []int32{3, 2, 1})
	}
	negative := &profile.LabeledSet{PosTotal: 30, NegTotal: 30}
	for i := 0; i < 30; i++ {
		negative.Pos = append(negative.Pos, []int32{-5, -4, 3000, 7})
		negative.Neg = append(negative.Neg, []int32{-4, 7, int32(-2_000_000_000 + i)})
	}
	cases := []struct {
		name string
		ls   *profile.LabeledSet
		site int32
	}{
		{"fig6", fig6Evidence(40, 60), 6},
		{"empty-neg", &profile.LabeledSet{PosTotal: 12, Pos: fig6Evidence(12, 0).Pos}, 6},
		{"neg-total-without-samples", &profile.LabeledSet{PosTotal: 12, NegTotal: 40, Pos: fig6Evidence(12, 0).Pos}, 6},
		{"site-in-own-history", fig6Evidence(40, 60), 1},
		{"exact-ties", tie, 20},
		{"no-improving-extension", everywhere, 9},
		{"duplicate-blocks", &profile.LabeledSet{PosTotal: 4, NegTotal: 4,
			Pos: [][]int32{{1, 1, 2, 2}, {1, 2, 1}, {2, 1}, {1, 2, 3}},
			Neg: [][]int32{{3, 3}, {1, 1, 1}, {3}, {2, 2}}}, 9},
		{"empty-snapshots", &profile.LabeledSet{PosTotal: 3, NegTotal: 3, Pos: [][]int32{{}, {}}, Neg: [][]int32{{1}}}, 0},
		{"wide-block-ids", negative, 7},
		{"no-evidence", &profile.LabeledSet{}, 0},
		{"no-positive-samples", &profile.LabeledSet{PosTotal: 5, NegTotal: 5, Neg: [][]int32{{1}}}, 0},
	}
	var d discoverer
	for _, tc := range cases {
		for _, k := range goldenPreds {
			for _, density := range []float64{0, 0.5, 1} {
				// A negative gain adopts even contexts that lose to the
				// baseline, exposing every search decision in the result.
				for _, gain := range []float64{0, -1} {
					opt := DefaultOptions()
					opt.MaxPreds = k
					opt.BloomDensity = density
					opt.MinPrecisionGain = gain
					checkAgainstReference(t, &d, fmt.Sprintf("%s preds=%d density=%v gain=%v", tc.name, k, density, gain), tc.ls, tc.site, opt)
				}
			}
		}
	}
	if res := DiscoverContextReference(tie, 20, DefaultOptions()); !res.Conditional() {
		t.Errorf("exact-ties: reference adopted no context (%+v); the case no longer exercises tie-breaks", res)
	}
}

func TestDiscovererLeavesScratchClean(t *testing.T) {
	var d discoverer
	opt := DefaultOptions()
	opt.MinRecall = 0.2
	for seed := uint64(1); seed <= 20; seed++ {
		ls := randomSet(seed, 30, 30, 24, 200+int(seed)*10)
		checkAgainstReference(t, &d, fmt.Sprintf("seed %d", seed), ls, 0, opt)
		if len(d.touched) != 0 {
			t.Fatalf("seed %d: %d touched cells left", seed, len(d.touched))
		}
		for i, c := range d.cells {
			if c != 0 {
				t.Fatalf("seed %d: cell %d left at %d", seed, i, c)
			}
		}
	}
}
