// The end-to-end offline analysis pipeline (Fig. 9, steps 2–3): profile →
// injection-site selection → context discovery → coalescing → injected
// binary.
package core

import (
	"ispy/internal/cfg"
	"ispy/internal/isa"
	"ispy/internal/profile"
	"ispy/internal/rng"
	"ispy/internal/sim"
)

// Build is the output of the I-SPY pipeline: the rewritten program plus
// everything the analysis decided, for reporting and tests.
type Build struct {
	// Prog is the injected, re-laid-out program ready to simulate.
	Prog *isa.Program
	// Plan is the injection plan (instruction kinds, coverage accounting,
	// coalescing statistics).
	Plan *Plan
	// Sites are the per-target injection-site choices.
	Sites []SiteChoice
	// Contexts maps targets to their adopted context (absent or
	// non-conditional = unconditional prefetch).
	Contexts map[cfg.LineKey]ContextResult
}

// StaticIncrease returns the static code-footprint increase of the injected
// program relative to the original (Figs. 4/14/21).
func (b *Build) StaticIncrease(orig *isa.Program) float64 {
	base := orig.StaticBytes()
	if base == 0 {
		return 0
	}
	pfBytes, _ := b.Prog.PrefetchBytes()
	return float64(pfBytes) / float64(base)
}

// Prepared holds the expensive intermediate products of the analysis: site
// choices from the baseline profile and the labeled context evidence from
// the instrumentation pass. Sensitivity sweeps that only vary discovery or
// coalescing parameters (Figs. 17, 19, 21) reuse a Prepared across
// configurations instead of re-simulating.
type Prepared struct {
	Choices   []SiteChoice
	Uncovered uint64
	// CP is the labeled evidence for every site whose fan-out exceeded
	// FanoutEpsilon (nil when opt.Conditional was false).
	CP *profile.ContextProfile
	// Needs lists the choices that were instrumented.
	Needs []SiteChoice
}

// Prepare runs site selection and (when opt.Conditional) the
// context-labeling pass. scfg is the simulator configuration used for the
// labeling pass (it should match the profiling configuration).
func Prepare(p *profile.Profile, scfg sim.Config, opt Options) *Prepared {
	opt = opt.withDefaults()
	choices, uncovered := SelectSites(p.Graph, opt)
	prep := &Prepared{Choices: choices, Uncovered: uncovered}

	if opt.Conditional {
		// Only sites whose fan-out exceeds the epsilon need a condition;
		// instrument exactly those (§IV: "if the prefetch injection site
		// has a non-zero fan-out, I-SPY analyzes … to reduce its fan-out").
		for _, c := range choices {
			if c.Fanout > opt.FanoutEpsilon {
				prep.Needs = append(prep.Needs, c)
			}
		}
		if len(prep.Needs) > 0 {
			sites, bySite := GroupBySite(prep.Needs)
			targets := make([]profile.Targets, 0, len(sites))
			for _, s := range sites {
				t := profile.Targets{Site: s}
				for _, c := range bySite[s] {
					t.Lines = append(t.Lines, c.Target)
				}
				targets = append(targets, t)
			}
			prep.CP = profile.CollectContexts(p.Workload, p.Input, scfg, targets,
				opt.MaxDistCycles+opt.CtxWindowSlackCycles)
		}
	}
	return prep
}

// BuildFromPrepared runs context discovery, coalescing, and injection using
// previously-prepared evidence. opt may differ from the Prepare-time options
// in discovery and coalescing parameters (MaxPreds, HashBits, CoalesceBits,
// Conditional, Coalesce, thresholds) but must keep the same prefetch window.
func BuildFromPrepared(p *profile.Profile, prep *Prepared, opt Options) *Build {
	opt = opt.withDefaults()
	if opt.BloomDensity == 0 {
		opt.BloomDensity = AdjustDensity(p.AvgHashDensity, 16, opt.HashBits)
	}
	contexts := make(map[cfg.LineKey]ContextResult)
	if opt.Conditional && prep.CP != nil {
		for _, c := range prep.Needs {
			ls := prep.CP.Get(c.Site, c.Target)
			if ls == nil {
				continue
			}
			if res := DiscoverContext(ls, c.Site, opt); res.Conditional() {
				contexts[c.Target] = res
			}
		}
	}
	plan := BuildPlan(p.Workload.Prog, prep.Choices, contexts, p.Graph.TotalMisses, prep.Uncovered, opt)
	prog := plan.Apply(p.Workload.Prog)
	return &Build{Prog: prog, Plan: plan, Sites: prep.Choices, Contexts: contexts}
}

// BuildISPY runs the full I-SPY analysis against a profile and returns the
// injected program. Fig. 12's ablations use opt.Conditional / opt.Coalesce.
func BuildISPY(p *profile.Profile, scfg sim.Config, opt Options) *Build {
	return BuildFromPrepared(p, Prepare(p, scfg, opt), opt)
}

// AdjustDensity rescales a runtime-hash bit density measured with fromBits
// hash bits to a toBits-wide hash: the implied number of distinct resident
// blocks d solves density = 1−(1−1/from)^d, and the rescaled density is
// 1−(1−1/to)^d.
func AdjustDensity(measured float64, fromBits, toBits int) float64 {
	if measured <= 0 || measured >= 1 || fromBits == toBits || fromBits < 2 || toBits < 2 {
		return measured
	}
	// d = ln(1-measured) / ln(1-1/from)
	d := rng.Ln(1-measured) / rng.Ln(1-1/float64(fromBits))
	return 1 - rng.Exp(d*rng.Ln(1-1/float64(toBits)))
}
