// The frozen reference implementation of miss-context discovery, kept
// verbatim from before the fast path in discover.go so the golden and fuzz
// tests have an independent oracle. Do not optimize it: its plainness is
// what makes it an oracle, and freeze_guard_test.go pins its bytes.
package core

import (
	"sort"

	"ispy/internal/profile"
)

// DiscoverContextReference is the frozen golden oracle for DiscoverContext:
// the original, straightforward predictor ranking plus combination search
// over the labeled evidence (site excludes itself from candidate
// predictors). It must not use the fast path in discover.go (the ispy-vet
// freeze pass enforces this); the golden and fuzz tests hold the fast path
// to its results bit for bit.
func DiscoverContextReference(ls *profile.LabeledSet, site int32, opt Options) ContextResult {
	opt = opt.withDefaults()
	total := ls.PosTotal + ls.NegTotal
	res := ContextResult{}
	if total == 0 || ls.PosTotal == 0 || len(ls.Pos) == 0 {
		return res
	}
	res.Baseline = float64(ls.PosTotal) / float64(total)

	// Rank candidate predictor blocks by how much more often they appear in
	// positive than negative histories.
	posFreq := presenceFreq(ls.Pos)
	negFreq := presenceFreq(ls.Neg)
	type scored struct {
		block int32
		score float64
	}
	var cands []scored
	for b, pf := range posFreq {
		if b == site || pf < opt.MinRecall {
			continue
		}
		cands = append(cands, scored{b, pf - negFreq[b]})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].block < cands[j].block
	})
	if len(cands) > opt.CandidatePool {
		cands = cands[:opt.CandidatePool]
	}
	if len(cands) == 0 {
		return res
	}
	pool := make([]int32, len(cands))
	for i, c := range cands {
		pool[i] = c.block
	}

	// Aliasing model: a k-block context false-fires with probability ≈
	// density^k when its blocks are absent (the runtime hash's set bits
	// cover the context bits by accident). Effective precision and recall
	// therefore include the alias term — which also means aliasing
	// *recovers* some coverage on miss-leading paths that lack the context.
	density := opt.BloomDensity
	if density <= 0 || density >= 1 {
		density = 0.85 // conservative default when unmeasured
	}
	aliasP := func(k int) float64 {
		p := 1.0
		for i := 0; i < k; i++ {
			p *= density
		}
		return p
	}

	var best ContextResult
	best.Baseline = res.Baseline
	eval := func(set []int32) (ContextResult, bool) {
		alias := aliasP(len(set))
		posFrac := fracContainingAll(ls.Pos, set)
		effRecall := posFrac + (1-posFrac)*alias
		if effRecall < opt.MinRecall {
			return ContextResult{}, false
		}
		negFrac := fracContainingAll(ls.Neg, set)
		effNegFire := negFrac + (1-negFrac)*alias
		posMass := float64(ls.PosTotal) * effRecall
		negMass := float64(ls.NegTotal) * effNegFire
		if posMass+negMass == 0 {
			return ContextResult{}, false
		}
		return ContextResult{
			Blocks:    append([]int32(nil), set...),
			Precision: posMass / (posMass + negMass),
			Recall:    effRecall,
			Baseline:  res.Baseline,
		}, true
	}
	better := func(a, b ContextResult) bool {
		if a.Precision != b.Precision {
			return a.Precision > b.Precision
		}
		if a.Recall != b.Recall {
			return a.Recall > b.Recall
		}
		return len(a.Blocks) < len(b.Blocks)
	}

	if opt.MaxPreds <= 4 {
		// Exhaustive combination search (the paper notes this is what makes
		// >4 predecessors cost tens of minutes at scale; ≤4 over a pool of
		// 8 is ≤ 162 subsets).
		subsets(pool, opt.MaxPreds, func(set []int32) {
			if r, ok := eval(set); ok && (best.Blocks == nil || better(r, best)) {
				best = r
			}
		})
	} else {
		// Greedy forward selection for large contexts (Fig. 17's tail);
		// documented substitution for the paper's increasingly expensive
		// exhaustive search.
		var cur []int32
		curRes := ContextResult{Baseline: res.Baseline}
		for len(cur) < opt.MaxPreds {
			improved := false
			var bestNext ContextResult
			var bestBlock int32
			for _, b := range pool {
				if containsVal(cur, b) {
					continue
				}
				if r, ok := eval(append(append([]int32{}, cur...), b)); ok {
					if bestNext.Blocks == nil || better(r, bestNext) {
						bestNext, bestBlock = r, b
					}
				}
			}
			if bestNext.Blocks != nil && (curRes.Blocks == nil || bestNext.Precision > curRes.Precision) {
				cur = append(cur, bestBlock)
				curRes = bestNext
				improved = true
			}
			if !improved {
				break
			}
		}
		best = curRes
	}

	if best.Blocks == nil || best.Precision-res.Baseline < opt.MinPrecisionGain {
		// The context doesn't beat the unconditional baseline enough; §IV:
		// fall back to an unconditional (possibly coalesced) prefetch.
		return res
	}
	sort.Slice(best.Blocks, func(i, j int) bool { return best.Blocks[i] < best.Blocks[j] })
	return best
}

// presenceFreq returns, per block, the fraction of snapshots containing it.
func presenceFreq(snaps [][]int32) map[int32]float64 {
	if len(snaps) == 0 {
		return nil
	}
	counts := make(map[int32]int)
	for _, s := range snaps {
		seen := make(map[int32]bool, len(s))
		for _, b := range s {
			if !seen[b] {
				seen[b] = true
				counts[b]++
			}
		}
	}
	out := make(map[int32]float64, len(counts))
	for b, c := range counts {
		out[b] = float64(c) / float64(len(snaps))
	}
	return out
}

// fracContainingAll returns the fraction of snapshots containing every
// block of set.
func fracContainingAll(snaps [][]int32, set []int32) float64 {
	if len(snaps) == 0 {
		return 0
	}
	n := 0
snapLoop:
	for _, s := range snaps {
		for _, want := range set {
			if !containsVal(s, want) {
				continue snapLoop
			}
		}
		n++
	}
	return float64(n) / float64(len(snaps))
}

func containsVal(s []int32, v int32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// subsets enumerates all non-empty subsets of pool of size ≤ k, calling fn
// with a reused buffer (fn must copy if it keeps the set).
func subsets(pool []int32, k int, fn func([]int32)) {
	var buf []int32
	var rec func(start int)
	rec = func(start int) {
		for i := start; i < len(pool); i++ {
			buf = append(buf, pool[i])
			fn(buf)
			if len(buf) < k {
				rec(i + 1)
			}
			buf = buf[:len(buf)-1]
		}
	}
	rec(0)
}
