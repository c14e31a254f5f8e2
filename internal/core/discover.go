// The context-discovery fast path. It computes exactly what
// DiscoverContextReference computes, with a different representation:
//
//   - Block presence is recorded in dense per-block cells, indexed by block
//     ID relative to the smallest ID in the positive snapshots, instead of
//     in a map per snapshot.
//   - Each block gets a bitmask over the snapshots, one bit per snapshot
//     that contains it (its column). A block's presence count is the
//     column's popcount, and the number of snapshots containing every block
//     of a subset is the popcount of the AND of their columns. The
//     depth-first subset enumeration keeps the running AND of each prefix,
//     so scoring a subset costs one AND per 64 snapshots instead of a
//     linear containsVal scan of every snapshot per block. Any pool width
//     and any snapshot count use the same code.
//   - Blocks is allocated once, for the winning subset.
//
// The subset enumeration order, the (score, block) candidate order, the
// tie-breaks and every floating-point operation are the reference's, so the
// results are bit-identical (golden_test.go and FuzzDiscoverContext hold
// the two to that).
package core

import (
	"math/bits"
	"slices"
	"sync"

	"ispy/internal/profile"
)

// DiscoverContext runs predictor ranking plus combination search over the
// labeled evidence. site excludes itself from candidate predictors.
func DiscoverContext(ls *profile.LabeledSet, site int32, opt Options) ContextResult {
	d := scratch.Get().(*discoverer)
	defer scratch.Put(d)
	return d.discover(ls, site, opt)
}

// scratch recycles discoverers across calls, so the per-block cells of a
// build's thousands of discovery calls are allocated a handful of times
// rather than once per call. A discoverer's state never reaches a result.
var scratch = sync.Pool{New: func() any { return new(discoverer) }}

// discoverer is reusable discovery scratch. Its cells take memory
// proportional to the span of block IDs in one call's positive snapshots
// (at most the program's block count). Every call leaves every cell at
// zero, resetting only the cells it touched.
type discoverer struct {
	// cells holds, per block offset, 0 for a block not seen in a positive
	// snapshot, i+1 once it owns positive column i, and -(j+1) once it is
	// candidate j.
	cells   []int32
	touched []uint32 // offsets of the seen blocks; touched[i] owns column i
	posCols []uint64 // positive columns, words(len(Pos)) each
	negCols []uint64 // negative columns of the candidates, words(len(Neg)) each
	cands   []poolCand
	accPos  []uint64 // running ANDs of the positive columns, one per depth
	accNeg  []uint64 // the same for the negative columns
	stack   []int32  // pool indices of the subset being scored
	best    []int32  // pool indices of the best subset so far
	chosen  []bool   // greedy search: pool indices already in the context
	alias   []float64
	fracs   []float64 // c/n for every count c: positives, then negatives
}

// poolCand is a block eligible for the pool.
type poolCand struct {
	block  int32
	posCol int32 // index of its positive column
	negCol int32 // index of its negative column
	score  float64
}

// words is the number of uint64 words holding n bits.
func words(n int) int { return (n + 63) / 64 }

func (d *discoverer) discover(ls *profile.LabeledSet, site int32, opt Options) ContextResult {
	opt = opt.withDefaults()
	total := ls.PosTotal + ls.NegTotal
	res := ContextResult{}
	if total == 0 || ls.PosTotal == 0 || len(ls.Pos) == 0 {
		return res
	}
	res.Baseline = float64(ls.PosTotal) / float64(total)
	lo, span := blockSpan(ls.Pos)
	if span == 0 {
		return res // every positive snapshot is empty: no candidates
	}
	if uint64(len(d.cells)) < span {
		d.cells = make([]int32, span)
	}
	pool := d.rank(ls, site, opt, lo, span)
	if len(pool) > 0 {
		res = d.search(ls, opt, pool, res)
	}
	for _, off := range d.touched {
		d.cells[off] = 0
	}
	d.touched = d.touched[:0]
	return res
}

// blockSpan returns the smallest block ID in snaps and the width of the ID
// range (0 when every snapshot is empty).
func blockSpan(snaps [][]int32) (lo int32, span uint64) {
	first := true
	var hi int32
	for _, s := range snaps {
		for _, b := range s {
			if first {
				lo, hi, first = b, b, false
			} else if b < lo {
				lo = b
			} else if b > hi {
				hi = b
			}
		}
	}
	if first {
		return 0, 0
	}
	return lo, uint64(int64(hi)-int64(lo)) + 1
}

// rank records block presence and returns the candidate pool: the blocks
// present in at least MinRecall of the positive snapshots (the site
// excluded), best first by (pos − neg frequency, block), cut to
// CandidatePool.
func (d *discoverer) rank(ls *profile.LabeledSet, site int32, opt Options, lo int32, span uint64) []poolCand {
	wp := words(len(ls.Pos))
	d.posCols = d.posCols[:0]
	for s, snap := range ls.Pos {
		w, bit := s>>6, uint64(1)<<(s&63)
		for _, b := range snap {
			off := uint32(b) - uint32(lo)
			c := d.cells[off]
			if c == 0 {
				d.touched = append(d.touched, off)
				n := len(d.posCols)
				d.posCols = slices.Grow(d.posCols, wp)[:n+wp]
				clear(d.posCols[n:])
				c = int32(len(d.touched))
				d.cells[off] = c
			}
			d.posCols[int(c-1)*wp+w] |= bit
		}
	}

	nPos := float64(len(ls.Pos))
	d.cands = d.cands[:0]
	for i, off := range d.touched {
		b := int32(uint32(lo) + off)
		pf := float64(popcount(d.posCols[i*wp:(i+1)*wp])) / nPos
		if b == site || pf < opt.MinRecall {
			continue
		}
		d.cands = append(d.cands, poolCand{block: b, posCol: int32(i), negCol: int32(len(d.cands)), score: pf})
		d.cells[off] = -int32(len(d.cands))
	}
	if len(d.cands) == 0 {
		return nil
	}

	wn := words(len(ls.Neg))
	d.negCols = resize(d.negCols, len(d.cands)*wn)
	clear(d.negCols)
	for s, snap := range ls.Neg {
		w, bit := s>>6, uint64(1)<<(s&63)
		for _, b := range snap {
			off := uint64(uint32(b) - uint32(lo))
			if off >= span {
				continue
			}
			if c := d.cells[off]; c < 0 {
				d.negCols[int(-c-1)*wn+w] |= bit
			}
		}
	}
	for i := range d.cands {
		c := &d.cands[i]
		nf := 0.0
		if n := popcount(d.negCols[i*wn : (i+1)*wn]); n > 0 {
			nf = float64(n) / float64(len(ls.Neg))
		}
		c.score -= nf // c.score held the positive frequency
	}
	slices.SortFunc(d.cands, func(a, b poolCand) int {
		if a.score != b.score {
			if a.score > b.score {
				return -1
			}
			return 1
		}
		if a.block < b.block {
			return -1
		}
		return 1
	})
	if len(d.cands) > opt.CandidatePool {
		return d.cands[:opt.CandidatePool]
	}
	return d.cands
}

// scorer evaluates subsets of the pool from their snapshot counts.
type scorer struct {
	posFrac, negFrac   []float64 // by snapshot count
	posTotal, negTotal float64
	minRecall          float64
	alias              []float64
}

// search runs the combination search of DiscoverContextReference over the
// pool's columns and returns the adopted context, or base when none beats
// the baseline by MinPrecisionGain.
func (d *discoverer) search(ls *profile.LabeledSet, opt Options, pool []poolCand, base ContextResult) ContextResult {
	// Aliasing model (see DiscoverContextReference): a k-block context
	// false-fires with probability density^k, multiplied out in the same
	// order as the reference's aliasP.
	density := opt.BloomDensity
	if density <= 0 || density >= 1 {
		density = 0.85 // conservative default when unmeasured
	}
	d.alias = resize(d.alias, len(pool)+1)
	d.alias[0] = 1.0
	for k := 1; k <= len(pool); k++ {
		d.alias[k] = d.alias[k-1] * density
	}
	// Fractions of snapshots, by count: the reference's fracContainingAll
	// divides the same two integers.
	d.fracs = resize(d.fracs, len(ls.Pos)+len(ls.Neg)+2)
	posFrac, negFrac := d.fracs[:len(ls.Pos)+1], d.fracs[len(ls.Pos)+1:]
	fracTable(posFrac)
	fracTable(negFrac)
	sc := scorer{
		posFrac:   posFrac,
		negFrac:   negFrac,
		posTotal:  float64(ls.PosTotal),
		negTotal:  float64(ls.NegTotal),
		minRecall: opt.MinRecall,
		alias:     d.alias,
	}

	// Level k of accPos/accNeg holds the AND of the columns of the first k
	// blocks of the subset; level 0 is all ones.
	wp, wn := words(len(ls.Pos)), words(len(ls.Neg))
	levels := min(max(opt.MaxPreds, 1), len(pool)) + 1
	d.accPos = resize(d.accPos, levels*wp)
	d.accNeg = resize(d.accNeg, levels*wn)
	for i := 0; i < wp; i++ {
		d.accPos[i] = ^uint64(0)
	}
	for i := 0; i < wn; i++ {
		d.accNeg[i] = ^uint64(0)
	}
	level := func(acc []uint64, w, k int) []uint64 { return acc[k*w : (k+1)*w] }
	posCol := func(c poolCand) []uint64 { return d.posCols[int(c.posCol)*wp : int(c.posCol+1)*wp] }
	negCol := func(c poolCand) []uint64 { return d.negCols[int(c.negCol)*wn : int(c.negCol+1)*wn] }
	d.stack = resize(d.stack, len(pool))
	d.best = resize(d.best, len(pool))
	stack, best := d.stack, d.best

	var found bool
	var bestP, bestR float64
	var bestK int
	if opt.MaxPreds <= 4 {
		// Exhaustive search, in the reference's subsets order: depth-first,
		// each subset scored before its extensions.
		var rec func(start, k int)
		rec = func(start, k int) {
			if start >= len(pool) {
				return
			}
			prevP, curP := level(d.accPos, wp, k-1), level(d.accPos, wp, k)
			prevN, curN := level(d.accNeg, wn, k-1), level(d.accNeg, wn, k)
			for i := start; i < len(pool); i++ {
				stack[k-1] = int32(i)
				pc := andCount(curP, prevP, posCol(pool[i]))
				nc := andCount(curN, prevN, negCol(pool[i]))
				if p, r, ok := sc.eval(k, pc, nc); ok && (!found || better(p, r, k, bestP, bestR, bestK)) {
					found, bestP, bestR, bestK = true, p, r, k
					copy(best, stack[:k])
				}
				if k < opt.MaxPreds {
					rec(i+1, k+1)
				}
			}
		}
		rec(0, 1)
	} else {
		// Greedy forward selection: each round adds the pool block whose
		// extension scores best, while precision strictly improves.
		d.chosen = resize(d.chosen, len(pool))
		clear(d.chosen)
		curP, trialP := level(d.accPos, wp, 0), level(d.accPos, wp, 1)
		curN, trialN := level(d.accNeg, wn, 0), level(d.accNeg, wn, 1)
		for bestK < opt.MaxPreds {
			next := -1
			var nextP, nextR float64
			for i, c := range pool {
				if d.chosen[i] {
					continue
				}
				pc := andCount(trialP, curP, posCol(c))
				nc := andCount(trialN, curN, negCol(c))
				if p, r, ok := sc.eval(bestK+1, pc, nc); ok && (next < 0 || better(p, r, bestK+1, nextP, nextR, bestK+1)) {
					next, nextP, nextR = i, p, r
				}
			}
			if next < 0 || (found && !(nextP > bestP)) {
				break
			}
			d.chosen[next] = true
			best[bestK] = int32(next)
			andCount(curP, curP, posCol(pool[next]))
			andCount(curN, curN, negCol(pool[next]))
			found, bestP, bestR = true, nextP, nextR
			bestK++
		}
	}

	if !found || bestP-base.Baseline < opt.MinPrecisionGain {
		return base
	}
	blocks := make([]int32, bestK)
	for i, idx := range best[:bestK] {
		blocks[i] = pool[idx].block
	}
	slices.Sort(blocks)
	return ContextResult{Blocks: blocks, Precision: bestP, Recall: bestR, Baseline: base.Baseline}
}

// better is the reference's preference between two scored subsets of
// sizes ak and bk: higher precision, then higher recall, then fewer blocks.
func better(ap, ar float64, ak int, bp, br float64, bk int) bool {
	if ap != bp {
		return ap > bp
	}
	if ar != br {
		return ar > br
	}
	return ak < bk
}

// eval scores a k-block subset contained in pc positive and nc negative
// snapshots exactly as the reference's eval closure does; ok is false when
// the subset misses the recall floor or fires on no mass.
func (s *scorer) eval(k, pc, nc int) (precision, recall float64, ok bool) {
	alias := s.alias[k]
	posFrac := s.posFrac[pc]
	effRecall := posFrac + (1-posFrac)*alias
	if effRecall < s.minRecall {
		return 0, 0, false
	}
	negFrac := s.negFrac[nc]
	effNegFire := negFrac + (1-negFrac)*alias
	posMass := s.posTotal * effRecall
	negMass := s.negTotal * effNegFire
	if posMass+negMass == 0 {
		return 0, 0, false
	}
	return posMass / (posMass + negMass), effRecall, true
}

// fracTable fills t[c] with c/n for the n = len(t)-1 snapshots of one
// side (all zero when there are none).
func fracTable(t []float64) {
	n := len(t) - 1
	for c := range t {
		if n > 0 {
			t[c] = float64(c) / float64(n)
		} else {
			t[c] = 0
		}
	}
}

// andCount stores a AND b into dst and returns its popcount. dst may alias
// a.
func andCount(dst, a, b []uint64) int {
	n := 0
	for i := range dst {
		dst[i] = a[i] & b[i]
		n += bits.OnesCount64(dst[i])
	}
	return n
}

// popcount returns the number of set bits in ws.
func popcount(ws []uint64) int {
	n := 0
	for _, w := range ws {
		n += bits.OnesCount64(w)
	}
	return n
}

// resize returns s with length n, reallocating only when it must grow.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
