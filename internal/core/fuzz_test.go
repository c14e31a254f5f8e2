package core

import (
	"math"
	"testing"

	"ispy/internal/profile"
	"ispy/internal/rng"
)

// fuzzInput is the decoded form of one FuzzDiscoverContext input.
type fuzzInput struct {
	ls   *profile.LabeledSet
	site int32
	opt  Options
}

// decodeFuzzInput turns the fuzzer's scalars into a labeled set and options
// in the ranges where the reference answers in milliseconds: up to 64
// snapshots a side of up to 48 blocks from a range of up to 4096 IDs
// anywhere in int32, half the draws from a hot dozen so that frequencies
// straddle MinRecall. The exhaustive search gets pools of up to 16 and the
// greedy search up to 80, wider than one 64-bit word.
func decodeFuzzInput(seed uint64, nPos, nNeg, width uint8, base int32, blockRange uint16,
	posTotal, negTotal uint32, maxPreds, pool, minRecall, density uint8, gain int8, siteOff uint16) fuzzInput {
	span := 1 + int(blockRange)%4096
	base = min(base, math.MaxInt32-int32(span))
	hot := min(span, 12)
	r := rng.New(seed)
	draw := func(n int) [][]int32 {
		out := make([][]int32, n)
		for i := range out {
			s := make([]int32, r.Intn(int(width)%49+1))
			for j := range s {
				if r.Bool(0.5) {
					s[j] = base + int32(r.Intn(hot))
				} else {
					s[j] = base + int32(r.Intn(span))
				}
			}
			out[i] = s
		}
		return out
	}
	ls := &profile.LabeledSet{
		PosTotal: uint64(posTotal),
		NegTotal: uint64(negTotal),
		Pos:      draw(int(nPos) % 65),
		Neg:      draw(int(nNeg) % 65),
	}
	opt := DefaultOptions()
	opt.MaxPreds = int(maxPreds)%15 - 2
	if opt.MaxPreds <= 4 {
		opt.CandidatePool = int(pool) % 17
	} else {
		opt.CandidatePool = int(pool) % 81
	}
	opt.MinRecall = float64(minRecall) / 255
	opt.BloomDensity = float64(density) / 255
	opt.MinPrecisionGain = float64(gain) / 100
	return fuzzInput{ls: ls, site: base + int32(int(siteOff)%span), opt: opt}
}

// FuzzDiscoverContext is the differential fuzz target of the discovery fast
// path: any labeled set and options must give the reference's result bit
// for bit, from a fresh DiscoverContext and from reused scratch, without a
// panic.
func FuzzDiscoverContext(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(60), uint8(32), int32(0), uint16(300), uint32(400), uint32(900),
		uint8(6), uint8(8), uint8(0), uint8(200), int8(0), uint16(3))
	f.Add(uint64(2), uint8(64), uint8(0), uint8(48), int32(-2_000_000_000), uint16(90), uint32(64), uint32(0),
		uint8(10), uint8(80), uint8(60), uint8(80), int8(1), uint16(0))
	f.Add(uint64(3), uint8(12), uint8(12), uint8(4), int32(math.MaxInt32), uint16(4), uint32(12), uint32(12),
		uint8(3), uint8(16), uint8(255), uint8(255), int8(-100), uint16(1))
	f.Fuzz(func(t *testing.T, seed uint64, nPos, nNeg, width uint8, base int32, blockRange uint16,
		posTotal, negTotal uint32, maxPreds, pool, minRecall, density uint8, gain int8, siteOff uint16) {
		in := decodeFuzzInput(seed, nPos, nNeg, width, base, blockRange, posTotal, negTotal,
			maxPreds, pool, minRecall, density, gain, siteOff)
		want := DiscoverContextReference(in.ls, in.site, in.opt)
		if got := DiscoverContext(in.ls, in.site, in.opt); !sameContext(got, want) {
			t.Fatalf("DiscoverContext = %+v, reference = %+v", got, want)
		}
		var d discoverer
		for pass := 0; pass < 2; pass++ {
			if got := d.discover(in.ls, in.site, in.opt); !sameContext(got, want) {
				t.Fatalf("reused scratch, pass %d = %+v, reference = %+v", pass, got, want)
			}
		}
	})
}
