package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("nearby seeds produced %d identical values", same)
	}
}

func TestSplitMix64Known(t *testing.T) {
	// Reference values for SplitMix64 starting from state 0.
	st := uint64(0)
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	for i, w := range want {
		if got := SplitMix64(&st); got != w {
			t.Errorf("SplitMix64 #%d = %#x, want %#x", i, got, w)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	var s float64
	n := 100000
	for i := 0; i < n; i++ {
		s += r.Float64()
	}
	if m := s / float64(n); m < 0.49 || m > 0.51 {
		t.Errorf("mean = %v, want ≈0.5", m)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(5)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if frac < 0.28 || frac > 0.32 {
		t.Errorf("Bool(0.3) frequency = %v", frac)
	}
}

func TestIntBetween(t *testing.T) {
	r := New(9)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.IntBetween(3, 6)
		if v < 3 || v > 6 {
			t.Fatalf("IntBetween(3,6) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 4 {
		t.Errorf("IntBetween missed values: %v", seen)
	}
	if r.IntBetween(5, 5) != 5 {
		t.Error("degenerate range")
	}
}

func TestIntBetweenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("IntBetween(2,1) should panic")
		}
	}()
	New(1).IntBetween(2, 1)
}

func TestGeometricMean(t *testing.T) {
	r := New(13)
	var s float64
	n := 50000
	for i := 0; i < n; i++ {
		s += float64(r.Geometric(4, 1000))
	}
	if m := s / float64(n); m < 3.7 || m > 4.3 {
		t.Errorf("Geometric(4) mean = %v", m)
	}
	if New(1).Geometric(0.5, 10) != 1 {
		t.Error("mean ≤ 1 must return 1")
	}
	if v := New(1).Geometric(1000, 5); v > 5 {
		t.Error("cap not honored")
	}
}

func TestCategoricalDistribution(t *testing.T) {
	r := New(17)
	c := NewCategorical([]float64{1, 2, 1})
	counts := make([]int, 3)
	n := 100000
	for i := 0; i < n; i++ {
		counts[c.Sample(r)]++
	}
	if f := float64(counts[1]) / float64(n); f < 0.48 || f > 0.52 {
		t.Errorf("weight-2 bucket frequency = %v", f)
	}
	if f := float64(counts[0]) / float64(n); f < 0.23 || f > 0.27 {
		t.Errorf("weight-1 bucket frequency = %v", f)
	}
}

func TestCategoricalZeroWeightNeverSampled(t *testing.T) {
	r := New(19)
	c := NewCategorical([]float64{0, 1, 0})
	for i := 0; i < 1000; i++ {
		if got := c.Sample(r); got != 1 {
			t.Fatalf("sampled zero-weight bucket %d", got)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	for _, w := range [][]float64{{-1, 2}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCategorical(%v) should panic", w)
				}
			}()
			NewCategorical(w)
		}()
	}
}

func TestZipfWeights(t *testing.T) {
	w := ZipfWeights(5, 1.0)
	for i := 1; i < len(w); i++ {
		if w[i] >= w[i-1] {
			t.Errorf("Zipf weights not decreasing at %d", i)
		}
	}
	if math.Abs(w[0]-1) > 1e-9 || math.Abs(w[1]-0.5) > 1e-9 {
		t.Errorf("Zipf(1) head = %v", w[:2])
	}
	u := ZipfWeights(4, 0)
	for _, v := range u {
		if math.Abs(v-1) > 1e-9 {
			t.Errorf("Zipf(0) should be uniform, got %v", u)
		}
	}
}

func TestMathHelpersAgainstStdlib(t *testing.T) {
	f := func(x float64) bool {
		x = math.Abs(x)
		if x < 1e-6 || x > 1e6 || math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		if rel := math.Abs(Ln(x)-math.Log(x)) / (1 + math.Abs(math.Log(x))); rel > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for _, x := range []float64{-5, -0.5, 0, 0.3, 1, 2.5, 10} {
		if rel := math.Abs(Exp(x)-math.Exp(x)) / math.Exp(x); rel > 1e-9 {
			t.Errorf("Exp(%v) off by %v", x, rel)
		}
	}
	for _, c := range []struct{ b, e float64 }{{2, 3}, {1.5, 0.85}, {10, 1.2}, {3, 0}} {
		want := math.Pow(c.b, c.e)
		if rel := math.Abs(powF(c.b, c.e)-want) / want; rel > 1e-8 {
			t.Errorf("powF(%v,%v) off by %v", c.b, c.e, rel)
		}
	}
}
