package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestSpeedup(t *testing.T) {
	if Speedup(200, 100) != 2 {
		t.Error("Speedup wrong")
	}
	if Speedup(100, 0) != 0 {
		t.Error("zero-variant guard")
	}
	if SpeedupPct(120, 100) != 20.000000000000004 && math.Abs(SpeedupPct(120, 100)-20) > 1e-9 {
		t.Errorf("SpeedupPct = %v", SpeedupPct(120, 100))
	}
}

func TestPctOfIdeal(t *testing.T) {
	// base 200, ideal 100 (gain 1.0), variant 125 (gain 0.6) → 60%.
	if got := PctOfIdeal(200, 125, 100); math.Abs(got-60) > 1e-9 {
		t.Errorf("PctOfIdeal = %v", got)
	}
	if PctOfIdeal(100, 90, 100) != 0 {
		t.Error("no ideal headroom must yield 0")
	}
}

func TestReduction(t *testing.T) {
	if Reduction(50, 5) != 90 {
		t.Errorf("Reduction = %v", Reduction(50, 5))
	}
	if Reduction(0, 5) != 0 {
		t.Error("zero base guard")
	}
	if Reduction(10, 12) != -20 {
		t.Error("negative reduction must be signed")
	}
}

func TestMeanMinMax(t *testing.T) {
	xs := []float64{2, 4, 9}
	if Mean(xs) != 5 || Min(xs) != 2 || Max(xs) != 9 {
		t.Error("aggregates wrong")
	}
	if Mean(nil) != 0 || Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty-input guards")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("app", "value")
	tb.AddRow("wordpress", "15.5%")
	tb.AddRowf("x", 1.5, "extra-dropped?")
	out := tb.String()
	if !strings.Contains(out, "wordpress") || !strings.Contains(out, "15.5%") {
		t.Errorf("table missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, rule, two rows
		t.Errorf("table has %d lines:\n%s", len(lines), out)
	}
	// Columns align: header and first row start identically padded.
	if !strings.HasPrefix(lines[0], "app") {
		t.Error("header wrong")
	}
	if !strings.Contains(lines[1], "---") {
		t.Error("rule missing")
	}
}

func TestTableShortRow(t *testing.T) {
	tb := NewTable("a", "b", "c")
	tb.AddRow("only")
	if out := tb.String(); !strings.Contains(out, "only") {
		t.Error("short rows must render")
	}
}

func TestAddRowfFormats(t *testing.T) {
	tb := NewTable("a", "b", "c")
	tb.AddRowf("s", 3.14159, 42)
	out := tb.String()
	if !strings.Contains(out, "3.14") || strings.Contains(out, "3.14159") {
		t.Errorf("float formatting wrong:\n%s", out)
	}
	if !strings.Contains(out, "42") {
		t.Error("int formatting wrong")
	}
}
