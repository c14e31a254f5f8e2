// Package metrics computes the evaluation metrics of §V ("Evaluation
// metrics") and renders the text tables the experiment harness prints.
package metrics

import (
	"fmt"
	"strings"
)

// Speedup returns the speedup of variantCycles relative to baseCycles as a
// ratio (1.0 = no change).
func Speedup(baseCycles, variantCycles uint64) float64 {
	if variantCycles == 0 {
		return 0
	}
	return float64(baseCycles) / float64(variantCycles)
}

// SpeedupPct returns the speedup as a percentage gain.
func SpeedupPct(baseCycles, variantCycles uint64) float64 {
	return (Speedup(baseCycles, variantCycles) - 1) * 100
}

// PctOfIdeal expresses a variant's speedup as a fraction of the ideal
// cache's speedup (Fig. 10's headline framing), in percent.
func PctOfIdeal(baseCycles, variantCycles, idealCycles uint64) float64 {
	idealGain := Speedup(baseCycles, idealCycles) - 1
	if idealGain <= 0 {
		return 0
	}
	return (Speedup(baseCycles, variantCycles) - 1) / idealGain * 100
}

// Reduction returns the relative reduction from base to variant in percent
// (e.g. MPKI reduction, Fig. 11).
func Reduction(base, variant float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - variant) / base * 100
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Min and Max return the extrema (0 for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value (0 for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Table is a simple fixed-column text table.
type Table struct {
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given headers.
func NewTable(headers ...string) *Table { return &Table{Headers: headers} }

// AddRow appends a row; cells beyond the header count are dropped, missing
// cells render empty.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddRowf appends a row of formatted values: strings pass through, float64
// renders with 2 decimals, everything else via %v.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i := 0; i < len(r) && i < len(widths); i++ {
			if len(r[i]) > widths[i] {
				widths[i] = len(r[i])
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, w := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", w, c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}
