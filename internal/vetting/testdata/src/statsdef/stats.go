// Package statsdef mirrors sim.Stats as a dtaint sink type: its exported
// fields must never take map-iteration-ordered data.
package statsdef

// Stats has exported sink fields and one unexported field dtaint ignores.
type Stats struct {
	A int
	B int
	C int

	internal int
}

// Touch keeps the unexported field in play without exporting it.
func (s *Stats) Touch() { s.internal++ }
