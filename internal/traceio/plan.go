package traceio

import (
	"fmt"
	"io"

	"ispy/internal/cfg"
	"ispy/internal/core"
	"ispy/internal/isa"
)

// WritePlan serializes an injection plan's reporting counters and planned
// prefetch list — the plan section of a cached analysis build. Unlike the
// other formats it carries no magic or version: the artifact container
// around it versions the whole entry, and the bytes stay identical to
// entries written before the codec moved here. The analysis working state
// (Plan.Opt) is not stored.
func WritePlan(w io.Writer, p *core.Plan) error {
	e := newWriter(w)
	e.uvarint(p.MissesTotal)
	e.uvarint(p.MissesPlanned)
	e.uvarint(p.MissesUncovered)
	e.uvarint(uint64(p.DroppedCoalesceTargets))
	for _, xs := range [][]int{p.CoalescedLineCounts, p.CoalesceDistances} {
		e.uvarint(uint64(len(xs)))
		for _, x := range xs {
			e.uvarint(uint64(x))
		}
	}
	e.uvarint(uint64(len(p.Prefetches)))
	for i := range p.Prefetches {
		pf := &p.Prefetches[i]
		e.varint(int64(pf.Site))
		e.uvarint(uint64(pf.Kind))
		e.uvarint(pf.MissCount)
		e.uvarint(uint64(len(pf.Targets)))
		for _, t := range pf.Targets {
			e.varint(int64(t.Block))
			e.varint(int64(t.Delta))
		}
		e.uvarint(uint64(len(pf.CtxBlocks)))
		for _, cb := range pf.CtxBlocks {
			e.varint(int64(cb))
		}
	}
	return e.flush()
}

// ReadPlan deserializes a plan written by WritePlan. The stream must end
// exactly where the plan does: trailing bytes are an error.
func ReadPlan(r io.Reader) (*core.Plan, error) {
	d := newReader(r)
	p := &core.Plan{
		MissesTotal:            d.uvarint(),
		MissesPlanned:          d.uvarint(),
		MissesUncovered:        d.uvarint(),
		DroppedCoalesceTargets: int(d.uvarint()),
	}
	for _, xs := range []*[]int{&p.CoalescedLineCounts, &p.CoalesceDistances} {
		n := d.count(1<<24, "plan list")
		*xs = make([]int, 0, capHint(n, 4096))
		for i := 0; i < n && d.err == nil; i++ {
			*xs = append(*xs, int(d.uvarint()))
		}
	}
	if n := d.count(1<<24, "prefetch"); n > 0 {
		p.Prefetches = make([]core.PlannedPrefetch, 0, capHint(n, 4096))
		for i := 0; i < n && d.err == nil; i++ {
			pf := core.PlannedPrefetch{Site: int32(d.varint()), Kind: isa.Kind(d.uvarint()), MissCount: d.uvarint()}
			if nt := d.count(1<<20, "prefetch target"); nt > 0 {
				pf.Targets = make([]cfg.LineKey, 0, capHint(nt, 64))
				for j := 0; j < nt && d.err == nil; j++ {
					pf.Targets = append(pf.Targets, cfg.LineKey{Block: int32(d.varint()), Delta: int32(d.varint())})
				}
			}
			if nc := d.count(1<<20, "context block"); nc > 0 {
				pf.CtxBlocks = make([]int32, 0, capHint(nc, 64))
				for j := 0; j < nc && d.err == nil; j++ {
					pf.CtxBlocks = append(pf.CtxBlocks, int32(d.varint()))
				}
			}
			p.Prefetches = append(p.Prefetches, pf)
		}
	}
	if d.err == nil {
		if _, err := d.r.ReadByte(); err != io.EOF {
			d.err = fmt.Errorf("traceio: trailing bytes after plan")
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return p, nil
}
