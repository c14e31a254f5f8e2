package traceio

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"testing"

	"ispy/internal/cfg"
	"ispy/internal/core"
	"ispy/internal/isa"
	"ispy/internal/workload"
)

// pinnedPlan exercises every field of the plan section: negative varints,
// a 2^40 miss count, empty and multi-element lists.
func pinnedPlan() *core.Plan {
	return &core.Plan{
		MissesTotal: 1234567, MissesPlanned: 999, MissesUncovered: 300,
		DroppedCoalesceTargets: 2,
		CoalescedLineCounts:    []int{2, 3, 8},
		CoalesceDistances:      []int{1, 5, 130},
		Prefetches: []core.PlannedPrefetch{
			{Site: 7, Kind: isa.KindPrefetch, MissCount: 40, Targets: []cfg.LineKey{{Block: 12, Delta: -64}}},
			{Site: 300, Kind: isa.KindCLprefetch, MissCount: 1 << 40,
				Targets:   []cfg.LineKey{{Block: 1000, Delta: 0}, {Block: 1001, Delta: 128}},
				CtxBlocks: []int32{3, 90, 1500}},
		},
	}
}

// TestPlanBytesPinned: the plan section must encode byte-for-byte as the
// artifact cache wrote it before the codec moved into traceio, so cache
// directories filled by older builds keep hitting. The hex strings are the
// plan sections the earlier hand-written encoder produced.
func TestPlanBytesPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		plan *core.Plan
		hex  string
	}{
		{"pinned", pinnedPlan(), "87ad4be707ac0202030203080301058201020e082801187f00d8040b80808080802002d00f00d20f80020306b401b817"},
		{"empty", &core.Plan{}, "00000000000000"},
	} {
		var buf bytes.Buffer
		if err := WritePlan(&buf, c.plan); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != c.hex {
			t.Errorf("%s plan encodes as %s, want %s", c.name, got, c.hex)
		}
	}
	raw, _ := hex.DecodeString("87ad4be707ac0202030203080301058201020e082801187f00d8040b80808080802002d00f00d20f80020306b401b817")
	got, err := ReadPlan(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, pinnedPlan()) {
		t.Errorf("pinned plan decodes as %+v, want %+v", got, pinnedPlan())
	}
}

// TestReadPlanRejectsMalformed: every guard of the old hand-written decoder
// holds — trailing bytes, oversized counts, truncation.
func TestReadPlanRejectsMalformed(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePlan(&buf, pinnedPlan()); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	oversized := func(lists int, n uint64) []byte {
		var b bytes.Buffer
		e := newWriter(&b)
		for i := 0; i < 4; i++ {
			e.uvarint(0) // counters
		}
		for i := 0; i < lists; i++ {
			e.uvarint(0)
		}
		e.uvarint(n)
		if err := e.flush(); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	prefetchHeader := func(field int, n uint64) []byte {
		var b bytes.Buffer
		e := newWriter(&b)
		for i := 0; i < 6; i++ {
			e.uvarint(0) // counters, two empty lists
		}
		e.uvarint(1) // one prefetch
		e.varint(1)
		e.uvarint(uint64(isa.KindPrefetch))
		e.uvarint(1)
		if field == 1 {
			e.uvarint(0) // no targets
		}
		e.uvarint(n)
		if err := e.flush(); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for name, data := range map[string][]byte{
		"trailing":          append(append([]byte(nil), enc...), 0),
		"truncated":         enc[:len(enc)-1],
		"empty":             nil,
		"line counts":       oversized(0, 1<<24+1),
		"distances":         oversized(1, 1<<24+1),
		"prefetches":        oversized(2, 1<<24+1),
		"targets":           prefetchHeader(0, 1<<20+1),
		"context blocks":    prefetchHeader(1, 1<<20+1),
		"uint64 line count": oversized(0, 1<<63+5),
	} {
		if _, err := ReadPlan(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: malformed plan decoded without error", name)
		}
	}
}

// tinyWorkload is a workload whose program matches tinyProfile's graph.
func tinyWorkload(t testing.TB) *workload.Workload {
	return &workload.Workload{Name: "w", Params: workload.Params{Seed: 1}, Prog: tinyProgram(t)}
}

// TestBindChecksIdentityAndShape: Bind accepts a profile that fits the
// workload and rejects, with a decode-style error rather than a later index
// panic, every reference outside the program.
func TestBindChecksIdentityAndShape(t *testing.T) {
	if p, err := tinyProfile().Bind(tinyWorkload(t)); err != nil || p.Graph.NumBlocks != 2 || p.Stats.Cycles != 100 || p.Input.Seed != 2 {
		t.Fatalf("Bind of a fitting profile = %+v, %v", p, err)
	}
	for _, c := range []struct {
		name   string
		tamper func(pd *ProfileData)
		stale  bool
		want   string
	}{
		{"other app", func(pd *ProfileData) { pd.WorkloadName = "v" }, true, "collected on v"},
		{"other seed", func(pd *ProfileData) { pd.WorkloadSeed = 9 }, true, "seed 0x9"},
		{"block count", func(pd *ProfileData) { pd.Graph = cfg.NewGraph(3) }, false, "has 3 blocks"},
		{"site block", func(pd *ProfileData) {
			g := pd.Graph
			s := g.Sites[cfg.LineKey{Block: 1}]
			delete(g.Sites, s.Key)
			s.Key.Block = 2
			g.Sites[s.Key] = s
		}, false, "1 sites, 0 predecessors, 0 edge targets"},
		{"pred block", func(pd *ProfileData) {
			pd.Graph.Sites[cfg.LineKey{Block: 1}].Samples[0].Preds[0].Block = -1
		}, false, "0 sites, 1 predecessors"},
		{"edge target", func(pd *ProfileData) { pd.Graph.Edges[1] = map[int32]uint64{1 << 28: 1, 7: 1} }, false, "2 edge targets"},
	} {
		pd := tinyProfile()
		c.tamper(pd)
		_, err := pd.Bind(tinyWorkload(t))
		if err == nil || !strings.Contains(err.Error(), c.want) || errors.Is(err, ErrStaleProfile) != c.stale {
			t.Errorf("%s: Bind error = %v, want %q (stale %v)", c.name, err, c.want, c.stale)
		}
	}
}
