package profile_test

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"

	"ispy/internal/cfg"
	"ispy/internal/core"
	"ispy/internal/profile"
	"ispy/internal/sim"
	"ispy/internal/workload"
)

// labelDigests pins the labelling pass's output for three presets at a
// reduced budget: the first 8 bytes (hex) of a SHA-256 over every labeled
// set, in (site, target) order. A change to how CollectContexts queues,
// expires, labels or samples snapshots that alters any set shows up here.
var labelDigests = map[string]string{
	"tomcat":    "990cc81db02bd907",
	"verilator": "b21b49e9f55f11f7",
	"wordpress": "cee6a5dcf7c69f21",
}

func labelDigest(t *testing.T, app string) (digest string, sets int) {
	t.Helper()
	w := workload.Preset(app)
	scfg := sim.Default()
	scfg.MaxInstrs = 200_000
	scfg.WarmupInstrs = 50_000
	scfg = scfg.WithWorkloadCPI(w.Params.BackendCPI)
	p := profile.Collect(w, workload.DefaultInput(w), scfg)
	prep := core.Prepare(p, scfg, core.DefaultOptions())
	if prep.CP == nil {
		t.Fatalf("%s: no labelling pass ran", app)
	}

	type key struct {
		site   int32
		target cfg.LineKey
	}
	var keys []key
	for _, c := range prep.Needs {
		keys = append(keys, key{c.Site, c.Target})
	}
	slices.SortFunc(keys, func(a, b key) int {
		return cmp.Or(cmp.Compare(a.site, b.site),
			cmp.Compare(a.target.Block, b.target.Block),
			cmp.Compare(a.target.Delta, b.target.Delta))
	})
	keys = slices.Compact(keys)
	if len(keys) != len(prep.CP.Sets) {
		t.Fatalf("%s: %d instrumented pairs but %d labeled sets", app, len(keys), len(prep.CP.Sets))
	}

	h := sha256.New()
	put := func(vs ...any) {
		for _, v := range vs {
			if err := binary.Write(h, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	snaps := func(ss [][]int32) {
		put(uint64(len(ss)))
		for _, s := range ss {
			put(uint64(len(s)), s)
		}
	}
	for _, k := range keys {
		ls := prep.CP.Get(k.site, k.target)
		put(k.site, k.target.Block, k.target.Delta, ls.PosTotal, ls.NegTotal)
		snaps(ls.Pos)
		snaps(ls.Neg)
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), len(keys)
}

func TestCollectContextsGolden(t *testing.T) {
	for app, want := range labelDigests {
		got, sets := labelDigest(t, app)
		if got != want {
			t.Errorf("%s: labelled-set digest %s over %d sets, want %s", app, got, sets, want)
		}
	}
}
