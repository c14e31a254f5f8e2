package core

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"
)

// The discovery oracle is only as trustworthy as its immutability. The
// ispy-vet freeze pass stops reference.go from calling the fast path in
// discover.go; this guard stops it from changing unnoticed at all.
const frozenReferenceSHA256 = "c9207619d975e12de6ad1af3678dad0e6be3c44f4c50944958ac27e24ead69a4"

func TestDiscoveryReferenceUnchanged(t *testing.T) {
	data, err := os.ReadFile("reference.go")
	if err != nil {
		t.Fatalf("reading the frozen reference: %v", err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != frozenReferenceSHA256 {
		t.Errorf("reference.go has changed (sha256 %s, pinned %s).\n"+
			"It is the golden oracle of context discovery: DiscoverContext is only "+
			"correct relative to it. If you meant to change the oracle, re-run the "+
			"golden and fuzz tests, justify the change in the commit message, and "+
			"update the pinned hash here. Otherwise revert.", got, frozenReferenceSHA256)
	}
}
