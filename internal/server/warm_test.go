package server

import (
	"net/http"
	"testing"
)

// maxWarmAllocs caps the allocations of one warm single-app analyze. A warm
// request reads three cached entries and decodes only what the response
// reports (two stats and a plan); regenerating the workload or decoding the
// injected program costs tens of thousands of allocations on its own, so
// either coming back fails this machine-independent guard.
const maxWarmAllocs = 5000

func TestWarmAnalyzeAllocs(t *testing.T) {
	cfg := testConfig(t)
	cfg.CacheDir = t.TempDir()
	s := newTestServer(t, cfg)
	const body = `{"app":"wordpress"}`
	if w := analyze(t, s, body); w.Code != http.StatusOK {
		t.Fatalf("cold analyze = %d: %s", w.Code, w.Body)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if w := analyze(t, s, body); w.Code != http.StatusOK {
			t.Fatalf("warm analyze = %d: %s", w.Code, w.Body)
		}
	})
	t.Logf("warm analyze: %.0f allocations", allocs)
	if allocs > maxWarmAllocs {
		t.Errorf("warm analyze made %.0f allocations, want ≤ %d", allocs, maxWarmAllocs)
	}
}

// BenchmarkServeAnalyzeWarm times one warm single-app analyze through the
// handler at the server's default budget, on a cache the set-up filled:
// the request path of ispyd's common case.
func BenchmarkServeAnalyzeWarm(b *testing.B) {
	s, err := New(Config{CacheDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	const body = `{"app":"wordpress"}`
	if w := analyze(b, s, body); w.Code != http.StatusOK {
		b.Fatalf("cold analyze = %d: %s", w.Code, w.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := analyze(b, s, body); w.Code != http.StatusOK {
			b.Fatalf("warm analyze = %d: %s", w.Code, w.Body)
		}
	}
}
