package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	_ "embed"

	"ispy/internal/experiments"
)

// refs.json holds the reference digests for the default seed at the
// default budgets: the rendered fig10 table, each app's analyze and fill
// response, and the first scenario responses of the default request stream.
// Regenerate it with `run.sh --write-refs` after a change that is meant to
// alter outputs.
//
//go:embed refs.json
var refsJSON []byte

type refFile struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
}

func storedRefs() (*refFile, error) {
	var f refFile
	if err := json.Unmarshal(refsJSON, &f); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	return &f, nil
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:8])
}

// checker verifies every operation's output against its reference and
// counts attempted and failed operations.
type checker struct {
	mu        sync.Mutex
	want      map[string]string
	attempted int
	failed    int
	logged    int
}

func (c *checker) reference(key string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.want[key]
	return w, ok
}

// check counts one operation. It fails when err is set, when the status is
// not 200, or when a reference exists for key and the body's digest
// differs from it.
func (c *checker) check(key string, status int, body []byte, err error) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	msg := ""
	switch {
	case err != nil:
		msg = err.Error()
	case status != 200:
		msg = fmt.Sprintf("status %d: %.200s", status, body)
	default:
		if w, ok := c.want[key]; ok && digest(body) != w {
			msg = fmt.Sprintf("digest %s, want %s", digest(body), w)
		}
	}
	if msg == "" {
		return true
	}
	c.failLocked(key + ": " + msg)
	return false
}

// fail counts a failure found after an operation was counted (a traced
// output that differs from the untraced one, or a late reference).
func (c *checker) fail(msg string) {
	c.mu.Lock()
	c.failLocked(msg)
	c.mu.Unlock()
}

func (c *checker) failLocked(msg string) {
	c.failed++
	if c.logged < 10 {
		c.logged++
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", msg)
	}
}

// protect runs f and reports a panic as an error.
func protect(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}

// budget is one request's instruction budget as the server derives it:
// instrs is the request field (0 = the server default), measure and warmup
// the simulated budgets it rescales to.
type budget struct{ instrs, measure, warmup uint64 }

func serverBudget(instrs uint64) budget {
	c := experiments.QuickConfig()
	if instrs > 0 {
		c = c.WithMeasureInstrs(instrs)
	}
	return budget{instrs: instrs, measure: c.MeasureInstrs, warmup: c.WarmupInstrs}
}

// labConfig is the cache-less configuration the references recompute with.
func labConfig(apps []string, b budget) experiments.Config {
	c := experiments.QuickConfig().WithMeasureInstrs(b.measure)
	c.Apps = apps
	c.Parallel = true
	c.Jobs = clients
	return c
}

// labAnalyze recomputes one app's analyze body in process with no artifact
// cache: the reference for a served analyze response.
func labAnalyze(app string, b budget) ([]byte, error) {
	var body []byte
	err := protect(func() error {
		lab := experiments.NewLab(labConfig([]string{app}, b))
		if err := lab.Validate(); err != nil {
			return err
		}
		a := lab.App(app)
		base, build, ispy := a.Base(), a.ISPY(), a.ISPYStats()
		body = encode(analyzeResponse(app, b.measure, base, ispy, build.Plan))
		return nil
	})
	return body, err
}

// labFig10 renders fig10 from a cache-less lab.
func labFig10(cfg experiments.Config) (string, error) {
	var out string
	err := protect(func() error {
		cfg.CacheDir = ""
		lab := experiments.NewLab(cfg)
		if err := lab.Validate(); err != nil {
			return err
		}
		spec, _ := experiments.Get("fig10")
		out = spec.Run(lab).String()
		if !lab.Report().Clean() {
			return fmt.Errorf("fig10: %s", lab.Report().Summary())
		}
		return nil
	})
	return out, err
}
