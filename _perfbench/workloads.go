package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ispy/internal/artifacts"
	"ispy/internal/experiments"
	"ispy/internal/rng"
	"ispy/internal/server"
	"ispy/internal/workload"
)

// clients is the closed loop's client count and the server's pool size:
// the benchmark machine's core count (nproc = 2).
const clients = 2

// outcome is what one workload run measured.
type outcome struct {
	setup   []time.Duration // each set-up repetition
	cold    []time.Duration // cold operations (analyze cold pass, scenario fill)
	op      []time.Duration // timed operations, untraced
	elapsed time.Duration   // wall time of the untraced timed region
	tailP   float64         // the percentile op_tail_ms reports

	t      *tracer         // traced half (trace runs only)
	traced []time.Duration // traced operations' wall time
	model  *model          // fig10's modelled averages (fig10-cold traced only)
}

func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// closedLoop runs the clients: each sends its next request only after its
// previous one completed, until dur has passed or next has none left. It
// returns the wall time until the last client finished.
func closedLoop(dur time.Duration, next func() (int, bool), do func(client, i int)) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				i, ok := next()
				if !ok {
					return
				}
				do(c, i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// counter hands out stream indices; limit < 0 means unbounded.
func counter(n *atomic.Int64, limit int) func() (int, bool) {
	return func() (int, bool) {
		i := int(n.Add(1) - 1)
		return i, limit < 0 || i < limit
	}
}

// latencies gathers per-client samples after the loop has ended.
type latencies [clients][]time.Duration

func (l *latencies) all() []time.Duration {
	var out []time.Duration
	for _, s := range l {
		out = append(out, s...)
	}
	return out
}

func permute(r *rng.Rand, xs []string) []string {
	out := append([]string(nil), xs...)
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// ---- fig10-cold -------------------------------------------------------

func fig10Cold(o *options, chk *checker, work string) (*outcome, error) {
	spec, _ := experiments.Get("fig10")
	out := &outcome{tailP: 0.5}
	regenerate := func(cfg experiments.Config, dir string) (string, error) {
		var s string
		err := protect(func() error {
			cfg.CacheDir = dir
			lab := experiments.NewLab(cfg)
			if err := lab.Validate(); err != nil {
				return err
			}
			s = spec.Run(lab).String()
			if !lab.Report().Clean() {
				return fmt.Errorf("fig10: %s", lab.Report().Summary())
			}
			return nil
		})
		return s, err
	}
	// Set-up: a reduced-budget regeneration in its own empty cache, so the
	// first timed regeneration finds the process heap and the page cache
	// as later ones do.
	// The warm-up is short, so it repeats more often than the servers' set-up.
	for i := 0; i < o.setups+2; i++ {
		t0 := time.Now()
		dir, err := os.MkdirTemp(work, "setup")
		if err != nil {
			return nil, err
		}
		if _, err := regenerate(o.fig10Warm, dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setup = append(out.setup, time.Since(t0))
		os.RemoveAll(dir)
	}

	half := o.dur
	if o.trace {
		half /= 2
	}
	// A regeneration starts only if one as long as the last still ends
	// inside the timed region, so runs do not overshoot it by a whole one.
	var untraced string
	var last time.Duration
	start := time.Now()
	for n := 0; n == 0 || time.Since(start)+last <= half; n++ {
		dir, err := os.MkdirTemp(work, "fig10")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		s, err := regenerate(o.fig10, dir)
		d := time.Since(t0)
		chk.check("fig10", 200, []byte(s), err)
		out.op = append(out.op, d)
		out.elapsed += d
		last = d
		if untraced == "" {
			untraced = s
		}
		os.RemoveAll(dir)
	}
	if !o.trace {
		return out, nil
	}

	out.t = newTracer()
	b := budget{measure: o.fig10.MeasureInstrs, warmup: o.fig10.WarmupInstrs}
	start = time.Now()
	for n := 0; n == 0 || time.Since(start)+last <= half; n++ {
		dir, err := os.MkdirTemp(work, "traced")
		if err != nil {
			return nil, err
		}
		var s string
		var m model
		t0 := time.Now()
		err = protect(func() error {
			c, err := artifacts.Open(dir)
			if err != nil {
				return err
			}
			pl := &pipe{cache: c, sc: scope{t: out.t, req: int64(n), parent: -1}}
			s, m = pl.fig10(o.fig10.Apps, b)
			return nil
		})
		d := time.Since(t0)
		out.t.addWall(d)
		out.traced = append(out.traced, d)
		last = d
		if chk.check("fig10", 200, []byte(s), err) && s != untraced {
			chk.fail("fig10: traced output differs from the untraced output")
		}
		out.model = &m
		os.RemoveAll(dir)
	}
	return out, nil
}

// ---- analyze-warm -----------------------------------------------------

func analyzeBody(app string, instrs uint64) []byte {
	b, _ := json.Marshal(server.AnalyzeRequest{App: app, Instrs: instrs}) // a struct of a string and a number always encodes
	return b
}

// zipfStream draws n apps with Zipf(1.1) popularity, ranked in preset
// order. The ranking is fixed so that every seed sends the same mix of
// cheap and expensive apps; the seed varies the sequence.
func zipfStream(r *rng.Rand, apps []string, n int) []string {
	cat := rng.NewCategorical(rng.ZipfWeights(len(apps), 1.1))
	out := make([]string, n)
	for i := range out {
		out[i] = apps[cat.Sample(r)]
	}
	return out
}

// analyzeStreamLen exceeds what a run can send; the stream wraps if not.
const analyzeStreamLen = 1 << 16

func analyzeWarm(o *options, chk *checker, work string) (*outcome, error) {
	out := &outcome{tailP: 0.90}
	apps := workload.AppNames
	r := rng.New(o.seed ^ 0xa11a1e)
	coldOrder := permute(r, apps)
	stream := zipfStream(r, apps, analyzeStreamLen)
	bodies := map[string][]byte{}
	for _, a := range apps {
		bodies[a] = analyzeBody(a, o.analyze.instrs)
	}
	if o.trace {
		out.t = newTracer()
	}

	// Set-up: a fresh server and cache, filled by the cold pass.
	var svc *service
	for i := 0; i < o.setups; i++ {
		if svc != nil {
			svc.close()
			os.RemoveAll(svc.dir)
		}
		dir, err := os.MkdirTemp(work, "srv")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if svc, err = startService(dir, out.t); err != nil {
			return nil, err
		}
		for _, app := range coldOrder {
			status, body, d, err := svc.post(bodies[app])
			chk.check("analyze/"+app, status, body, err)
			out.cold = append(out.cold, d)
		}
		out.setup = append(out.setup, time.Since(t0))
	}
	defer svc.close()

	half := o.dur
	if o.trace {
		half /= 2
	}
	var next atomic.Int64
	var lat latencies
	out.elapsed = closedLoop(half, counter(&next, -1), func(c, i int) {
		app := stream[i%len(stream)]
		status, body, d, err := svc.post(bodies[app])
		chk.check("analyze/"+app, status, body, err)
		lat[c] = append(lat[c], d)
	})
	out.op = lat.all()

	if o.trace {
		rc, err := redriveCache(work, svc.dir)
		if err != nil {
			return nil, err
		}
		var tl latencies
		closedLoop(half, counter(&next, -1), func(c, i int) {
			app := stream[i%len(stream)]
			id := int64(i)
			status, body, d, idx, err := svc.tracedPost(bodies[app], id, c)
			out.t.addWall(d)
			tl[c] = append(tl[c], d)
			if !chk.check("analyze/"+app, status, body, err) {
				return
			}
			pl := &pipe{cache: rc, sc: scope{t: out.t, req: id, client: c, parent: idx}}
			var again []byte
			err = protect(func() error { again = pl.analyzeApp(app, o.analyze); return nil })
			if err != nil || !bytes.Equal(again, body) {
				chk.fail("analyze/" + app + ": traced re-drive differs from the served body")
			}
		})
		out.traced = tl.all()
	}

	// Seeds other than the reference seed are also checked against a
	// cache-less recomputation of a seeded sample of apps.
	if o.recompute {
		for _, app := range permute(r, apps)[:2] {
			body, err := labAnalyze(app, o.analyze)
			if err != nil {
				chk.fail("analyze/" + app + " recomputation: " + err.Error())
				continue
			}
			if w, ok := chk.reference("analyze/" + app); !ok || w != digest(body) {
				chk.fail("analyze/" + app + ": cache-less recomputation differs from the reference")
			}
		}
	}
	return out, nil
}

// redriveCache copies a server's cache so the re-driven pipeline finds
// what the server found without touching the server's own files.
func redriveCache(work, src string) (*artifacts.Cache, error) {
	dir, err := os.MkdirTemp(work, "redrive")
	if err != nil {
		return nil, err
	}
	if err := copyDir(src, dir); err != nil {
		return nil, err
	}
	return artifacts.Open(dir)
}

// ---- scenario-fresh ---------------------------------------------------

// scenarioTenants is the nine-tenant population every scenario request
// uses: one tenant per preset, spread over three SLO classes.
var scenarioTenants = func() string {
	slo := []string{"interactive", "std", "batch"}
	var ts []string
	for i, a := range workload.AppNames {
		ts = append(ts, a+":slo="+slo[i%len(slo)])
	}
	return strings.Join(ts, ",")
}()

func scenarioSpec(seed uint64) string {
	return fmt.Sprintf("name=fresh;seed=%d;arrival=gamma:0.5;day=0.5,1.0,2.0,1.0;zipf=1.1;tenants=%s", seed, scenarioTenants)
}

func scenarioBody(seed, instrs uint64) []byte {
	b, _ := json.Marshal(server.AnalyzeRequest{Scenario: scenarioSpec(seed), Instrs: instrs}) // strings and a number always encode
	return b
}

// scenarioSeeds draws n distinct scenario seeds.
func scenarioSeeds(r *rng.Rand, n int) []uint64 {
	seen := map[uint64]bool{}
	out := make([]uint64, 0, n)
	for len(out) < n {
		s := r.Uint64()%(1<<31) + 1
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// scenarioStreamLen exceeds what a run can send; the loop stops rather
// than repeat a seed, since a repeat would be served from the cache.
const scenarioStreamLen = 4096

// scenarioSample is how many of the first sampleWindow requests are
// recomputed without a cache when no stored digest covers them.
const (
	scenarioSample = 3
	sampleWindow   = 24
)

// scenarioShape checks what every scenario body must hold, with or without
// a reference digest.
func scenarioShape(body []byte) error {
	var resp server.AnalyzeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if resp.Scenario != "fresh" || len(resp.Tenants) != len(workload.AppNames) || resp.Baseline.Cycles == 0 || resp.ISPY.Cycles == 0 {
		return fmt.Errorf("malformed scenario response %.200s", body)
	}
	return nil
}

// scenarioStream derives scenario-fresh's inputs from the workload seed:
// the scenario seeds and the indices sampled for recomputation.
func scenarioStream(seed uint64) ([]uint64, map[int]bool) {
	r := rng.New(seed ^ 0x5ce4a210)
	seeds := scenarioSeeds(r, scenarioStreamLen)
	sample := map[int]bool{}
	for len(sample) < scenarioSample {
		sample[r.Intn(sampleWindow)] = true
	}
	return seeds, sample
}

func scenarioFresh(o *options, chk *checker, work string) (*outcome, error) {
	out := &outcome{tailP: 0.90}
	apps := workload.AppNames
	seeds, sample := scenarioStream(o.seed)
	if o.trace {
		out.t = newTracer()
	}

	// Set-up: a fresh server whose cache is filled with the nine per-app
	// builds at the scenario budget, by single-app analyze requests in
	// preset order (a seeded order would pair different apps on the two
	// clients from seed to seed, and the fill times with them).
	fillOrder := apps
	var svc *service
	for i := 0; i < o.setups; i++ {
		if svc != nil {
			svc.close()
			os.RemoveAll(svc.dir)
		}
		dir, err := os.MkdirTemp(work, "srv")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if svc, err = startService(dir, out.t); err != nil {
			return nil, err
		}
		var next atomic.Int64
		var lat latencies
		closedLoop(time.Hour, counter(&next, len(fillOrder)), func(c, i int) {
			app := fillOrder[i]
			status, body, d, err := svc.post(analyzeBody(app, o.scenario.instrs))
			chk.check("fill/"+app, status, body, err)
			lat[c] = append(lat[c], d)
		})
		out.setup = append(out.setup, time.Since(t0))
		out.cold = append(out.cold, lat.all()...)
	}
	defer svc.close()

	var mu sync.Mutex
	served := map[int][]byte{}
	serve := func(i int, status int, body []byte, err error) bool {
		if err == nil && status == 200 {
			err = scenarioShape(body)
		}
		ok := chk.check(fmt.Sprintf("scenario/%d", seeds[i]), status, body, err)
		if sample[i] {
			mu.Lock()
			served[i] = body
			mu.Unlock()
		}
		return ok
	}

	half := o.dur
	if o.trace {
		half /= 2
	}
	var next atomic.Int64
	var lat latencies
	out.elapsed = closedLoop(half, counter(&next, len(seeds)), func(c, i int) {
		status, body, d, err := svc.post(scenarioBody(seeds[i], o.scenario.instrs))
		serve(i, status, body, err)
		lat[c] = append(lat[c], d)
	})
	out.op = lat.all()

	if o.trace {
		rc, err := redriveCache(work, svc.dir)
		if err != nil {
			return nil, err
		}
		var tl latencies
		closedLoop(half, counter(&next, len(seeds)), func(c, i int) {
			id := int64(i)
			status, body, d, idx, err := svc.tracedPost(scenarioBody(seeds[i], o.scenario.instrs), id, c)
			out.t.addWall(d)
			tl[c] = append(tl[c], d)
			if !serve(i, status, body, err) {
				return
			}
			pl := &pipe{cache: rc, sc: scope{t: out.t, req: id, client: c, parent: idx}}
			var again []byte
			err = protect(func() error {
				var err error
				again, err = pl.scenario(scenarioSpec(seeds[i]), o.scenario)
				return err
			})
			if err != nil || !bytes.Equal(again, body) {
				chk.fail(fmt.Sprintf("scenario/%d: traced re-drive differs from the served body", seeds[i]))
			}
		})
		out.traced = tl.all()
	}

	// Sampled requests without a stored digest are checked against a
	// cache-less recomputation, outside the timed region.
	var lab *experiments.Lab
	for i := 0; i < sampleWindow; i++ {
		body, ok := served[i]
		key := fmt.Sprintf("scenario/%d", seeds[i])
		if _, stored := chk.reference(key); !ok || stored {
			continue
		}
		if lab == nil {
			lab = experiments.NewLab(labConfig(apps, o.scenario))
			lab.ForEachApp("reference", func(a *experiments.App) error { a.ISPY(); return nil })
		}
		want, err := labScenario(lab, seeds[i], o.scenario)
		if err != nil {
			chk.fail(key + " recomputation: " + err.Error())
		} else if !bytes.Equal(want, body) {
			chk.fail(key + ": served body differs from the cache-less recomputation")
		}
	}
	return out, nil
}

// labScenario recomputes one scenario body on a cache-less lab.
func labScenario(lab *experiments.Lab, seed uint64, b budget) ([]byte, error) {
	var body []byte
	err := protect(func() error {
		spec, err := parseScenario(seed)
		if err != nil {
			return err
		}
		res, err := lab.Scenario(spec)
		if err != nil {
			return err
		}
		body = encode(scenarioResponse(b.measure, res))
		return nil
	})
	return body, err
}
