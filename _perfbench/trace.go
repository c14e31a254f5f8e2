package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's own code. Spans of one operation (a fig10 regeneration or one
// HTTP request) share Req; Parent is the index of the enclosing span in the
// same tracer, or -1 for a top-level span.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Client int    `json:"client"`
}

// tracer keeps spans in memory; they are written out when the run ends. A
// nil *tracer records nothing, so the untraced path calls the same code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// wall is the summed duration of every traced operation, per client
	// timeline: the denominator of every per-layer share.
	wall time.Duration
	// counters kept at the same boundaries as the spans.
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: map[string]float64{}}
}

// begin opens a span and returns its index; end closes it.
func (t *tracer) begin(name string, parent int, req int64, client int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Req: req, Client: client})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span measured elsewhere (the server handler's inclusive
// time, observed by the wrapping handler).
func (t *tracer) add(s span) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *tracer) since() int64 { return time.Since(t.epoch).Nanoseconds() }

// count adds v to a named counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// addWall adds one traced operation's wall time to the run's total.
func (t *tracer) addWall(d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.wall += d
	t.mu.Unlock()
}

// layerTimes returns each span name's self time (its duration minus the
// durations of its direct children) and inclusive time, in milliseconds.
// Self times telescope: their sum is the sum of the top-level spans, so the
// rows plus the unattributed remainder add up to the traced wall time with
// no nested span counted twice.
func (t *tracer) layerTimes() (self, incl map[string]float64, top float64) {
	self, incl = map[string]float64{}, map[string]float64{}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		d := s.End - s.Start
		incl[s.Name] += float64(d) / 1e6
		self[s.Name] += float64(d-child[i]) / 1e6
		if s.Parent < 0 {
			top += float64(d) / 1e6
		}
	}
	return self, incl, top
}

// write dumps every span as JSON; a span's parent is its index in the list.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// scope is one client's position in the trace: the operation being traced
// and the span new spans nest under.
type scope struct {
	t      *tracer
	req    int64
	client int
	parent int
}

// do runs f inside a span named name; spans f opens nest under it.
func (s *scope) do(name string, f func()) {
	id := s.t.begin(name, s.parent, s.req, s.client)
	if id >= 0 {
		outer := s.parent
		s.parent = id
		defer func() { s.parent = outer }()
	}
	f()
	s.t.end(id)
}
