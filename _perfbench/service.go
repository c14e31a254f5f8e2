package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"ispy/internal/server"
)

// reqHeader carries a traced request's id to the handler wrapper.
const reqHeader = "X-Perfbench-Req"

// service is one ispyd server behind httptest, with its artifact cache in
// dir. When traced, a wrapper around the server's handler times each
// request that names its id.
type service struct {
	dir    string
	ts     *httptest.Server
	client *http.Client
	t      *tracer

	mu      sync.Mutex
	pending map[int64]chan [2]int64
}

func startService(dir string, t *tracer) (*service, error) {
	srv, err := server.New(server.Config{Jobs: clients, CacheDir: dir})
	if err != nil {
		return nil, err
	}
	s := &service{dir: dir, t: t, pending: map[int64]chan [2]int64{}}
	h := srv.Handler()
	if t != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
			if err != nil {
				inner.ServeHTTP(w, r)
				return
			}
			start := t.since()
			inner.ServeHTTP(w, r)
			end := t.since()
			s.mu.Lock()
			ch := s.pending[id]
			delete(s.pending, id)
			s.mu.Unlock()
			if ch != nil {
				ch <- [2]int64{start, end}
			}
		})
	}
	s.ts = httptest.NewServer(h)
	s.client = s.ts.Client()
	return s, nil
}

func (s *service) close() { s.ts.Close() }

// post sends one analyze request and reads the whole reply; the returned
// duration is the client's wait.
func (s *service) post(body []byte) (int, []byte, time.Duration, error) {
	return s.postReq(body, -1)
}

func (s *service) postReq(body []byte, id int64) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, s.ts.URL+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id >= 0 {
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, out, time.Since(start), err
}

// tracedPost sends a request under id and records the handler's inclusive
// time as a top-level server.request span; it returns that span's index.
func (s *service) tracedPost(body []byte, id int64, client int) (int, []byte, time.Duration, int, error) {
	ch := make(chan [2]int64, 1)
	s.mu.Lock()
	s.pending[id] = ch
	s.mu.Unlock()
	status, out, d, err := s.postReq(body, id)
	if err != nil {
		return status, out, d, -1, err
	}
	select {
	case se := <-ch:
		idx := s.t.add(span{Name: "server.request", Start: se[0], End: se[1], Parent: -1, Req: id, Client: client})
		return status, out, d, idx, nil
	case <-time.After(10 * time.Second):
		return status, out, d, -1, fmt.Errorf("request %d: handler span never arrived", id)
	}
}
