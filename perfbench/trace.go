package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rrbus/internal/scenario"
	"rrbus/internal/store"
)

// span is one timed call into a layer, recorded by the benchmark around
// a call into the program. Spans of one client request share Req.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so call sites need no branch.
type tracer struct {
	origin time.Time
	next   atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span and returns its id and the function that closes it.
func (t *tracer) begin(name string, parent, req int64) (int64, func()) {
	if t == nil {
		return 0, noop
	}
	id := t.next.Add(1)
	start := t.now()
	return id, func() {
		end := t.now()
		t.mu.Lock()
		t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req, Start: start, End: end})
		t.mu.Unlock()
	}
}

func noop() {}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as gzipped JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}

// spanStat sums the spans of one name.
type spanStat struct {
	Count   int       `json:"count"`
	TotalMs float64   `json:"total_ms"`
	SelfMs  float64   `json:"self_ms"`
	durs    []float64 // milliseconds
}

// spanStats groups spans by name with total and self time. A span's self
// time is its duration minus the union of its children's intervals.
func spanStats(spans []span) map[string]*spanStat {
	kids := map[int64][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	out := map[string]*spanStat{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		d := float64(s.End-s.Start) / 1e6
		st.Count++
		st.TotalMs += d
		st.SelfMs += float64(selfTime(interval{s.Start, s.End}, kids[s.ID])) / 1e6
		st.durs = append(st.durs, d)
	}
	return out
}

// putCounter counts successful Puts per job hash, so a job simulated
// twice shows. It embeds the bare *store.Dir, so every optional interface
// the Dir satisfies (plan manifests, quarantine, hash listing, audit) is
// promoted unchanged and the session and server type-assert exactly what
// they would on the bare store.
type putCounter struct {
	*store.Dir
	mu   sync.Mutex
	puts map[string]int
}

func newPutCounter(d *store.Dir) *putCounter {
	return &putCounter{Dir: d, puts: map[string]int{}}
}

func (s *putCounter) Put(jobHash string, r scenario.Result) error {
	err := s.Dir.Put(jobHash, r)
	if err == nil {
		s.mu.Lock()
		s.puts[jobHash]++
		s.mu.Unlock()
	}
	return err
}

// counts returns a copy of the Put counts.
func (s *putCounter) counts() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return maps.Clone(s.puts)
}

// timedStore is the traced run's store decorator. It embeds a putCounter
// over the bare *store.Dir, so every optional interface of the Dir is
// still promoted; only Get, Put and PutPlan are wrapped in spans. A Get
// miss followed by a Put of the same hash is one job's simulate interval.
type timedStore struct {
	*putCounter
	tr *tracer
	// parent is the span the current plan runs under (paper passes run
	// one plan at a time); 0 where calls come from server goroutines.
	parent atomic.Int64

	mu     sync.Mutex
	missAt map[string]int64
	jobMs  []float64
	hits   int64
	misses int64
}

func newTimedStore(d *store.Dir, tr *tracer) *timedStore {
	return &timedStore{putCounter: newPutCounter(d), tr: tr, missAt: map[string]int64{}}
}

func (s *timedStore) Get(jobHash string) (scenario.Result, bool, error) {
	_, end := s.tr.begin("store.get", s.parent.Load(), 0)
	r, ok, err := s.Dir.Get(jobHash)
	end()
	if err == nil {
		s.mu.Lock()
		if ok {
			s.hits++
		} else {
			s.misses++
			s.missAt[jobHash] = s.tr.now()
		}
		s.mu.Unlock()
	}
	return r, ok, err
}

func (s *timedStore) Put(jobHash string, r scenario.Result) error {
	_, end := s.tr.begin("store.put", s.parent.Load(), 0)
	err := s.putCounter.Put(jobHash, r)
	end()
	s.mu.Lock()
	if t0, ok := s.missAt[jobHash]; ok {
		s.jobMs = append(s.jobMs, float64(s.tr.now()-t0)/1e6)
		delete(s.missAt, jobHash)
	}
	s.mu.Unlock()
	return err
}

func (s *timedStore) PutPlan(c *scenario.Compiled) error {
	_, end := s.tr.begin("store.put_plan", s.parent.Load(), 0)
	defer end()
	return s.Dir.PutPlan(c)
}

// take returns and resets the decorator's per-job intervals and hit
// counts.
func (s *timedStore) take() (jobMs []float64, hits, misses int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobMs, hits, misses = s.jobMs, s.hits, s.misses
	s.jobMs, s.hits, s.misses = nil, 0, 0
	s.missAt = map[string]int64{}
	return
}

// reqKey carries a client request id into the transport's spans.
type reqKey struct{}

// timedTransport wraps the shared transport in the traced run: each HTTP
// exchange is a span named for its endpoint, from sending the request to
// closing the response body.
type timedTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rid, _ := req.Context().Value(reqKey{}).(int64)
	_, end := t.tr.begin(endpoint(req), 0, rid)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		end()
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: end}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *endOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// endpoint names an rrbus-serve request for its span.
func endpoint(req *http.Request) string {
	p := req.URL.Path
	switch {
	case p == "/v1/plans" && req.Method == http.MethodPost:
		return "serve.submit"
	case strings.HasPrefix(p, "/v1/plans/") && strings.HasSuffix(p, "/doc"):
		return "serve.doc"
	case strings.HasPrefix(p, "/v1/plans/"):
		return "serve.status"
	case strings.HasPrefix(p, "/v1/work/"):
		return "dist." + strings.TrimPrefix(p, "/v1/work/")
	case p == "/metrics":
		return "serve.metrics"
	}
	return "http.other"
}
