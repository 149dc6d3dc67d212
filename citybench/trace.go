package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"trajforge/internal/cluster"
	"trajforge/internal/geo"
	"trajforge/internal/rssimap"
	"trajforge/internal/wifi"
)

// reqHeader carries the benchmark's request id from its client to its
// own server middleware. The program never reads it.
const reqHeader = "X-Citybench-Request"

type reqKey struct{}

// span is one timed call at a layer boundary. Times are nanoseconds from
// the tracer's epoch; req is the request id (0 when the call cannot be
// tied to a request) and parent the index of the enclosing span (-1 for
// a root), resolved when the trace is written.
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req,omitempty"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(name string, req uint64, start int64) {
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: -1, Start: start, End: end})
	t.mu.Unlock()
}

// byName returns the durations of every span with the given name.
func (t *tracer) byName(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// reqSpans returns, per request id, the span of the given name.
func (t *tracer) reqSpans(name string) map[uint64]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[uint64]span)
	for _, s := range t.spans {
		if s.Name == name && s.Req != 0 {
			out[s.Req] = s
		}
	}
	return out
}

// link resolves parents and self times: within one request the client
// span is the root, the server handle span its child, and every other
// span of the request a child of the handle span. Self time is a span's
// duration minus its children's.
func (t *tracer) link() {
	t.mu.Lock()
	defer t.mu.Unlock()
	client := make(map[uint64]int)
	handle := make(map[uint64]int)
	for i, s := range t.spans {
		switch {
		case s.Req == 0:
		case s.Name == "server.handle":
			handle[s.Req] = i
		case strings.HasPrefix(s.Name, "client."):
			client[s.Req] = i
		}
	}
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for i, s := range t.spans {
		if s.Req == 0 {
			continue
		}
		parent := -1
		if s.Name == "server.handle" {
			if c, ok := client[s.Req]; ok {
				parent = c
			}
		} else if h, ok := handle[s.Req]; ok && h != i {
			parent = h
		}
		if parent >= 0 && parent != i {
			t.spans[i].Parent = parent
			t.spans[parent].Self -= s.End - s.Start
		}
	}
}

// write links the spans and writes them as JSON lines.
func (t *tracer) write(path string) error {
	t.link()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// middleware records a server.handle span around the service handler and
// hands the request id to the backend wrapper through the context.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		id, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		if id != 0 {
			r = r.WithContext(context.WithValue(r.Context(), reqKey{}, id))
		}
		next.ServeHTTP(w, r)
		t.add("server.handle", id, start)
	})
}

func reqID(ctx context.Context) uint64 {
	id, _ := ctx.Value(reqKey{}).(uint64)
	return id
}

// tracedBackend times the calls the verification service makes into its
// RSSI backend. The layer prefix is "cluster" for the cluster store and
// "rssimap" otherwise. Every other Backend method is forwarded untimed.
type tracedBackend struct {
	rssimap.Backend
	t     *tracer
	layer string
}

func (b *tracedBackend) Features(u *wifi.Upload, cfg rssimap.FeatureConfig) ([]float64, error) {
	start := b.t.now()
	f, err := b.Backend.Features(u, cfg)
	b.t.add(b.layer+".features", 0, start)
	return f, err
}

func (b *tracedBackend) PointConfidencesInto(dst []rssimap.PointConfidence, o geo.Point, scan wifi.Scan, cfg rssimap.FeatureConfig) []rssimap.PointConfidence {
	start := b.t.now()
	out := b.Backend.PointConfidencesInto(dst, o, scan, cfg)
	b.t.add(b.layer+".point_confidences", 0, start)
	return out
}

func (b *tracedBackend) AddUploads(uploads []*wifi.Upload) {
	start := b.t.now()
	b.Backend.AddUploads(uploads)
	b.t.add(b.layer+".ingest", 0, start)
}

func (b *tracedBackend) Add(records []rssimap.Record) {
	start := b.t.now()
	b.Backend.Add(records)
	b.t.add(b.layer+".ingest", 0, start)
}

func (b *tracedBackend) featuresContext(ctx context.Context, u *wifi.Upload, cfg rssimap.FeatureConfig) ([]float64, error) {
	start := b.t.now()
	f, err := b.Backend.(rssimap.ContextBackend).FeaturesContext(ctx, u, cfg)
	b.t.add(b.layer+".features", reqID(ctx), start)
	return f, err
}

func (b *tracedBackend) setTrustWeights(weights map[string]float64) {
	b.Backend.(rssimap.TrustWeighted).SetTrustWeights(weights)
}

// The wrapper must implement exactly the optional interfaces the wrapped
// store does, because the service and the trust pipeline find them by
// type assertion; one type per combination keeps that exact.
type (
	tracedCtx      struct{ *tracedBackend }
	tracedTrust    struct{ *tracedBackend }
	tracedCtxTrust struct{ *tracedBackend }
)

func (b tracedCtx) FeaturesContext(ctx context.Context, u *wifi.Upload, cfg rssimap.FeatureConfig) ([]float64, error) {
	return b.featuresContext(ctx, u, cfg)
}

func (b tracedTrust) SetTrustWeights(w map[string]float64) { b.setTrustWeights(w) }

func (b tracedCtxTrust) FeaturesContext(ctx context.Context, u *wifi.Upload, cfg rssimap.FeatureConfig) ([]float64, error) {
	return b.featuresContext(ctx, u, cfg)
}

func (b tracedCtxTrust) SetTrustWeights(w map[string]float64) { b.setTrustWeights(w) }

// wrapBackend returns b wrapped for tracing, preserving ContextBackend
// and TrustWeighted exactly.
func wrapBackend(b rssimap.Backend, t *tracer) rssimap.Backend {
	layer := "rssimap"
	if _, ok := b.(*cluster.Store); ok {
		layer = "cluster"
	}
	tb := &tracedBackend{Backend: b, t: t, layer: layer}
	_, isCtx := b.(rssimap.ContextBackend)
	_, isTrust := b.(rssimap.TrustWeighted)
	switch {
	case isCtx && isTrust:
		return tracedCtxTrust{tb}
	case isCtx:
		return tracedCtx{tb}
	case isTrust:
		return tracedTrust{tb}
	}
	return tb
}
