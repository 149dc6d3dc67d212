package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"trajforge/internal/server"
)

// sessionGap is the real-time cadence between a streaming session's
// requests: clients stream at their own pace whatever the offered load.
const sessionGap = 200 * time.Millisecond

// newHTTPClient returns the generator's client: at most conns
// connections to the provider.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// request is one scheduled HTTP request of a phase.
type request struct {
	at    time.Duration // intended send time from phase start
	event int
	kind  string
	body  []byte
	ctype string
	// prev is the index of the same session's previous request, or -1;
	// a session request is sent only after its predecessor answered.
	prev int
}

// result is one request's outcome.
type result struct {
	sent, ok bool
	status   int
	// lat is measured from the intended send time (open loop) or the
	// actual send (closed loop and serial passes); lag is how late the
	// dispatcher handed the request to a connection.
	lat, lag time.Duration
	// accepted is the verdict of an upload or close; earlyExit marks the
	// append that rejected its session mid-stream.
	accepted  bool
	earlyExit bool
	body      []byte
}

// verdictBearing reports whether the request's answer is the final
// verdict of its event.
func (r *result) verdictBearing(kind string) bool {
	return kind == kindUpload || kind == kindClose || r.earlyExit
}

// eventRequests expands one event into its requests for the given wire:
// a batch upload, or a session's open, appends and close spaced by gap.
// A session request's prev indexes the returned slice.
func eventRequests(w *workload, i int, binary, asBatch bool, base, gap time.Duration) []request {
	ev := &w.events[i]
	if !ev.stream() || asBatch {
		body, ct := ev.json, "application/json"
		if binary {
			body, ct = ev.bin, server.ContentTypeBinary
		}
		return []request{{at: base, event: i, kind: kindUpload, body: body, ctype: ct, prev: -1}}
	}
	out := []request{{at: base, event: i, kind: kindOpen, body: ev.open, ctype: "application/json", prev: -1}}
	for k, a := range ev.appends {
		out = append(out, request{at: base + time.Duration(k+1)*gap, event: i, kind: kindAppend, body: a, ctype: "application/json", prev: k})
	}
	out = append(out, request{at: base + time.Duration(len(ev.appends)+1)*gap, event: i, kind: kindClose, body: ev.close, ctype: "application/json", prev: len(ev.appends)})
	return out
}

// schedule lays out the events that arrive within d at the given event
// rate, sorted by intended send time, with session chains linked.
func schedule(w *workload, rate float64, d time.Duration, binary bool) []request {
	var reqs []request
	for i := range w.events {
		at := time.Duration(w.unit[i] / rate * float64(time.Second))
		if at >= d {
			break
		}
		reqs = append(reqs, eventRequests(w, i, binary, false, at, sessionGap)...)
	}
	// Re-link each session chain to indexes of the sorted schedule; a
	// session's requests keep their order, their times being increasing.
	sort.SliceStable(reqs, func(a, b int) bool { return reqs[a].at < reqs[b].at })
	last := make(map[int]int)
	for i := range reqs {
		reqs[i].prev = -1
		if p, ok := last[reqs[i].event]; ok {
			reqs[i].prev = p
		}
		last[reqs[i].event] = i
	}
	return reqs
}

// driver posts requests and records client spans when traced.
type driver struct {
	client *http.Client
	url    string
	binary bool // batch uploads on the binary wire
	tracer *tracer
	nextID atomic.Uint64
}

// post sends one request and parses its answer. Any non-200 answer, or
// a 200 whose body does not parse, leaves ok false.
func (d *driver) post(r *request, res *result) {
	path := map[string]string{
		kindUpload: "/v1/trajectory", kindOpen: "/v1/session/open",
		kindAppend: "/v1/session/append", kindClose: "/v1/session/close",
	}[r.kind]
	hr, err := http.NewRequest(http.MethodPost, d.url+path, bytes.NewReader(r.body))
	if err != nil {
		return
	}
	hr.Header.Set("Content-Type", r.ctype)
	var id uint64
	var start int64
	if d.tracer != nil {
		id = d.nextID.Add(1)
		hr.Header.Set(reqHeader, strconv.FormatUint(id, 10))
		start = d.tracer.now()
	}
	res.sent = true
	resp, err := d.client.Do(hr)
	if err != nil {
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if d.tracer != nil {
		d.tracer.add("client."+r.kind, id, start)
	}
	res.status = resp.StatusCode
	if err != nil || resp.StatusCode != http.StatusOK {
		return
	}
	res.body = body
	switch r.kind {
	case kindUpload, kindClose:
		var v server.Verdict
		if json.Unmarshal(body, &v) != nil || v.Checks == nil {
			return
		}
		res.accepted = v.Accepted
	case kindAppend:
		var ack server.SessionAppendResponse
		if json.Unmarshal(body, &ack) != nil {
			return
		}
		res.earlyExit = ack.Rejected
	case kindOpen:
		var o server.SessionOpenResponse
		if json.Unmarshal(body, &o) != nil || o.SessionID == "" {
			return
		}
	}
	res.ok = true
}

// openLoop dispatches reqs on their schedule from one dispatcher
// goroutine to conns senders, whatever the provider's speed. Latency is
// charged from the intended send time.
func (d *driver) openLoop(reqs []request, conns int) []result {
	res := make([]result, len(reqs))
	done := make([]chan struct{}, len(reqs))
	for i := range done {
		done[i] = make(chan struct{})
	}
	// Sized to the number of sends, so the dispatcher never blocks on a
	// busy sender and its lateness is its own.
	work := make(chan int, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				r := &reqs[i]
				if p := r.prev; p >= 0 {
					<-done[p]
					if !res[p].ok || res[p].earlyExit {
						// The session died or already has its verdict.
						res[i].earlyExit = res[p].earlyExit
						close(done[i])
						continue
					}
				}
				d.post(r, &res[i])
				res[i].lat = time.Since(start.Add(r.at))
				close(done[i])
			}
		}()
	}
	// The dispatcher sleeps in nanosleep on its own thread: the runtime
	// timer wakes up to a millisecond late on Linux, which would be
	// charged to every request.
	runtime.LockOSThread()
	for i := range reqs {
		target := start.Add(reqs[i].at)
		if w := time.Until(target); w > 0 {
			ts := syscall.NsecToTimespec(int64(w))
			syscall.Nanosleep(&ts, nil)
		}
		res[i].lag = time.Since(target)
		work <- i
	}
	runtime.UnlockOSThread()
	close(work)
	wg.Wait()
	return res
}

// closedLoop runs events [0, n) on conns senders back to back; each
// sender takes the next unsent event, and a session's requests follow
// each other without pause. It returns the median over windows equal
// time windows of the verdicts completed per second, the requests sent
// and the requests that failed.
func (d *driver) closedLoop(w *workload, n, conns, windows int) (rate float64, sent, failed int) {
	done := make([]time.Duration, 0, n) // completion offsets of verdicts
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				reqs := eventRequests(w, i, d.binary, false, 0, 0)
				for k := range reqs {
					var res result
					d.post(&reqs[k], &res)
					mu.Lock()
					sent++
					if !res.ok {
						failed++
					}
					mu.Unlock()
					if !res.ok {
						break
					}
					if res.verdictBearing(reqs[k].kind) {
						mu.Lock()
						done = append(done, time.Since(start))
						mu.Unlock()
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	counts := make([]float64, windows)
	for _, t := range done {
		counts[int(int64(t)*int64(windows)/int64(elapsed+1))]++
	}
	win := elapsed.Seconds() / float64(windows)
	for k := range counts {
		counts[k] /= win
	}
	fmt.Fprintf(stderr, "citybench: closed loop %d events in %.2fs, verdicts/s by window %.0f\n", n, elapsed.Seconds(), counts)
	return median(counts), sent, failed
}

// serialOutcome is one event's verdict from a serial pass.
type serialOutcome struct {
	// verdict is the verdict-bearing response body (prefixed for an
	// early exit); empty when a request failed or did not parse.
	verdict   string
	accepted  bool
	earlyExit bool
	// lat is the verdict-bearing request's latency.
	lat time.Duration
}

// serial sends events [0, n) one request at a time. Sessions listed in
// asBatch are posted as one batch upload instead.
func (d *driver) serial(w *workload, n int, asBatch func(i int) bool) ([]serialOutcome, int) {
	out := make([]serialOutcome, n)
	sent := 0
	for i := 0; i < n; i++ {
		reqs := eventRequests(w, i, d.binary, asBatch != nil && asBatch(i), 0, 0)
		for k := range reqs {
			var res result
			t0 := time.Now()
			d.post(&reqs[k], &res)
			sent++
			if !res.ok {
				break
			}
			if res.verdictBearing(reqs[k].kind) {
				out[i] = serialOutcome{verdict: string(res.body), accepted: res.accepted, earlyExit: res.earlyExit, lat: time.Since(t0)}
				if res.earlyExit {
					out[i].verdict = "early-exit " + out[i].verdict
				}
				break
			}
		}
	}
	return out, sent
}

// phaseStats summarises an open-loop phase.
type phaseStats struct {
	requests, failed int
	verdicts         int
	// lats are the verdict-bearing latencies in ms, +Inf for a miss, and
	// ats their intended send times.
	lats      []float64
	ats       []time.Duration
	span      time.Duration
	kindLats  map[string][]float64
	shedRatio float64
	// lagP99 is the dispatcher's p99 lateness in ms.
	lagP99 float64
}

func summarize(reqs []request, res []result) phaseStats {
	ps := phaseStats{kindLats: make(map[string][]float64)}
	shed := 0
	lags := make([]float64, len(res))
	for i := range reqs {
		r, o := &reqs[i], &res[i]
		lags[i] = ms(o.lag)
		if r.at > ps.span {
			ps.span = r.at
		}
		if !o.sent && o.earlyExit {
			continue // the session's verdict came earlier
		}
		ps.requests++
		lat := math.Inf(1)
		if o.ok {
			lat = ms(o.lat)
		} else {
			ps.failed++
			if o.status == http.StatusTooManyRequests || o.status == http.StatusServiceUnavailable {
				shed++
			}
		}
		ps.kindLats[r.kind] = append(ps.kindLats[r.kind], lat)
		if r.kind == kindUpload || r.kind == kindClose || o.earlyExit {
			ps.lats = append(ps.lats, lat)
			ps.ats = append(ps.ats, r.at)
			if o.ok {
				ps.verdicts++
			}
		}
	}
	if ps.requests > 0 {
		ps.shedRatio = float64(shed) / float64(ps.requests)
	}
	ps.lagP99 = quantile(lags, 0.99)
	return ps
}

// maxWindows caps how many windows a phase is split into.
const maxWindows = 16

// latency is the q-quantile of the verdict latencies, robust to a short
// stall of the host: the phase is split by intended send time into as
// many equal windows as leave at least ten samples beyond the quantile
// in each, and the median of the per-window quantiles is returned.
func (ps *phaseStats) latency(q float64) float64 {
	perWindow := int(math.Ceil(10 / (1 - q)))
	nw := len(ps.lats) / perWindow
	if nw > maxWindows {
		nw = maxWindows
	}
	if nw <= 1 || ps.span <= 0 {
		return quantile(ps.lats, q)
	}
	wins := make([][]float64, nw)
	for i, at := range ps.ats {
		k := int(int64(at) * int64(nw) / int64(ps.span+1))
		wins[k] = append(wins[k], ps.lats[i])
	}
	qs := make([]float64, 0, nw)
	for _, w := range wins {
		if len(w) > 0 {
			qs = append(qs, quantile(w, q))
		}
	}
	return median(qs)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the nearest-rank q-quantile of xs (copied, sorted);
// +Inf values sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// usQuantile is the q-quantile of ds in microseconds.
func usQuantile(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / 1e3
	}
	return quantile(xs, q)
}
