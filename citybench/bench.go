package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"trajforge/internal/detect"
	"trajforge/internal/server"
)

// Shares of --seconds given to each measured phase. The untraced run
// measures the base rate. The traced run measures the closed loop, an
// untraced base phase (whose latencies it reports, and the reference for
// the tracing overhead), a traced base phase and a traced busy phase.
const (
	baseShare        = 0.75
	closedShare      = 0.25
	plainTracedShare = 0.30
	baseTracedShare  = 0.30
	busyTracedShare  = 0.15
)

// closedWindows is the number of equal time windows the closed-loop
// phase's throughput is measured in; capacity is their median.
const closedWindows = 5

// maxLagShare bounds the dispatcher's p99 lateness as a share of the
// measured p99 latency. Past it, the generator rather than the provider
// would be setting the tail, and the run is reported invalid. On a 2-core
// host whose idle timer wakeups are 4-7 ms late at p99, full-length runs
// measured 0.2 to 0.4.
const maxLagShare = 0.75

// checkLag reports an invalid run when the dispatcher of the phase whose
// latencies are reported ran late past maxLagShare.
func checkLag(ps phaseStats) error {
	if p99 := ps.latency(0.99); ps.lagP99 > maxLagShare*p99 {
		return fmt.Errorf("invalid run: dispatcher lag p99 %.3f ms exceeds %.0f%% of p99 %.3f ms", ps.lagP99, 100*maxLagShare, p99)
	}
	return nil
}

// bench is one run of one workload.
type bench struct {
	sp      spec
	seed    int64
	seconds float64
	conns   int
	workDir string

	w      *workload
	genS   float64
	client *http.Client
	// setups are the build times measured by measureSetup.
	setups []setupTimes

	attempted, failed int
	problems          []string
	verdictDigest     string
	// serialLats are the gate pass's verdict latencies in ms, one request
	// in flight.
	serialLats []float64
}

func (b *bench) fail(format string, a ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, a...))
}

func (b *bench) closedEvents() int {
	return int(b.sp.closedRate*closedShare*b.seconds + 0.5)
}

// generate builds the workload: enough events for the gate, minEvents,
// and every open-loop phase (horizon in unit-rate time).
func (b *bench) generate(minEvents int, horizon float64) error {
	t0 := time.Now()
	n := max(b.sp.gateEvents, minEvents)
	w, err := buildWorkload(b.sp, b.seed, n, horizon)
	if err != nil {
		return err
	}
	b.w = w
	b.genS = time.Since(t0).Seconds()
	b.client = newHTTPClient(b.conns)
	return nil
}

func (b *bench) ownConfig(tr *tracer) providerConfig {
	return providerConfig{wal: b.sp.wal, cluster: b.sp.cluster, corpus: b.w.corpus, tracer: tr}
}

// newOwn builds a fresh provider of the workload's configuration. It
// collects the heap before the build, so set-up is not charged for the
// garbage of what ran before it, and after, so the phase that follows
// starts from a collected heap and is not charged for set-up's garbage.
// The collection after also starts the runtime's CPU classes, which only
// advance when a cycle ends, at a known point.
func (b *bench) newOwn(tr *tracer) (*provider, error) {
	runtime.GC()
	p, err := newProvider(b.w, b.ownConfig(tr), b.workDir)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	return p, nil
}

// setupReps is how many providers measureSetup builds and closes. One
// build takes 0.2-0.5 s, and on a shared 2-core host single builds of the
// same provider varied by a fifth; the median of nine steadies setup_s.
const setupReps = 9

// measureSetup builds and closes setupReps providers of the workload's
// configuration and records their setup times.
func (b *bench) measureSetup() error {
	for i := 0; i < setupReps; i++ {
		p, err := b.newOwn(nil)
		if err != nil {
			return err
		}
		b.setups = append(b.setups, p.times)
		b.finish(p, "setup")
	}
	return nil
}

func (b *bench) driver(p *provider, tr *tracer) *driver {
	return &driver{client: b.client, url: p.url, binary: b.sp.binary, tracer: tr}
}

// finish checks a provider's internal-error counter and closes it.
func (b *bench) finish(p *provider, phase string) {
	if n := p.internalErrors(); n != 0 {
		b.fail("%s: %d internal errors", phase, n)
	}
	if err := p.close(); err != nil {
		b.fail("%s: close: %v", phase, err)
	}
	b.client.CloseIdleConnections()
}

// twinEvents is how many of the gate's events the twin replays. The own
// pass runs all of them, for the verdict-quality ratios and the serial
// latency; the fixed points are checked on this prefix.
const twinEvents = 1500

// gate is the serial correctness pass. It runs the workload's own
// provider, then a twin that must answer the first twinEvents events
// bit-identically:
//
//	city_json     sessions re-posted as batch uploads (the stream
//	              contract; sessions that exited early stay streams)
//	city_binary   the same events on the JSON wire
//	city_cluster  the same events on the single-process backend
//
// It returns the own provider's outcomes.
func (b *bench) gate() ([]serialOutcome, error) {
	t0 := time.Now()
	n := b.sp.gateEvents
	own, err := b.newOwn(nil)
	if err != nil {
		return nil, err
	}
	ours, sent := b.driver(own, nil).serial(b.w, n, nil)
	b.attempted += sent
	for _, o := range ours {
		b.serialLats = append(b.serialLats, ms(o.lat))
	}
	b.finish(own, "gate")

	twinCfg := b.ownConfig(nil)
	twinBinary := b.sp.binary
	var asBatch func(int) bool
	switch {
	case b.sp.cluster:
		twinCfg.cluster = false
	case b.sp.binary:
		twinBinary = false
	default:
		asBatch = func(i int) bool { return b.w.events[i].stream() && !ours[i].earlyExit }
	}
	twin, err := newProvider(b.w, twinCfg, b.workDir)
	if err != nil {
		return nil, err
	}
	d := b.driver(twin, nil)
	d.binary = twinBinary
	theirs, sent := d.serial(b.w, min(n, twinEvents), asBatch)
	b.attempted += sent
	b.finish(twin, "gate twin")

	h := sha256.New()
	mismatches := 0
	for i := range ours {
		if ours[i].verdict == "" || i < len(theirs) && theirs[i].verdict == "" {
			b.fail("gate: event %d: a request failed or its response did not parse", i)
			continue
		}
		if i < len(theirs) && ours[i].verdict != theirs[i].verdict {
			if mismatches == 0 {
				b.fail("gate: event %d (%s): %q vs twin %q", i, b.w.events[i].class, ours[i].verdict, theirs[i].verdict)
			}
			mismatches++
		}
		h.Write([]byte(ours[i].verdict))
	}
	if mismatches > 0 {
		b.fail("gate: %d of %d verdicts differ from the twin", mismatches, len(theirs))
	}
	b.verdictDigest = hex.EncodeToString(h.Sum(nil))
	fmt.Fprintf(stderr, "citybench: gate %d events in %.2fs\n", n, time.Since(t0).Seconds())
	return ours, nil
}

// quality is the verdict-quality pair of a serial pass.
func (b *bench) quality(out []serialOutcome) (honestAccept, forgeryReject float64) {
	var honest, accepted, forged, rejected int
	for i, o := range out {
		if b.w.events[i].honest {
			honest++
			if o.accepted {
				accepted++
			}
		} else {
			forged++
			if !o.accepted {
				rejected++
			}
		}
	}
	return ratio(float64(accepted), float64(honest)), ratio(float64(rejected), float64(forged))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// openPhase runs one open-loop phase against p.
func (b *bench) openPhase(p *provider, tr *tracer, rate, share float64) phaseStats {
	reqs := schedule(b.w, rate, time.Duration(share*b.seconds*float64(time.Second)), b.sp.binary)
	res := b.driver(p, tr).openLoop(reqs, b.conns)
	ps := summarize(reqs, res)
	b.attempted += ps.requests
	b.failed += ps.failed
	fmt.Fprintf(stderr, "citybench: phase rate=%.0f/s requests=%d verdicts=%d failed=%d p50=%.3fms p99=%.3fms lag p99=%.3fms\n",
		rate, ps.requests, ps.verdicts, ps.failed, ps.latency(0.5), ps.latency(0.99), ps.lagP99)
	return ps
}

func (b *bench) setupMedian(f func(setupTimes) float64) float64 {
	xs := make([]float64, len(b.setups))
	for i, s := range b.setups {
		xs[i] = f(s)
	}
	return median(xs)
}

func (b *bench) horizon(phases ...[2]float64) float64 {
	h := 0.0
	for _, ph := range phases {
		h = math.Max(h, ph[0]*ph[1]*b.seconds)
	}
	return h
}

// untracedRun measures the end-to-end metrics.
func (b *bench) untracedRun() (*report, error) {
	if err := b.generate(0, b.horizon([2]float64{b.sp.baseRate, baseShare})); err != nil {
		return nil, err
	}
	if err := b.measureSetup(); err != nil {
		return nil, err
	}
	ours, err := b.gate()
	if err != nil {
		return nil, err
	}
	honestAccept, forgeryReject := b.quality(ours)

	// Base rate. The provider's heap is the live heap at the end of the
	// phase less the live heap before the provider was built.
	heap0 := liveHeapMiB()
	p, err := b.newOwn(nil)
	if err != nil {
		return nil, err
	}
	cpu0 := cpuTime()
	base := b.openPhase(p, nil, b.sp.baseRate, baseShare)
	cpu := cpuTime() - cpu0
	heap := liveHeapMiB() - heap0
	b.finish(p, "base")
	m := map[string]metric{
		"setup_s":            {b.setupMedian(func(s setupTimes) float64 { return s.total }), "s"},
		"serial_p50_ms":      {quantile(b.serialLats, 0.50), "ms"},
		"cpu_ms_per_verdict": {1e3 * cpu.Seconds() / float64(max(base.verdicts, 1)), "ms"},
		"heap_mb":            {heap, "MiB"},
		"honest_accept":      {honestAccept, "ratio"},
		"forgery_reject":     {forgeryReject, "ratio"},
	}
	return b.report(m), nil
}

func (b *bench) report(m map[string]metric) *report {
	for _, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			b.fail("a metric is not finite (a phase lost requests)")
			break
		}
	}
	for _, pr := range b.problems {
		fmt.Fprintln(stderr, "citybench:", pr)
	}
	return &report{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMiB is the live heap after forced collections. The pause lets
// the goroutines of a provider just closed exit first.
func liveHeapMiB() float64 {
	runtime.GC()
	time.Sleep(20 * time.Millisecond)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runtimeSample reads total heap allocation and the GC and total CPU
// seconds the runtime accounts.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(0), val(1), val(2)}
}

// tracedRun measures the per-layer metrics.
func (b *bench) tracedRun() (*report, error) {
	if err := b.generate(b.closedEvents(), b.horizon(
		[2]float64{b.sp.baseRate, plainTracedShare},
		[2]float64{b.sp.baseRate, baseTracedShare},
		[2]float64{b.sp.busyRate, busyTracedShare})); err != nil {
		return nil, err
	}
	if err := b.measureSetup(); err != nil {
		return nil, err
	}
	ours, err := b.gate()
	if err != nil {
		return nil, err
	}
	m := map[string]metric{}

	// The traced serial pass must give the untraced verdict vector.
	p, err := b.newOwn(newTracer())
	if err != nil {
		return nil, err
	}
	traced, sent := b.driver(p, nil).serial(b.w, b.sp.gateEvents, nil)
	b.attempted += sent
	b.finish(p, "traced gate")
	for i := range ours {
		if traced[i].verdict != ours[i].verdict {
			b.fail("tracing changed the verdict of event %d", i)
			break
		}
	}

	if err := b.serialLayers(m); err != nil {
		return nil, err
	}

	// Closed loop: conns senders back to back.
	if p, err = b.newOwn(nil); err != nil {
		return nil, err
	}
	capacity, sent, failed := b.driver(p, nil).closedLoop(b.w, b.closedEvents(), b.conns, closedWindows)
	b.attempted += sent
	b.failed += failed
	b.finish(p, "closed loop")
	m["capacity_rps"] = metric{capacity, "verdicts/s"}

	// Untraced base phase, the reference for the tracing overhead.
	if p, err = b.newOwn(nil); err != nil {
		return nil, err
	}
	plain := b.openPhase(p, nil, b.sp.baseRate, plainTracedShare)
	b.finish(p, "untraced base")
	if err := checkLag(plain); err != nil {
		return nil, err
	}
	m["p50_ms"] = metric{plain.latency(0.50), "ms"}
	m["p99_ms"] = metric{plain.latency(0.99), "ms"}
	m["loadgen.lag_p99_ms"] = metric{plain.lagP99, "ms"}

	// Traced base phase.
	tr := newTracer()
	if p, err = b.newOwn(tr); err != nil {
		return nil, err
	}
	st0, rt0 := p.svc.Stats(), readRuntime()
	var cl0 clusterCounters
	if p.cs != nil {
		cl0 = readCluster(p)
	}
	base := b.openPhase(p, tr, b.sp.baseRate, baseTracedShare)
	st1, rt1 := p.svc.Stats(), readRuntime()
	verdicts := float64(max(base.verdicts, 1))
	handleMetrics(m, tr)
	layer := "rssimap"
	if p.cs != nil {
		layer = "cluster"
		cl1 := readCluster(p)
		m["cluster.forwards_per_verdict"] = metric{float64(cl1.forwards-cl0.forwards) / verdicts, "count"}
		m["cluster.halo_per_verdict"] = metric{float64(cl1.halo-cl0.halo) / verdicts, "count"}
	} else {
		m["cluster.forwards_per_verdict"] = metric{0, "count"}
		m["cluster.halo_per_verdict"] = metric{0, "count"}
	}
	feats := tr.byName(layer + ".features")
	for _, l := range []string{"rssimap", "cluster"} {
		var f []time.Duration
		if l == layer {
			f = feats
		}
		m[l+".features_p50_us"] = metric{usQuantile(f, 0.50), "us"}
		m[l+".features_p99_us"] = metric{usQuantile(f, 0.99), "us"}
	}
	m["rssimap.features_per_verdict"] = metric{float64(len(feats)) / verdicts, "count"}
	ingest := tr.byName(layer + ".ingest")
	m["rssimap.ingest_us"] = metric{meanUS(ingest), "us"}
	m["rssimap.ingest_per_verdict"] = metric{float64(len(ingest)) / verdicts, "count"}
	m["rssimap.records"] = metric{float64(p.store.Len()), "count"}
	m["detect.replay_history"] = metric{float64(p.replayHistory()), "count"}
	m["stream.append_p99_ms"] = metric{quantile(base.kindLats[kindAppend], 0.99), "ms"}
	m["stream.close_p99_ms"] = metric{quantile(base.kindLats[kindClose], 0.99), "ms"}
	early := 0.0
	if st0.Sessions != nil && st1.Sessions != nil {
		early = ratio(float64(st1.Sessions.EarlyExits-st0.Sessions.EarlyExits), float64(st1.Sessions.Opened-st0.Sessions.Opened))
	}
	m["stream.early_exit_ratio"] = metric{early, "ratio"}
	walBytes, walFrames := 0.0, 0.0
	if st0.Persistence != nil && st1.Persistence != nil {
		walBytes = float64(st1.Persistence.WALBytes-st0.Persistence.WALBytes) / verdicts
		walFrames = float64(st1.Persistence.WALFrames-st0.Persistence.WALFrames) / verdicts
	}
	m["wal.bytes_per_verdict"] = metric{walBytes, "B"}
	m["wal.frames_per_verdict"] = metric{walFrames, "count"}
	m["runtime.alloc_kb_per_verdict"] = metric{(rt1.allocBytes - rt0.allocBytes) / 1024 / verdicts, "KiB"}
	m["runtime.gc_cpu_frac"] = metric{ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), "ratio"}
	p50 := base.latency(0.50)
	p50plain := plain.latency(0.50)
	m["loadgen.trace_overhead_frac"] = metric{ratio(p50-p50plain, p50plain), "ratio"}
	b.finish(p, "traced base")
	if err := tr.write(filepath.Join(b.workDir, fmt.Sprintf("trace-%s-seed%d.jsonl", b.sp.name, b.seed))); err != nil {
		return nil, err
	}

	// Traced busy phase: shedding.
	if p, err = b.newOwn(newTracer()); err != nil {
		return nil, err
	}
	busy := b.openPhase(p, nil, b.sp.busyRate, busyTracedShare)
	b.finish(p, "traced busy")
	m["server.shed_ratio"] = metric{busy.shedRatio, "ratio"}

	m["rssimap.build_s"] = metric{b.setupMedian(func(s setupTimes) float64 { return s.build }), "s"}
	m["detect.train_s"] = metric{b.setupMedian(func(s setupTimes) float64 { return s.train }), "s"}
	m["detect.history_s"] = metric{b.setupMedian(func(s setupTimes) float64 { return s.history }), "s"}
	m["cluster.start_s"] = metric{b.setupMedian(func(s setupTimes) float64 { return s.cluster }), "s"}
	m["setup.wall_s"] = metric{b.setupMedian(func(s setupTimes) float64 { return s.wall }), "s"}
	m["loadgen.gen_s"] = metric{b.genS, "s"}
	return b.report(m), nil
}

// handleMetrics derives the server handle and transport spans of the
// verdict-bearing requests.
func handleMetrics(m map[string]metric, tr *tracer) {
	handles := tr.reqSpans("server.handle")
	var handle, transport []time.Duration
	for _, kind := range []string{kindUpload, kindClose} {
		for id, c := range tr.reqSpans("client." + kind) {
			h, ok := handles[id]
			if !ok {
				continue
			}
			handle = append(handle, h.dur())
			transport = append(transport, c.dur()-h.dur())
		}
	}
	m["server.handle_p50_us"] = metric{usQuantile(handle, 0.50), "us"}
	m["server.handle_p99_us"] = metric{usQuantile(handle, 0.99), "us"}
	m["server.transport_p50_us"] = metric{usQuantile(transport, 0.50), "us"}
}

func meanUS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / 1e3
}

type clusterCounters struct{ forwards, halo uint64 }

func readCluster(p *provider) clusterCounters {
	st := p.cs.Stats()
	return clusterCounters{st.Forwarded, st.HaloUpdates}
}

// serialLayers times single calls into each layer's public functions on
// a fresh provider, one call at a time.
func (b *bench) serialLayers(m map[string]metric) error {
	p, err := b.newOwn(nil)
	if err != nil {
		return err
	}
	defer b.finish(p, "serial layers")
	n := b.sp.gateEvents
	evs := b.w.events[:n]

	// Decode: the workload's wire form, a few passes.
	const passes = 5
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for k := 0; k < passes; k++ {
		for i := range evs {
			if b.sp.binary {
				if _, err := server.ParseUploadBinary(evs[i].bin); err != nil {
					return err
				}
			} else {
				var req server.UploadRequest
				if err := json.Unmarshal(evs[i].json, &req); err != nil {
					return err
				}
			}
		}
	}
	decodeTime := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	calls := float64(passes * n)
	m["server.decode_us"] = metric{float64(decodeTime) / 1e3 / calls, "us"}
	m["server.decode_allocs"] = metric{float64(ms1.Mallocs-ms0.Mallocs) / calls, "count"}

	ctx := context.Background()
	var verify, rules, replay, score []time.Duration
	var ruleRejects, replayRejects int
	rc := detect.NewRuleChecker()
	for i := range evs {
		u := evs[i].upload
		t := time.Now()
		if _, err := p.svc.Verify(ctx, u); err != nil {
			return err
		}
		verify = append(verify, time.Since(t))

		t = time.Now()
		if len(rc.Check(u.Traj)) > 0 {
			ruleRejects++
		}
		rules = append(rules, time.Since(t))

		t = time.Now()
		if p.replay.IsReplay(u.Traj) {
			replayRejects++
		}
		replay = append(replay, time.Since(t))

		feat, err := p.det.Store.Features(u, p.det.Features)
		if err != nil {
			return err
		}
		t = time.Now()
		p.det.Model.PredictProb(feat)
		score = append(score, time.Since(t))
	}
	m["server.verify_p50_us"] = metric{usQuantile(verify, 0.50), "us"}
	m["server.verify_p99_us"] = metric{usQuantile(verify, 0.99), "us"}
	m["detect.rules_us"] = metric{meanUS(rules), "us"}
	m["detect.rules_reject_ratio"] = metric{ratio(float64(ruleRejects), float64(n)), "ratio"}
	m["detect.replay_us"] = metric{meanUS(replay), "us"}
	m["detect.replay_p99_us"] = metric{usQuantile(replay, 0.99), "us"}
	m["detect.replay_reject_ratio"] = metric{ratio(float64(replayRejects), float64(n)), "ratio"}
	m["xgb.score_us"] = metric{meanUS(score), "us"}
	return nil
}
