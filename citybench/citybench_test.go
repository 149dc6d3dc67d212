package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"trajforge/internal/dataset"
	"trajforge/internal/rssimap"
)

// contract is the part of BENCHMARK.json the tests check against.
type contract struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDigestFollowsSeed(t *testing.T) {
	sp, _ := specByName("city_binary")
	digest := func(seed int64) string {
		w, err := buildWorkload(sp, seed, 40, 0)
		if err != nil {
			t.Fatal(err)
		}
		return w.digest
	}
	a, b, c := digest(1), digest(1), digest(2)
	if a != b {
		t.Fatalf("equal seeds gave digests %s and %s", a, b)
	}
	if a == c {
		t.Fatalf("seeds 1 and 2 gave the same digest %s", a)
	}
}

func TestContractNamesWorkloads(t *testing.T) {
	c := loadContract(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, m := range append(c.EndToEnd, c.PerLayer...) {
		if !nameRE.MatchString(m.Name) || m.Unit == "" {
			t.Errorf("metric %q (unit %q) is malformed", m.Name, m.Unit)
		}
	}
	if len(c.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(specs))
	}
	for _, wl := range c.Workloads {
		if _, ok := specByName(wl.Name); !ok {
			t.Errorf("workload %q has no spec", wl.Name)
		}
	}
}

// shortRun runs one workload for a second with a short gate, in a
// temporary directory.
func shortRun(t *testing.T, name string, traced bool) *report {
	t.Helper()
	sp, _ := specByName(name)
	sp.gateEvents = 60
	b := &bench{sp: sp, seed: 3, seconds: 1, conns: 2, workDir: t.TempDir()}
	var rep *report
	var err error
	if traced {
		rep, err = b.tracedRun()
	} else {
		rep, err = b.untracedRun()
	}
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("%s: correctness gate failed: %v", name, b.problems)
	}
	return rep
}

// checkMetrics asserts the report prints exactly the contract's metrics,
// each with its unit.
func checkMetrics(t *testing.T, rep *report, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(rep.Metrics) != len(want) {
		t.Errorf("report has %d metrics, contract %d", len(rep.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s has unit %q, contract %q", m.Name, got.Unit, m.Unit)
		}
	}
}

func TestUntracedRunPrintsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the provider")
	}
	rep := shortRun(t, "city_binary", false)
	checkMetrics(t, rep, loadContract(t).EndToEnd)
	for name, m := range rep.Metrics {
		if m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
		}
	}
}

// TestWorkloadsReachTheirLayers runs every workload traced and checks
// that each reaches the layers its rationale claims, and no other.
func TestWorkloadsReachTheirLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the provider")
	}
	c := loadContract(t)
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			rep := shortRun(t, sp.name, true)
			checkMetrics(t, rep, c.PerLayer)
			v := func(name string) float64 { return rep.Metrics[name].Value }
			expect := func(name string, want bool) {
				if got := v(name) > 0; got != want {
					t.Errorf("%s = %v, want > 0: %v", name, v(name), want)
				}
			}
			expect("cluster.forwards_per_verdict", sp.cluster)
			expect("cluster.features_p50_us", sp.cluster)
			expect("cluster.start_s", sp.cluster)
			expect("rssimap.features_p50_us", !sp.cluster)
			expect("wal.frames_per_verdict", sp.wal)
			expect("stream.close_p99_ms", sp.streamFrac > 0)
			expect("server.handle_p50_us", true)
			expect("server.decode_us", true)
			expect("detect.replay_us", true)
			expect("xgb.score_us", true)
			expect("rssimap.ingest_per_verdict", true)
			// The city's 90-upload history leaves a 67-upload bootstrap.
			if h, want := v("detect.replay_history"), float64((sp.corpusFactor+1)*67); h < want {
				t.Errorf("replay history %v, want at least %v", h, want)
			}
		})
	}
}

// TestTracingPreservesInterfaces checks that the backend wrapper
// implements exactly the optional interfaces of the store it wraps.
func TestTracingPreservesInterfaces(t *testing.T) {
	sp, _ := specByName("city_binary")
	w, err := buildWorkload(sp, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	records := dataset.Records(w.bootstrap())
	local, err := rssimap.NewStore(rssimap.DefaultConfig(), records)
	if err != nil {
		t.Fatal(err)
	}
	p := &provider{}
	defer p.close()
	if err := p.startCluster(records); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	for _, store := range []rssimap.Backend{local, p.cs} {
		wrapped := wrapBackend(store, tr)
		_, ctxIn := store.(rssimap.ContextBackend)
		_, ctxOut := wrapped.(rssimap.ContextBackend)
		_, trustIn := store.(rssimap.TrustWeighted)
		_, trustOut := wrapped.(rssimap.TrustWeighted)
		if ctxIn != ctxOut || trustIn != trustOut {
			t.Errorf("%T: ContextBackend %v→%v, TrustWeighted %v→%v", store, ctxIn, ctxOut, trustIn, trustOut)
		}
	}
}
