// Command citybench is the repository benchmark: it drives seeded city
// workloads against an in-process verification provider over loopback
// HTTP and prints end-to-end metrics (untraced run) or per-layer metrics
// (traced run) as one JSON line. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// spec is one workload. Rates are absolute events per second, fixed once
// from the parent commit's capacity_rps (about 40% and 75%); they are
// never scaled to a capacity measured during the run.
type spec struct {
	name    string
	binary  bool // batch uploads use the binary wire (else JSON)
	wal     bool
	cluster bool
	// corpusFactor pre-grows the replay history and RSSI store by this
	// multiple of the bootstrap history (0: fresh provider).
	corpusFactor                   int
	streamFrac, navFrac, spoofFrac float64
	baseRate, busyRate             float64
	// closedRate sizes the closed-loop phase: closedRate × its share of
	// --seconds events, about the parent's capacity.
	closedRate float64
	// gateEvents is the length of the serial correctness pass, which also
	// gives serial_p50_ms, honest_accept and forgery_reject. At 1,500
	// events honest_accept on city_json, which accepts few honest
	// uploads, had a quartile spread of 0.17 over ten seeds.
	gateEvents int
}

var specs = []spec{
	{
		name: "city_json", wal: true, corpusFactor: 10,
		streamFrac: 0.20, navFrac: 0.15, spoofFrac: 0.10,
		baseRate: 195, busyRate: 365, closedRate: 650, gateEvents: 3000,
	},
	{
		name: "city_binary", binary: true,
		navFrac: 0.15, spoofFrac: 0.10,
		baseRate: 920, busyRate: 1720, closedRate: 2500, gateEvents: 3000,
	},
	{
		name: "city_cluster", binary: true, cluster: true,
		navFrac: 0.15, spoofFrac: 0.10,
		baseRate: 690, busyRate: 1290, closedRate: 1850, gateEvents: 3000,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line the benchmark prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "city_json, city_binary or city_cluster")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run printing per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for WAL files and traces")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "citybench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*workload, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "citybench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, outDir string) error {
	sp, ok := specByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	workDir, err := filepath.Abs(filepath.Join(outDir, "citybench-work"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	b := &bench{sp: sp, seed: seed, seconds: float64(seconds), conns: procs, workDir: workDir}
	var rep *report
	if traced {
		rep, err = b.tracedRun()
	} else {
		rep, err = b.untracedRun()
	}
	if err != nil {
		return err
	}
	info := map[string]any{
		"workload": sp.name, "seed": seed, "seconds": seconds, "trace": traced,
		"gomaxprocs": runtime.GOMAXPROCS(0), "connections": procs,
		"workload_digest": b.w.digest, "verdict_digest": b.verdictDigest,
		"events": len(b.w.events), "base_rate": sp.baseRate, "busy_rate": sp.busyRate,
	}
	if err := printJSON(info); err != nil {
		return err
	}
	return printJSON(rep)
}

func printJSON(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// median returns the median of xs (mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

var stderr = os.Stderr
