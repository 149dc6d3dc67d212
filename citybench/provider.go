package main

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"trajforge/internal/cluster"
	"trajforge/internal/dataset"
	"trajforge/internal/detect"
	"trajforge/internal/resilience"
	"trajforge/internal/rssimap"
	"trajforge/internal/server"
	"trajforge/internal/shardstore"
	"trajforge/internal/stream"
	"trajforge/internal/wifi"
	"trajforge/internal/xgb"
)

// minD is the replay threshold lspserver and loadgen serve with (the
// paper's walking MinD, DTW per metre).
const minD = 1.2

// clusterNodes is the shard-node count of the city_cluster backend.
const clusterNodes = 3

// providerConfig selects how one provider is built. A twin provider for
// the correctness gate differs from the workload's own in wal/cluster.
type providerConfig struct {
	wal     bool
	cluster bool
	// corpus is pre-grown into the replay history and the RSSI store.
	corpus []*wifi.Upload
	// tracer, when set, wraps the RSSI backend and the HTTP handler.
	tracer *tracer
}

// setupTimes are the timed constructor calls of one provider build: the
// process CPU seconds (user+sys) of each step and of the whole build, and
// the build's wall-clock seconds. CPU time leaves out the time the host
// takes the CPU away from a virtual machine, which on a shared host moved the
// wall-clock build time by more than the bound set-up time is held to.
type setupTimes struct {
	build, train, history, cluster, total float64
	wall                                  float64
}

// provider is one freshly built verification service served over
// loopback HTTP, configured the way lspserver serves: rules, replay,
// WiFi detector, accepted-upload ingestion, streaming sessions and
// admission control, plus the WAL when the workload asks for it.
type provider struct {
	svc    *server.Service
	srv    *httptest.Server
	url    string
	replay *detect.ReplayChecker
	det    *detect.WiFiDetector // as served (backend possibly wrapped)
	// store is the unwrapped serving backend; cs is set when it is the
	// cluster store. Stats are read from these concrete stores, because
	// Service.Stats finds them by type assertion on the served backend.
	store   rssimap.Backend
	cs      *cluster.Store
	nodes   []*cluster.Node
	persist *server.Persistence
	dir     string
	// preload is the replay history at setup (bootstrap plus corpus).
	preload int
	times   setupTimes
}

func newProvider(w *workload, cfg providerConfig, workDir string) (p *provider, err error) {
	p = &provider{}
	defer func() {
		if err != nil {
			p.close()
			p = nil
		}
	}()
	t0, c0 := time.Now(), cpuTime()
	boot := w.bootstrap()
	hist := w.city.Hist

	local, err := rssimap.NewStore(rssimap.DefaultConfig(), dataset.Records(boot))
	if err != nil {
		return p, err
	}
	c1 := cpuTime()
	p.times.build = (c1 - c0).Seconds()

	rng := rand.New(rand.NewSource(citySeed + 13))
	var fakes []*wifi.Upload
	for _, u := range boot[:len(boot)/2] {
		f, err := dataset.ForgeUpload(rng, u, minD)
		if err != nil {
			return p, err
		}
		fakes = append(fakes, f)
	}
	trained, err := detect.TrainWiFiDetector(local, hist[len(boot):], fakes,
		rssimap.DefaultFeatureConfig(), xgb.DefaultConfig())
	if err != nil {
		return p, err
	}
	c2 := cpuTime()
	p.times.train = (c2 - c1).Seconds()

	if p.replay, err = detect.NewReplayChecker(minD); err != nil {
		return p, err
	}
	for _, u := range boot {
		p.replay.AddHistory(u.Traj)
	}
	for _, u := range cfg.corpus {
		p.replay.AddHistory(u.Traj)
	}
	if len(cfg.corpus) > 0 {
		local.AddUploads(cfg.corpus)
	}
	p.preload = len(boot) + len(cfg.corpus)
	c3 := cpuTime()
	p.times.history = (c3 - c2).Seconds()

	p.store = local
	if cfg.cluster {
		if err := p.startCluster(local.Records()); err != nil {
			return p, err
		}
		p.store = p.cs
		p.times.cluster = (cpuTime() - c3).Seconds()
	}

	served := p.store
	if cfg.tracer != nil {
		served = wrapBackend(p.store, cfg.tracer)
	}
	p.det = &detect.WiFiDetector{Store: served, Model: trained.Model, Features: trained.Features}

	if cfg.wal {
		if p.dir, err = os.MkdirTemp(workDir, "wal-"); err != nil {
			return p, err
		}
		p.persist, err = server.OpenPersistence(p.dir, server.PersistOptions{
			Breaker: &resilience.BreakerConfig{Cooldown: time.Second},
		})
		if err != nil {
			return p, err
		}
	}
	scfg := server.Config{
		Projection:     w.city.Projection,
		Rules:          detect.NewRuleChecker(),
		Replay:         p.replay,
		WiFi:           p.det,
		IngestAccepted: true,
		MaxInFlight:    4 * runtime.NumCPU(),
		UploadTimeout:  10 * time.Second,
		Stream:         &stream.Config{},
	}
	if p.persist != nil {
		scfg.Persist = p.persist
	}
	if p.svc, err = server.New(scfg); err != nil {
		return p, err
	}
	if p.persist != nil {
		// A first start on an empty data directory: restore nothing, then
		// snapshot the bootstrap state, as lspserver does.
		p.svc.Restore(p.persist.Recovered())
		if err := p.persist.Compact(); err != nil {
			return p, err
		}
	}
	handler := p.svc.Handler()
	if cfg.tracer != nil {
		handler = cfg.tracer.middleware(handler)
	}
	p.srv = httptest.NewServer(handler)
	p.url = p.srv.URL
	p.times.total = (cpuTime() - c0).Seconds()
	p.times.wall = time.Since(t0).Seconds()
	return p, nil
}

// startCluster starts the loopback shard nodes and the coordinator store
// and seeds it with the bootstrap records.
func (p *provider) startCluster(records []rssimap.Record) error {
	addrs := make(map[string]string, clusterNodes)
	for i := 1; i <= clusterNodes; i++ {
		id := fmt.Sprintf("n%d", i)
		node, err := cluster.NewNode(id, shardstore.DefaultConfig(), cluster.NodeOptions{})
		if err != nil {
			return err
		}
		p.nodes = append(p.nodes, node)
		addr, err := node.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		addrs[id] = addr.String()
	}
	cs, err := cluster.NewStore(cluster.Options{Shard: shardstore.DefaultConfig(), Nodes: addrs})
	if err != nil {
		return err
	}
	p.cs = cs
	cs.Add(records)
	return nil
}

// internalErrors reads the service's 500 counter.
func (p *provider) internalErrors() int64 { return p.svc.Stats().InternalErrors }

// replayHistory is the replay checker's current history: the setup
// preload plus every upload accepted since.
func (p *provider) replayHistory() int { return p.preload + p.svc.Stats().History }

// close stops the HTTP server, drains the WAL and takes its final
// snapshot, and stops the cluster. It is safe on a partly built provider.
func (p *provider) close() error {
	var err error
	if p.srv != nil {
		p.srv.Close()
	}
	if p.svc != nil {
		err = p.svc.Close()
	}
	if p.cs != nil {
		p.cs.Close()
	}
	for _, n := range p.nodes {
		n.Close()
	}
	if p.dir != "" {
		if rerr := os.RemoveAll(p.dir); err == nil {
			err = rerr
		}
	}
	return err
}
