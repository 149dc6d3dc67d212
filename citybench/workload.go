package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"trajforge/internal/loadgen"
	"trajforge/internal/server"
	"trajforge/internal/wifi"
)

// Traffic classes. honest and honest_stream are genuine trips; nav_attack
// and spoof_jump are the city generator's two forgery classes.
const (
	classHonest       = "honest"
	classHonestStream = "honest_stream"
	classNavAttack    = "nav_attack"
	classSpoofJump    = "spoof_jump"
)

// Request kinds; upload and close carry a verdict.
const (
	kindUpload = "upload"
	kindOpen   = "open"
	kindAppend = "append"
	kindClose  = "close"
)

// streamChunks is the number of appends per streaming session.
const streamChunks = 4

// event is one pre-encoded arrival: a batch upload, or a whole streaming
// session (open, appends, close).
type event struct {
	class  string
	honest bool
	// upload is the generated upload, and json and bin the batch upload
	// in both wire forms; sessions keep them too, so the batch-vs-stream
	// gate can re-post a session as one upload. Past the gate events only
	// the wire form the workload sends is kept.
	upload    *wifi.Upload
	json, bin []byte
	// open, appends, close are the session requests (honest_stream).
	open    []byte
	appends [][]byte
	close   []byte
}

func (e *event) stream() bool { return e.class == classHonestStream }

// citySeed fixes the city: its road network, radio world, agents and
// bootstrap history, and so the provider built from them. The run seed
// draws the traffic. Across city seeds honest_accept ran from 0.15 to
// 0.26 and the provider's heap doubled, which no run length can steady.
const citySeed = 1

// workload is everything a run sends, derived from the seed alone.
type workload struct {
	spec   spec
	city   *loadgen.City
	corpus []*wifi.Upload // pre-grown honest history (city_json only)
	events []event
	// unit holds unit-rate Poisson arrival offsets, one per event; a phase
	// at rate r sends event i at unit[i]/r seconds.
	unit   []float64
	digest string
}

// bootstrap is the part of the city history the provider's store and
// replay checker start from; the rest trains the detector (the split
// lspserver and loadgen use).
func (w *workload) bootstrap() []*wifi.Upload {
	return w.city.Hist[:len(w.city.Hist)*3/4]
}

// buildWorkload builds the city and pre-encodes at least n events, and
// enough to cover unit-rate arrival time horizon. Every event
// draws from its own RNG, seeded from the run seed and its index, so the
// events can be generated in parallel and still be a pure function of
// the seed.
func buildWorkload(sp spec, seed int64, n int, horizon float64) (*workload, error) {
	city, err := loadgen.BuildCity(loadgen.CityOptions{Seed: citySeed})
	if err != nil {
		return nil, err
	}
	w := &workload{spec: sp, city: city}
	arr := rand.New(rand.NewSource(seed*1_000_003 - 1))
	for t := 0.0; len(w.unit) < n || t < horizon; {
		t += arr.ExpFloat64()
		w.unit = append(w.unit, t)
	}
	n = len(w.unit)
	w.events = make([]event, n)
	enc := server.NewClient("", city.Projection)

	var corpusBodies [][]byte
	if sp.corpusFactor > 0 {
		m := sp.corpusFactor * len(w.bootstrap())
		w.corpus = make([]*wifi.Upload, m)
		corpusBodies = make([][]byte, m)
		err := parallelFor(m, func(i int) error {
			rng := rand.New(rand.NewSource(seed*1_000_003 + 500_000 + int64(i)))
			var u *wifi.Upload
			var err error
			for tries := 0; tries < 8; tries++ {
				if u, err = city.HonestUpload(rng, city.Agents[rng.Intn(len(city.Agents))]); err == nil {
					break
				}
			}
			if err != nil {
				return fmt.Errorf("corpus %d: %w", i, err)
			}
			u.Traj.ID = fmt.Sprintf("corpus-%d", i)
			req, err := enc.BuildRequest(u)
			if err != nil {
				return fmt.Errorf("corpus %d: %w", i, err)
			}
			w.corpus[i] = u
			corpusBodies[i], err = server.EncodeUploadBinary(req)
			return err
		})
		if err != nil {
			return nil, err
		}
	}

	err = parallelFor(n, func(i int) error {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
		return w.makeEvent(rng, enc, i, &w.events[i])
	})
	if err != nil {
		return nil, err
	}

	w.digest = w.hash(corpusBodies)
	return w, nil
}

func (w *workload) makeEvent(rng *rand.Rand, enc *server.Client, i int, ev *event) error {
	r := rng.Float64()
	var err error
	// Some agents have no viable trip in some cities; draw another agent
	// from the event's own RNG, so the choice stays seed-determined.
	for tries := 0; tries < 8; tries++ {
		if err = w.drawUpload(rng, r, ev); err == nil {
			break
		}
	}
	if err != nil {
		return fmt.Errorf("event %d: %w", i, err)
	}
	u := ev.upload
	u.Traj.ID = fmt.Sprintf("ev-%d", i)
	req, err := enc.BuildRequest(u)
	if err != nil {
		return fmt.Errorf("event %d: %w", i, err)
	}
	if ev.json, err = json.Marshal(req); err != nil {
		return err
	}
	if ev.bin, err = server.EncodeUploadBinary(req); err != nil {
		return err
	}
	if i >= w.spec.gateEvents {
		// Past the gate only the workload's own wire form is sent; keeping
		// the rest would inflate the heap the provider's GC scans.
		ev.upload = nil
		if w.spec.binary {
			ev.json = nil
		} else {
			ev.bin = nil
		}
	}
	if !ev.stream() {
		return nil
	}
	mode := ""
	if u.Traj.Mode != 0 {
		mode = u.Traj.Mode.String()
	}
	id := u.Traj.ID
	if ev.open, err = json.Marshal(server.SessionOpenRequest{ID: id, Mode: mode}); err != nil {
		return err
	}
	n := u.Traj.Len()
	for k := 0; k < streamChunks; k++ {
		lo, hi := k*n/streamChunks, (k+1)*n/streamChunks
		areq, err := enc.BuildSessionAppend(id, k, u, lo, hi)
		if err != nil {
			return fmt.Errorf("event %d chunk %d: %w", i, k, err)
		}
		body, err := json.Marshal(areq)
		if err != nil {
			return err
		}
		ev.appends = append(ev.appends, body)
	}
	ev.close, err = json.Marshal(server.SessionCloseRequest{SessionID: id})
	return err
}

// drawUpload generates the upload of class r (a uniform draw over the
// class mix) for a random agent.
func (w *workload) drawUpload(rng *rand.Rand, r float64, ev *event) error {
	c := w.city
	a := c.Agents[rng.Intn(len(c.Agents))]
	var err error
	switch {
	case r < w.spec.spoofFrac:
		ev.class = classSpoofJump
		ev.upload, err = c.SpoofJumpUpload(rng, a)
	case r < w.spec.spoofFrac+w.spec.navFrac:
		ev.class = classNavAttack
		ev.upload, err = c.NavAttackUpload(rng, a, c.Hist)
	case r < w.spec.spoofFrac+w.spec.navFrac+w.spec.streamFrac:
		ev.class = classHonestStream
		ev.honest = true
		ev.upload, err = c.HonestUpload(rng, a)
	default:
		ev.class = classHonest
		ev.honest = true
		ev.upload, err = c.HonestUpload(rng, a)
	}
	return err
}

// hash is the SHA-256 over every request byte the workload sends (in the
// workload's wire form), the arrival offsets, and the pre-grown corpus.
func (w *workload) hash(corpus [][]byte) string {
	h := sha256.New()
	var b [8]byte
	for i := range w.events {
		ev := &w.events[i]
		h.Write([]byte(ev.class))
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(w.unit[i]))
		h.Write(b[:])
		switch {
		case ev.stream():
			h.Write(ev.open)
			for _, a := range ev.appends {
				h.Write(a)
			}
			h.Write(ev.close)
		case w.spec.binary:
			h.Write(ev.bin)
		default:
			h.Write(ev.json)
		}
	}
	for _, body := range corpus {
		h.Write(body)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// parallelFor runs f(0..n-1) on GOMAXPROCS workers and returns the first
// error.
func parallelFor(n int, f func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += workers {
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}(g)
	}
	wg.Wait()
	return first
}
