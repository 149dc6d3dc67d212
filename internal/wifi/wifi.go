// Package wifi simulates the WiFi radio environment of a commercial area:
// access-point deployment and the received signal strength (RSSI) a phone
// observes at any position. It replaces the paper's real-world scans.
//
// The propagation model is log-distance path loss plus a *spatially
// correlated* shadowing field per AP (buildings, foliage) plus per-
// measurement white noise (device orientation, interference), quantised to
// integer dBm with a sensing floor. The correlated field is what makes the
// defense work and the attack fail: RSSI varies smoothly over space, so
// nearby historical points predict a fresh measurement well, while a value
// replayed from >= MinD away is statistically inconsistent.
package wifi

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"trajforge/internal/binfmt"
	"trajforge/internal/geo"
	"trajforge/internal/stats"
	"trajforge/internal/trajectory"
)

// AP is one deployed access point.
type AP struct {
	ID  int
	MAC string
	Pos geo.Point
	// TxRef is the RSSI at the 1 m reference distance, dBm.
	TxRef float64
	// PathLossExp is the log-distance path-loss exponent.
	PathLossExp float64

	shadow *stats.Field2D
}

// Observation is one AP heard in a scan.
type Observation struct {
	MAC  string `json:"mac"`
	RSSI int    `json:"rssi"` // dBm
}

// Scan is the list of APs heard at one position, strongest first.
type Scan []Observation

// RSSIOf returns the RSSI of mac in the scan and whether it was heard.
func (s Scan) RSSIOf(mac string) (int, bool) {
	for _, o := range s {
		if o.MAC == mac {
			return o.RSSI, true
		}
	}
	return 0, false
}

// TopK returns the k strongest observations (fewer when the scan is small).
func (s Scan) TopK(k int) Scan {
	if k >= len(s) {
		return s
	}
	return s[:k]
}

// Clone returns a deep copy of the scan.
func (s Scan) Clone() Scan { return append(Scan(nil), s...) }

// Every binary codec that carries scans (upload wire, WAL payloads,
// shard RPC) lays one out the same way, little endian:
//
//	u16 n | n × { u8 len(mac) | mac | i16 rssi }

// CheckFrame reports binfmt.ErrValue if s cannot be written in the frame
// layout: more than 65,535 observations, a MAC over 255 bytes, or an RSSI
// outside int16.
func (s Scan) CheckFrame() error {
	if len(s) > math.MaxUint16 {
		return fmt.Errorf("%w: scan of %d observations", binfmt.ErrValue, len(s))
	}
	for _, o := range s {
		if err := binfmt.CheckStr8(o.MAC); err != nil {
			return fmt.Errorf("MAC: %w", err)
		}
		if err := binfmt.CheckI16(o.RSSI); err != nil {
			return fmt.Errorf("RSSI: %w", err)
		}
	}
	return nil
}

// AppendScan appends s in the frame layout; it refuses a scan CheckFrame
// refuses.
func AppendScan(buf []byte, s Scan) ([]byte, error) {
	if err := s.CheckFrame(); err != nil {
		return nil, err
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	for _, o := range s {
		buf = append(append(buf, byte(len(o.MAC))), o.MAC...)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(int16(o.RSSI)))
	}
	return buf, nil
}

// ReadScan reads one scan in the frame layout; an empty scan reads as nil.
// Failures stay on r.
func ReadScan(r *binfmt.Reader) Scan {
	n := int(r.U16())
	if n == 0 {
		return nil
	}
	s := make(Scan, 0, n)
	for i := 0; i < n; i++ {
		mac := r.Str8()
		s = append(s, Observation{MAC: mac, RSSI: int(int16(r.U16()))})
	}
	return s
}

// Config describes a simulated area.
type Config struct {
	// Width, Height of the area in metres.
	Width, Height float64
	// NumAPs deployed uniformly at random.
	NumAPs int
	// TxRefMin/Max bound the per-AP 1 m reference RSSI (dBm).
	TxRefMin, TxRefMax float64
	// PathLossMin/Max bound the per-AP path-loss exponent.
	PathLossMin, PathLossMax float64
	// ShadowSD is the standard deviation of the correlated shadowing field
	// (dB); ShadowCorrLen its correlation length (metres).
	ShadowSD, ShadowCorrLen float64
	// NoiseSD is the per-measurement white noise (dB).
	NoiseSD float64
	// Floor is the sensing floor: APs below it are not reported (dBm).
	Floor int
}

// DefaultConfig returns radio parameters that produce per-point AP counts
// (k) comparable to the paper's Table III in a dense commercial area.
func DefaultConfig(width, height float64, numAPs int) Config {
	return Config{
		Width: width, Height: height,
		NumAPs:   numAPs,
		TxRefMin: -50, TxRefMax: -38,
		PathLossMin: 2.8, PathLossMax: 3.6,
		ShadowSD: 9, ShadowCorrLen: 2.5,
		NoiseSD: 0.8,
		Floor:   -90,
	}
}

// World is a simulated radio environment.
type World struct {
	cfg Config
	aps []*AP
	// grid buckets APs for fast range scans.
	grid     map[[2]int][]*AP
	cellSize float64
	maxRange float64
}

// NewWorld deploys the APs and samples their shadowing fields.
func NewWorld(rng *rand.Rand, cfg Config) (*World, error) {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, fmt.Errorf("wifi: area %gx%g must be positive", cfg.Width, cfg.Height)
	}
	if cfg.NumAPs <= 0 {
		return nil, fmt.Errorf("wifi: need at least one AP, got %d", cfg.NumAPs)
	}
	if cfg.TxRefMax < cfg.TxRefMin || cfg.PathLossMax < cfg.PathLossMin {
		return nil, fmt.Errorf("wifi: inverted parameter ranges")
	}
	w := &World{cfg: cfg}

	// Maximum hearing range given the strongest possible AP with a modest
	// shadowing allowance, capped at the ~100 m an outdoor AP realistically
	// reaches; beyond that the mean signal sits far below the floor and the
	// shadowing fields would cover enormous areas for nothing.
	w.maxRange = math.Min(100, rangeFor(cfg.TxRefMax, cfg.PathLossMin, float64(cfg.Floor)-1.5*cfg.ShadowSD))
	w.cellSize = math.Max(10, w.maxRange/2)
	w.grid = make(map[[2]int][]*AP)

	for i := 0; i < cfg.NumAPs; i++ {
		pos := geo.Point{X: rng.Float64() * cfg.Width, Y: rng.Float64() * cfg.Height}
		shadow, err := stats.NewField2D(rng, stats.FieldConfig{
			// The field only needs to cover the AP's hearing disc.
			Width:   2 * w.maxRange,
			Height:  2 * w.maxRange,
			OriginX: pos.X - w.maxRange,
			OriginY: pos.Y - w.maxRange,
			// Correlation and scale of shadowing.
			CorrLength: cfg.ShadowCorrLen,
			StdDev:     cfg.ShadowSD,
		})
		if err != nil {
			return nil, fmt.Errorf("wifi: shadowing field for AP %d: %w", i, err)
		}
		ap := &AP{
			ID:          i,
			MAC:         macFor(i),
			Pos:         pos,
			TxRef:       cfg.TxRefMin + rng.Float64()*(cfg.TxRefMax-cfg.TxRefMin),
			PathLossExp: cfg.PathLossMin + rng.Float64()*(cfg.PathLossMax-cfg.PathLossMin),
			shadow:      shadow,
		}
		w.aps = append(w.aps, ap)
		key := w.cellOf(pos)
		w.grid[key] = append(w.grid[key], ap)
	}
	return w, nil
}

// rangeFor solves tx - 10 n log10(d) = floor for d.
func rangeFor(tx, n, floor float64) float64 {
	return math.Pow(10, (tx-floor)/(10*n))
}

// macFor builds a deterministic locally administered MAC for AP id.
func macFor(id int) string {
	return fmt.Sprintf("02:4e:%02x:%02x:%02x:%02x",
		(id>>24)&0xff, (id>>16)&0xff, (id>>8)&0xff, id&0xff)
}

func (w *World) cellOf(p geo.Point) [2]int {
	return [2]int{int(math.Floor(p.X / w.cellSize)), int(math.Floor(p.Y / w.cellSize))}
}

// NumAPs returns the number of deployed APs.
func (w *World) NumAPs() int { return len(w.aps) }

// Size returns the area dimensions.
func (w *World) Size() (width, height float64) { return w.cfg.Width, w.cfg.Height }

// meanRSSI returns the noise-free expected RSSI of ap at pos.
func (w *World) meanRSSI(ap *AP, pos geo.Point) float64 {
	d := math.Max(1, geo.Dist(ap.Pos, pos))
	return ap.TxRef - 10*ap.PathLossExp*math.Log10(d) + ap.shadow.At(pos.X, pos.Y)
}

// Scan simulates one WiFi scan at pos: every AP whose noisy measurement
// clears the sensing floor is reported, strongest first. rng supplies the
// per-measurement noise, so repeated scans at the same position differ
// slightly — as on a real phone.
func (w *World) Scan(rng *rand.Rand, pos geo.Point) Scan {
	return w.ScanWithDevice(rng, pos, 0)
}

// ScanWithDevice simulates a scan on a device whose radio reads the given
// constant offset (dB) relative to the fleet average — the paper notes RSSI
// is "heavily affected by ... the receiving device itself". A positive
// offset hears more APs; the defense's robustness to heterogeneous fleets
// is exercised by the dataset's DeviceSD knob.
func (w *World) ScanWithDevice(rng *rand.Rand, pos geo.Point, deviceOffset float64) Scan {
	var out Scan
	c := w.cellOf(pos)
	reach := int(math.Ceil(w.maxRange/w.cellSize)) + 1
	for dx := -reach; dx <= reach; dx++ {
		for dy := -reach; dy <= reach; dy++ {
			for _, ap := range w.grid[[2]int{c[0] + dx, c[1] + dy}] {
				if geo.Dist(ap.Pos, pos) > w.maxRange {
					continue
				}
				v := w.meanRSSI(ap, pos) + deviceOffset + stats.Normal(rng, 0, w.cfg.NoiseSD)
				rssi := int(math.Round(v))
				if rssi < w.cfg.Floor {
					continue
				}
				out = append(out, Observation{MAC: ap.MAC, RSSI: rssi})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].RSSI != out[j].RSSI {
			return out[i].RSSI > out[j].RSSI
		}
		return out[i].MAC < out[j].MAC
	})
	return out
}

// Upload pairs a trajectory with the WiFi scan collected at each point —
// the P_i = [loc_i, RSSI_i, MAC_i] triples the paper's defense ingests.
// Contributor is the optional uploader identity used for ingestion
// provenance; empty means the legacy anonymous contributor.
type Upload struct {
	Traj        *trajectory.T
	Scans       []Scan
	Contributor string
}

// Validate checks that scans and points line up.
func (u *Upload) Validate() error {
	if u.Traj == nil {
		return fmt.Errorf("wifi: upload has no trajectory")
	}
	if len(u.Scans) != u.Traj.Len() {
		return fmt.Errorf("wifi: %d scans for %d points", len(u.Scans), u.Traj.Len())
	}
	return nil
}

// AverageK returns the mean number of APs heard per point of the upload.
func (u *Upload) AverageK() float64 {
	if len(u.Scans) == 0 {
		return 0
	}
	var sum int
	for _, s := range u.Scans {
		sum += len(s)
	}
	return float64(sum) / float64(len(u.Scans))
}
