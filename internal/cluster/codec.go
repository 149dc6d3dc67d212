// Shard-transport codec: the compact binary RPC frames the coordinator and
// shard nodes exchange. Framing, field encodings and decode errors are
// internal/binfmt's — fixed little-endian fields, u8/u16 length prefixes
// for strings, exact IEEE-754 bits for every float — so a record or a
// confidence vector crosses a node boundary without losing a single bit,
// and a verdict computed against a remote tile is bit-identical to one
// computed against the same tile in-process. Scans use the wifi.AppendScan
// layout.
//
// Frame layout (little endian):
//
//	u8 version (2) | u8 kind | u32 payloadLen | payload
//
// Version 2 added the contributor identity (str8) to every record — the
// ingestion provenance the trust pipeline relies on — so provenance
// crosses node boundaries and tile migrations bit-identically. The codec
// also frames each node's tile WAL, so a node's durable lineage carries
// provenance too. Version 1 frames are refused (a cluster is always one
// build).
//
// Every request payload starts with `u32 deadlineMs` — the milliseconds the
// originating request has left, 0 for none — so a node can stop working on
// a forward whose client deadline already passed, and the coordinator's
// admission accounting sees remote time bounded by the same clock as local
// time. Requests that mutate or read tile state also carry the sender's
// assignment epoch; a node answers statusWrongEpoch when the epochs
// disagree, which is the fencing that prevents a stale coordinator or a
// half-migrated tile from being served by two owners.
//
// The encoding is canonical — fixed field order, RSSI maps sorted by MAC,
// assignment members and overrides sorted, payloadLen checked exactly, no
// trailing bytes — so encode(decode(frame)) reproduces the frame byte for
// byte; FuzzClusterCodec pins that property.
package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"trajforge/internal/binfmt"
	"trajforge/internal/geo"
	"trajforge/internal/rssimap"
	"trajforge/internal/wifi"
)

const (
	codecVersion = 2

	// maxFrameBytes bounds one frame on the wire (header + payload).
	maxFrameBytes = 32 << 20
)

// Message kinds. Requests are odd, responses even.
const (
	kindHello     byte = 1  // coordinator introduces itself to a node
	kindAck       byte = 2  // generic response: status + node epoch
	kindAdd       byte = 3  // ingest a batch of (tile, seq, record) entries
	kindConf      byte = 5  // point-confidence query against one tile
	kindConfResp  byte = 6  // confidence vector reply
	kindFreeze    byte = 7  // mark a tile read-only ahead of migration
	kindFetchTile byte = 9  // read a tile's full entry log (migration handoff)
	kindTileState byte = 10 // fetchTile reply
	kindInstall   byte = 11 // install handed-off entries on the new owner
	kindDrop      byte = 13 // drop a migrated-away tile
	kindAssign    byte = 15 // push a new assignment map (epoch bump)
	kindTileSeqs  byte = 17 // read per-tile applied sequence numbers
	kindSeqsResp  byte = 18 // tileSeqs reply
	kindStats     byte = 19 // read node occupancy counters
	kindStatsResp byte = 20 // stats reply
)

// Response status codes.
const (
	statusOK         byte = 0
	statusWrongEpoch byte = 1 // sender epoch != node epoch; body carries the node's
	statusNotOwner   byte = 2 // tile not assigned to this node at this epoch
	statusFrozen     byte = 3 // tile is frozen for migration (writes rejected)
	statusFailed     byte = 4 // node-side failure (message in Msg)
	statusExpired    byte = 5 // request deadline already expired; refused unworked
)

// Hello is the connection preamble the coordinator sends.
type Hello struct {
	Deadline uint32
	NodeID   string
}

// Ack is the generic response: a status, the node's current epoch, and an
// optional message (the error text for statusFailed).
type Ack struct {
	Status byte
	Epoch  uint64
	Msg    string
}

// Entry is one record destined for one tile, stamped with its canonical-log
// sequence number. The sequence is the replication cursor: nodes apply an
// entry only when Seq exceeds the tile's last applied sequence, which makes
// batches, migration installs, and resyncs idempotent.
type Entry struct {
	Tile [2]int
	Seq  uint64
	Rec  rssimap.Record
}

// AddReq ingests a batch of entries (kindAdd) or installs a handed-off tile
// log on a migration target (kindInstall).
type AddReq struct {
	Deadline uint32
	Epoch    uint64
	Entries  []Entry
}

// ConfReq asks the owner of Tile for the point confidences of one scan.
type ConfReq struct {
	Deadline uint32
	Epoch    uint64
	Tile     [2]int
	Pos      geo.Point
	Cfg      rssimap.FeatureConfig
	Scan     wifi.Scan
}

// ConfResp answers a ConfReq.
type ConfResp struct {
	Status byte
	Epoch  uint64
	Msg    string
	Confs  []rssimap.PointConfidence
}

// TileReq addresses one tile: freeze (kindFreeze), fetch (kindFetchTile),
// or drop (kindDrop).
type TileReq struct {
	Deadline uint32
	Epoch    uint64
	Tile     [2]int
}

// TileState answers a kindFetchTile with the tile's entry log in applied
// order — the WAL tail the migration hands to the new owner.
type TileState struct {
	Status  byte
	Epoch   uint64
	Msg     string
	Entries []Entry
}

// AssignReq pushes a new assignment map to a node.
type AssignReq struct {
	Deadline uint32
	Assign   Assignment
}

// SeqsReq asks a node for its per-tile applied sequence numbers (resync).
type SeqsReq struct {
	Deadline uint32
}

// TileSeq is one tile's applied-sequence high-water mark.
type TileSeq struct {
	Tile [2]int
	Seq  uint64
}

// SeqsResp answers a kindTileSeqs.
type SeqsResp struct {
	Status byte
	Epoch  uint64
	Msg    string
	Tiles  []TileSeq
}

// StatsReq asks a node for occupancy counters.
type StatsReq struct {
	Deadline uint32
}

// StatsResp answers a kindStats.
type StatsResp struct {
	Status     byte
	Epoch      uint64
	Msg        string
	Tiles      uint32
	Entries    uint64
	WALFrames  uint64
	WALBytes   int64
	Generation uint64
	// ExpiredRejects counts requests the node refused unworked because
	// their wire deadline had already expired on arrival.
	ExpiredRejects uint64
}

func readTile(r *binfmt.Reader) [2]int {
	return [2]int{int(int32(r.U32())), int(int32(r.U32()))}
}

func appendTile(buf []byte, t [2]int) ([]byte, error) {
	if t[0] < math.MinInt32 || t[0] > math.MaxInt32 || t[1] < math.MinInt32 || t[1] > math.MaxInt32 {
		return nil, fmt.Errorf("%w: tile %v outside int32", binfmt.ErrValue, t)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(t[0])))
	return binary.LittleEndian.AppendUint32(buf, uint32(int32(t[1]))), nil
}

// newFrame starts a frame of the given kind.
func newFrame(kind byte, sizeHint int) []byte {
	return binfmt.NewFrame(codecVersion, kind, sizeHint)
}

// finishFrame stamps the payload length, refusing frames the transport
// would not read.
func finishFrame(buf []byte) ([]byte, error) {
	if len(buf) > maxFrameBytes {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds %d", binfmt.ErrValue, len(buf), maxFrameBytes)
	}
	return binfmt.FinishFrame(buf), nil
}

// --- record / entry ---

// appendRecord encodes one record with its RSSI map in ascending-MAC order,
// the canonical form decodeRecord enforces.
func appendRecord(buf []byte, rec rssimap.Record) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.Pos.X))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.Pos.Y))
	if len(rec.RSSI) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: record reports %d APs", binfmt.ErrValue, len(rec.RSSI))
	}
	macs := make([]string, 0, len(rec.RSSI))
	for mac := range rec.RSSI {
		macs = append(macs, mac)
	}
	sort.Strings(macs)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(macs)))
	var err error
	for _, mac := range macs {
		if buf, err = binfmt.AppendStr8(buf, mac); err != nil {
			return nil, err
		}
		rssi := rec.RSSI[mac]
		if err := binfmt.CheckI16(rssi); err != nil {
			return nil, fmt.Errorf("RSSI: %w", err)
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(int16(rssi)))
	}
	return binfmt.AppendStr8(buf, rec.Contributor)
}

// recMinBytes is the fixed per-record wire cost (pos + AP count +
// contributor length byte).
const recMinBytes = 8 + 8 + 2 + 1

func decodeRecord(r *binfmt.Reader) rssimap.Record {
	rec := rssimap.Record{Pos: geo.Point{X: r.F64(), Y: r.F64()}}
	n := int(r.U16())
	rec.RSSI = make(map[string]int, n)
	prev := ""
	for i := 0; i < n; i++ {
		mac := r.Str8()
		if i > 0 && mac <= prev {
			r.Fail(fmt.Errorf("%w: RSSI map not in strict MAC order (%q after %q)", binfmt.ErrValue, mac, prev))
		}
		prev = mac
		rec.RSSI[mac] = int(int16(r.U16()))
	}
	rec.Contributor = r.Str8()
	return rec
}

// decodeRecords reads a u32 count and that many records.
func decodeRecords(r *binfmt.Reader) []rssimap.Record {
	recs := make([]rssimap.Record, r.Count(recMinBytes))
	for i := range recs {
		recs[i] = decodeRecord(r)
	}
	return recs
}

// appendRecords is decodeRecords' encoder.
func appendRecords(buf []byte, recs []rssimap.Record) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(recs)))
	var err error
	for _, rec := range recs {
		if buf, err = appendRecord(buf, rec); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// entryMinBytes is the fixed per-entry wire cost (tile + seq + record min).
const entryMinBytes = 8 + 8 + recMinBytes

func appendEntry(buf []byte, e Entry) ([]byte, error) {
	buf, err := appendTile(buf, e.Tile)
	if err != nil {
		return nil, err
	}
	buf = binary.LittleEndian.AppendUint64(buf, e.Seq)
	return appendRecord(buf, e.Rec)
}

func decodeEntries(r *binfmt.Reader) []Entry {
	entries := make([]Entry, r.Count(entryMinBytes))
	for i := range entries {
		entries[i] = Entry{Tile: readTile(r), Seq: r.U64(), Rec: decodeRecord(r)}
	}
	return entries
}

func appendEntries(buf []byte, entries []Entry) ([]byte, error) {
	if len(entries) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: %d entries", binfmt.ErrValue, len(entries))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entries)))
	var err error
	for _, e := range entries {
		if buf, err = appendEntry(buf, e); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// --- feature config / confidences ---

// Feature-config flag bits.
const (
	cfgIncludeNum       = 1 << 0
	cfgIncludeResiduals = 1 << 1
	cfgDisableTheta2    = 1 << 2
	cfgIncludeSummary   = 1 << 3
	cfgFlagsMask        = cfgIncludeNum | cfgIncludeResiduals | cfgDisableTheta2 | cfgIncludeSummary
)

func appendFeatureConfig(buf []byte, cfg rssimap.FeatureConfig) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(cfg.R))
	if cfg.TopK < 0 || cfg.TopK > math.MaxUint16 {
		return nil, fmt.Errorf("%w: TopK %d outside uint16", binfmt.ErrValue, cfg.TopK)
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(cfg.TopK))
	if err := binfmt.CheckI16(int(cfg.Tol)); err != nil {
		return nil, fmt.Errorf("Tol: %w", err)
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(int16(cfg.Tol)))
	var flags byte
	if cfg.IncludeNum {
		flags |= cfgIncludeNum
	}
	if cfg.IncludeResiduals {
		flags |= cfgIncludeResiduals
	}
	if cfg.DisableTheta2 {
		flags |= cfgDisableTheta2
	}
	if cfg.IncludeSummary {
		flags |= cfgIncludeSummary
	}
	return append(buf, flags), nil
}

func decodeFeatureConfig(r *binfmt.Reader) rssimap.FeatureConfig {
	cfg := rssimap.FeatureConfig{
		R:    r.F64(),
		TopK: int(r.U16()),
		Tol:  rssimap.Tolerance(int16(r.U16())),
	}
	flags := r.U8()
	if flags&^byte(cfgFlagsMask) != 0 {
		r.Fail(fmt.Errorf("%w: unknown feature-config flags %#x", binfmt.ErrValue, flags))
	}
	cfg.IncludeNum = flags&cfgIncludeNum != 0
	cfg.IncludeResiduals = flags&cfgIncludeResiduals != 0
	cfg.DisableTheta2 = flags&cfgDisableTheta2 != 0
	cfg.IncludeSummary = flags&cfgIncludeSummary != 0
	return cfg
}

// confMinBytes is the fixed per-confidence wire cost.
const confMinBytes = 1 + 8 + 4 + 8 + 4

func appendConfs(buf []byte, confs []rssimap.PointConfidence) ([]byte, error) {
	if len(confs) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: %d confidences", binfmt.ErrValue, len(confs))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(confs)))
	var err error
	for _, c := range confs {
		if buf, err = binfmt.AppendStr8(buf, c.MAC); err != nil {
			return nil, err
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Phi))
		if c.Num < 0 || int64(c.Num) > math.MaxUint32 {
			return nil, fmt.Errorf("%w: Num %d outside uint32", binfmt.ErrValue, c.Num)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Num))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Residual))
		if c.Heard < 0 || int64(c.Heard) > math.MaxUint32 {
			return nil, fmt.Errorf("%w: Heard %d outside uint32", binfmt.ErrValue, c.Heard)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Heard))
	}
	return buf, nil
}

func decodeConfs(r *binfmt.Reader) []rssimap.PointConfidence {
	confs := make([]rssimap.PointConfidence, r.Count(confMinBytes))
	for i := range confs {
		c := &confs[i]
		c.MAC = r.Str8()
		c.Phi = r.F64()
		c.Num = int(r.U32())
		// Cluster nodes never install contributor trust tables, so the
		// trusted mass always equals the cardinality and is not carried on
		// the wire.
		c.TrustNum = float64(c.Num)
		c.Residual = r.F64()
		c.Heard = int(r.U32())
	}
	return confs
}

// --- assignment ---

// Assignment flag bits.
const (
	assignReplicate = 1 << 0
	assignFlagsMask = assignReplicate
)

// appendOverrideMap encodes one tile→node map in strict tile order.
func appendOverrideMap(buf []byte, m map[[2]int]string) ([]byte, error) {
	if len(m) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: %d overrides", binfmt.ErrValue, len(m))
	}
	tiles := make([][2]int, 0, len(m))
	for t := range m {
		tiles = append(tiles, t)
	}
	sort.Slice(tiles, func(i, j int) bool { return tileLess(tiles[i], tiles[j]) })
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(tiles)))
	var err error
	for _, t := range tiles {
		if buf, err = appendTile(buf, t); err != nil {
			return nil, err
		}
		if buf, err = binfmt.AppendStr16(buf, m[t]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func decodeOverrideMap(r *binfmt.Reader) map[[2]int]string {
	const overrideMinBytes = 8 + 2
	n := r.Count(overrideMinBytes)
	m := make(map[[2]int]string, n)
	var prev [2]int
	for i := 0; i < n; i++ {
		t := readTile(r)
		if i > 0 && !tileLess(prev, t) {
			r.Fail(fmt.Errorf("%w: overrides not in strict tile order (%v after %v)", binfmt.ErrValue, t, prev))
		}
		prev = t
		m[t] = r.Str16()
	}
	return m
}

func appendAssignment(buf []byte, a Assignment) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint64(buf, a.Epoch)
	var flags byte
	if a.Replicate {
		flags |= assignReplicate
	}
	buf = append(buf, flags)
	if len(a.Members) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: %d members", binfmt.ErrValue, len(a.Members))
	}
	members := append([]string(nil), a.Members...)
	sort.Strings(members)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(members)))
	var err error
	for _, id := range members {
		if buf, err = binfmt.AppendStr16(buf, id); err != nil {
			return nil, err
		}
	}
	if buf, err = appendOverrideMap(buf, a.Overrides); err != nil {
		return nil, err
	}
	return appendOverrideMap(buf, a.FollowerOverrides)
}

func decodeAssignment(r *binfmt.Reader) Assignment {
	a := Assignment{Epoch: r.U64()}
	flags := r.U8()
	if flags&^byte(assignFlagsMask) != 0 {
		r.Fail(fmt.Errorf("%w: unknown assignment flags %#x", binfmt.ErrValue, flags))
	}
	a.Replicate = flags&assignReplicate != 0
	n := int(r.U16())
	a.Members = make([]string, 0, n)
	for i := 0; i < n; i++ {
		id := r.Str16()
		if i > 0 && id <= a.Members[i-1] {
			r.Fail(fmt.Errorf("%w: members not in strict order (%q after %q)", binfmt.ErrValue, id, a.Members[i-1]))
		}
		a.Members = append(a.Members, id)
	}
	a.Overrides = decodeOverrideMap(r)
	a.FollowerOverrides = decodeOverrideMap(r)
	return a
}

func tileLess(a, b [2]int) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// --- frame encoders ---

// EncodeFrame renders one message as a wire frame. The message must be one
// of the typed structs above; requests and responses share the function.
func EncodeFrame(msg any) ([]byte, error) {
	switch m := msg.(type) {
	case *Hello:
		buf := newFrame(kindHello, 8+len(m.NodeID))
		buf = binary.LittleEndian.AppendUint32(buf, m.Deadline)
		buf, err := binfmt.AppendStr16(buf, m.NodeID)
		if err != nil {
			return nil, err
		}
		return finishFrame(buf)
	case *Ack:
		buf := newFrame(kindAck, 16+len(m.Msg))
		buf = append(buf, m.Status)
		buf = binary.LittleEndian.AppendUint64(buf, m.Epoch)
		buf, err := binfmt.AppendStr16(buf, m.Msg)
		if err != nil {
			return nil, err
		}
		return finishFrame(buf)
	case *AddReq:
		return encodeAddLike(kindAdd, m)
	case *InstallReq:
		return encodeAddLike(kindInstall, (*AddReq)(m))
	case *ConfReq:
		buf := newFrame(kindConf, 64+len(m.Scan)*10)
		buf = binary.LittleEndian.AppendUint32(buf, m.Deadline)
		buf = binary.LittleEndian.AppendUint64(buf, m.Epoch)
		buf, err := appendTile(buf, m.Tile)
		if err != nil {
			return nil, err
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Pos.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Pos.Y))
		if buf, err = appendFeatureConfig(buf, m.Cfg); err != nil {
			return nil, err
		}
		if buf, err = wifi.AppendScan(buf, m.Scan); err != nil {
			return nil, err
		}
		return finishFrame(buf)
	case *ConfResp:
		buf := newFrame(kindConfResp, 32+len(m.Confs)*confMinBytes)
		buf = append(buf, m.Status)
		buf = binary.LittleEndian.AppendUint64(buf, m.Epoch)
		buf, err := binfmt.AppendStr16(buf, m.Msg)
		if err != nil {
			return nil, err
		}
		if buf, err = appendConfs(buf, m.Confs); err != nil {
			return nil, err
		}
		return finishFrame(buf)
	case *FreezeReq:
		return encodeTileReq(kindFreeze, (*TileReq)(m))
	case *FetchTileReq:
		return encodeTileReq(kindFetchTile, (*TileReq)(m))
	case *DropReq:
		return encodeTileReq(kindDrop, (*TileReq)(m))
	case *TileState:
		buf := newFrame(kindTileState, 32+len(m.Entries)*entryMinBytes)
		buf = append(buf, m.Status)
		buf = binary.LittleEndian.AppendUint64(buf, m.Epoch)
		buf, err := binfmt.AppendStr16(buf, m.Msg)
		if err != nil {
			return nil, err
		}
		if buf, err = appendEntries(buf, m.Entries); err != nil {
			return nil, err
		}
		return finishFrame(buf)
	case *AssignReq:
		buf := newFrame(kindAssign, 64)
		buf = binary.LittleEndian.AppendUint32(buf, m.Deadline)
		buf, err := appendAssignment(buf, m.Assign)
		if err != nil {
			return nil, err
		}
		return finishFrame(buf)
	case *SeqsReq:
		buf := newFrame(kindTileSeqs, 4)
		buf = binary.LittleEndian.AppendUint32(buf, m.Deadline)
		return finishFrame(buf)
	case *SeqsResp:
		buf := newFrame(kindSeqsResp, 32+len(m.Tiles)*16)
		buf = append(buf, m.Status)
		buf = binary.LittleEndian.AppendUint64(buf, m.Epoch)
		buf, err := binfmt.AppendStr16(buf, m.Msg)
		if err != nil {
			return nil, err
		}
		if len(m.Tiles) > math.MaxUint32 {
			return nil, fmt.Errorf("%w: %d tile seqs", binfmt.ErrValue, len(m.Tiles))
		}
		tiles := append([]TileSeq(nil), m.Tiles...)
		sort.Slice(tiles, func(i, j int) bool { return tileLess(tiles[i].Tile, tiles[j].Tile) })
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(tiles)))
		for _, ts := range tiles {
			if buf, err = appendTile(buf, ts.Tile); err != nil {
				return nil, err
			}
			buf = binary.LittleEndian.AppendUint64(buf, ts.Seq)
		}
		return finishFrame(buf)
	case *StatsReq:
		buf := newFrame(kindStats, 4)
		buf = binary.LittleEndian.AppendUint32(buf, m.Deadline)
		return finishFrame(buf)
	case *StatsResp:
		buf := newFrame(kindStatsResp, 64)
		buf = append(buf, m.Status)
		buf = binary.LittleEndian.AppendUint64(buf, m.Epoch)
		buf, err := binfmt.AppendStr16(buf, m.Msg)
		if err != nil {
			return nil, err
		}
		buf = binary.LittleEndian.AppendUint32(buf, m.Tiles)
		buf = binary.LittleEndian.AppendUint64(buf, m.Entries)
		buf = binary.LittleEndian.AppendUint64(buf, m.WALFrames)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(m.WALBytes))
		buf = binary.LittleEndian.AppendUint64(buf, m.Generation)
		buf = binary.LittleEndian.AppendUint64(buf, m.ExpiredRejects)
		return finishFrame(buf)
	default:
		return nil, fmt.Errorf("%w: cannot encode %T", binfmt.ErrKind, msg)
	}
}

// InstallReq is an AddReq delivered on the migration path: the node accepts
// it for tiles it does not (yet) own, which a plain add to a frozen or
// foreign tile would reject.
type InstallReq AddReq

// FreezeReq marks a tile read-only on its current owner.
type FreezeReq TileReq

// FetchTileReq reads a tile's entry log off its current owner.
type FetchTileReq TileReq

// DropReq removes a migrated-away tile from its previous owner.
type DropReq TileReq

func encodeAddLike(kind byte, m *AddReq) ([]byte, error) {
	buf := newFrame(kind, 16+len(m.Entries)*(entryMinBytes+32))
	buf = binary.LittleEndian.AppendUint32(buf, m.Deadline)
	buf = binary.LittleEndian.AppendUint64(buf, m.Epoch)
	buf, err := appendEntries(buf, m.Entries)
	if err != nil {
		return nil, err
	}
	return finishFrame(buf)
}

func encodeTileReq(kind byte, m *TileReq) ([]byte, error) {
	buf := newFrame(kind, 20)
	buf = binary.LittleEndian.AppendUint32(buf, m.Deadline)
	buf = binary.LittleEndian.AppendUint64(buf, m.Epoch)
	buf, err := appendTile(buf, m.Tile)
	if err != nil {
		return nil, err
	}
	return finishFrame(buf)
}

// --- frame decoder ---

// DecodeFrame parses one wire frame into its typed message.
func DecodeFrame(data []byte) (any, error) {
	kind, r, err := binfmt.Header(data, codecVersion)
	if err != nil {
		return nil, err
	}
	var msg any
	switch kind {
	case kindHello:
		msg = &Hello{Deadline: r.U32(), NodeID: r.Str16()}
	case kindAck:
		msg = &Ack{Status: r.U8(), Epoch: r.U64(), Msg: r.Str16()}
	case kindAdd, kindInstall:
		m := &AddReq{Deadline: r.U32(), Epoch: r.U64(), Entries: decodeEntries(r)}
		msg = m
		if kind == kindInstall {
			msg = (*InstallReq)(m)
		}
	case kindConf:
		msg = &ConfReq{
			Deadline: r.U32(),
			Epoch:    r.U64(),
			Tile:     readTile(r),
			Pos:      geo.Point{X: r.F64(), Y: r.F64()},
			Cfg:      decodeFeatureConfig(r),
			Scan:     wifi.ReadScan(r),
		}
	case kindConfResp:
		msg = &ConfResp{Status: r.U8(), Epoch: r.U64(), Msg: r.Str16(), Confs: decodeConfs(r)}
	case kindFreeze, kindFetchTile, kindDrop:
		m := &TileReq{Deadline: r.U32(), Epoch: r.U64(), Tile: readTile(r)}
		switch kind {
		case kindFreeze:
			msg = (*FreezeReq)(m)
		case kindFetchTile:
			msg = (*FetchTileReq)(m)
		default:
			msg = (*DropReq)(m)
		}
	case kindTileState:
		msg = &TileState{Status: r.U8(), Epoch: r.U64(), Msg: r.Str16(), Entries: decodeEntries(r)}
	case kindAssign:
		msg = &AssignReq{Deadline: r.U32(), Assign: decodeAssignment(r)}
	case kindTileSeqs:
		msg = &SeqsReq{Deadline: r.U32()}
	case kindSeqsResp:
		m := &SeqsResp{Status: r.U8(), Epoch: r.U64(), Msg: r.Str16()}
		const tileSeqBytes = 8 + 8
		m.Tiles = make([]TileSeq, r.Count(tileSeqBytes))
		for i := range m.Tiles {
			m.Tiles[i].Tile = readTile(r)
			if i > 0 && !tileLess(m.Tiles[i-1].Tile, m.Tiles[i].Tile) {
				r.Fail(fmt.Errorf("%w: tile seqs not in strict tile order", binfmt.ErrValue))
			}
			m.Tiles[i].Seq = r.U64()
		}
		msg = m
	case kindStats:
		msg = &StatsReq{Deadline: r.U32()}
	case kindStatsResp:
		msg = &StatsResp{
			Status:         r.U8(),
			Epoch:          r.U64(),
			Msg:            r.Str16(),
			Tiles:          r.U32(),
			Entries:        r.U64(),
			WALFrames:      r.U64(),
			WALBytes:       int64(r.U64()),
			Generation:     r.U64(),
			ExpiredRejects: r.U64(),
		}
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", binfmt.ErrKind, kind)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return msg, nil
}
