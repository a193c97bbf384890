package durable

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The manifest is the commit point of the durable state: it names the
// live segment files, carries the tombstone bitmap and external-key
// table as of its capture, and records the WAL watermark from which
// replay resumes. Manifests are numbered by the WAL sequence they
// commit (each persist rotates the WAL, so numbers are unique and
// monotone) and written with the atomic temp-fsync-rename-dirsync
// protocol; recovery loads the highest checksum-valid manifest and
// falls back to older ones, which is safe because files referenced by
// manifest N are deleted only after manifest N+1 is durable.
const (
	manMagic   = 0x0a316e616d_687364 // "dsh" "man1\n" packed LE
	manVersion = 1

	// minSegRefBytes is the least a SegmentRef occupies in the body: its
	// name length, base and row count.
	minSegRefBytes = 4 + 4 + 4
)

// SegmentRef names one live segment file and the contiguous global-id
// range its rows held at capture. Segments are listed oldest-first;
// their Base values are strictly increasing and their row ranges tile
// [0, IDBound) when followed by the buffered-region WAL inserts.
type SegmentRef struct {
	Name string
	Base uint32 // first global id of the segment's rows at capture
	Rows uint32
}

// Manifest is the decoded durable state descriptor.
type Manifest struct {
	// Seq is the WAL sequence this manifest commits: WAL files with a
	// lower sequence are the buffered region (their inserts are already
	// reflected in the segments or pending rows, their deletes in Dead),
	// files at or above it are the live region and replay in full.
	Seq uint64
	// Watermark is where replay of the buffered region starts — the log
	// position of the oldest row not yet persisted into a segment file.
	Watermark Pos
	// NextSeg is the next segment file number to allocate.
	NextSeg uint64
	// Seed and L rebuild the hash family deterministically (the family is
	// re-sampled on open, never re-evaluated on points).
	Seed uint64
	L    uint32
	// Shards is the shard count and Routing the routing mode in a store's
	// top-level manifest; both are 0 in a shard's own manifest.
	Shards  uint32
	Routing uint32
	// IDBound is len(points) at capture; Epoch, GCCollected and
	// GCReclaimed restore the observable GC counters.
	IDBound     uint64
	Epoch       uint64
	GCCollected uint64
	GCReclaimed uint64
	// Segments lists the live segment files, oldest first.
	Segments []SegmentRef
	// Dead is the tombstone bitmap over [0, IDBound) as 64-bit words.
	Dead []uint64
	// KeyedKeys/KeyedIDs are the external-key table pairs at capture
	// (parallel slices; empty for unkeyed indexes).
	KeyedKeys []uint64
	KeyedIDs  []int32
}

// ManifestName returns the file name of the manifest committing WAL
// sequence seq.
func ManifestName(seq uint64) string { return fmt.Sprintf("manifest-%08d.mf", seq) }

func parseManifestSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "manifest-") || !strings.HasSuffix(name, ".mf") {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len("manifest-"):len(name)-len(".mf")], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// WriteManifest commits m atomically under its sequence-derived name.
// Fault points "man:write", "man:sync", "man:rename", "dir:sync".
func (e *Env) WriteManifest(m *Manifest) error {
	b := appendManifest(nil, m)
	b = binary.LittleEndian.AppendUint32(b, crc32Sum(b))
	if err := e.atomicWrite(ManifestName(m.Seq), b, "man"); err != nil {
		return err
	}
	mManifests.Inc(e.stripe)
	return nil
}

func appendManifest(b []byte, m *Manifest) []byte {
	b = binary.LittleEndian.AppendUint64(b, manMagic)
	b = binary.LittleEndian.AppendUint32(b, manVersion)
	b = binary.LittleEndian.AppendUint64(b, m.Seq)
	b = binary.LittleEndian.AppendUint64(b, m.Watermark.Seq)
	b = binary.LittleEndian.AppendUint64(b, uint64(m.Watermark.Off))
	b = binary.LittleEndian.AppendUint64(b, m.NextSeg)
	b = binary.LittleEndian.AppendUint64(b, m.Seed)
	b = binary.LittleEndian.AppendUint32(b, m.L)
	b = binary.LittleEndian.AppendUint32(b, m.Shards)
	b = binary.LittleEndian.AppendUint32(b, m.Routing)
	b = binary.LittleEndian.AppendUint64(b, m.IDBound)
	b = binary.LittleEndian.AppendUint64(b, m.Epoch)
	b = binary.LittleEndian.AppendUint64(b, m.GCCollected)
	b = binary.LittleEndian.AppendUint64(b, m.GCReclaimed)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Segments)))
	for _, s := range m.Segments {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Name)))
		b = append(b, s.Name...)
		b = binary.LittleEndian.AppendUint32(b, s.Base)
		b = binary.LittleEndian.AppendUint32(b, s.Rows)
	}
	b = appendU64s(b, m.Dead)
	b = appendU64s(b, m.KeyedKeys)
	b = appendI32s(b, m.KeyedIDs)
	return b
}

// decodeManifest parses one manifest file's bytes; it reports ErrCorrupt
// on any checksum or structural failure so LoadManifest can fall back.
func decodeManifest(name string, data []byte) (*Manifest, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: %s: short file", ErrCorrupt, name)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32Sum(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: %s: checksum mismatch", ErrCorrupt, name)
	}
	c := cursor{b: body, name: name}
	if mg := c.u64(); mg != manMagic {
		return nil, fmt.Errorf("%w: %s: bad magic %#x", ErrCorrupt, name, mg)
	}
	if v := c.u32(); v != manVersion {
		return nil, fmt.Errorf("%w: %s: unsupported version %d", ErrCorrupt, name, v)
	}
	m := &Manifest{}
	m.Seq = c.u64()
	m.Watermark.Seq = c.u64()
	m.Watermark.Off = int64(c.u64())
	m.NextSeg = c.u64()
	m.Seed = c.u64()
	m.L = c.u32()
	m.Shards = c.u32()
	m.Routing = c.u32()
	m.IDBound = c.u64()
	m.Epoch = c.u64()
	m.GCCollected = c.u64()
	m.GCReclaimed = c.u64()
	// Bound the segment count by the body before sizing anything by it:
	// every reference occupies at least minSegRefBytes.
	nseg := int(c.u32())
	if c.err != nil || nseg < 0 || nseg > len(c.b)/minSegRefBytes {
		return nil, fmt.Errorf("%w: %s: bad segment count", ErrCorrupt, name)
	}
	m.Segments = make([]SegmentRef, nseg)
	for i := range m.Segments {
		nameBytes := c.bytes()
		m.Segments[i] = SegmentRef{Name: string(nameBytes), Base: c.u32(), Rows: c.u32()}
	}
	m.Dead = c.u64s()
	m.KeyedKeys = c.u64s()
	m.KeyedIDs = c.i32s()
	if c.err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, name, c.err)
	}
	if len(m.KeyedKeys) != len(m.KeyedIDs) {
		return nil, fmt.Errorf("%w: %s: keyed table length mismatch", ErrCorrupt, name)
	}
	return m, nil
}

// LoadManifest returns the newest checksum-valid manifest in the
// directory, falling back across corrupt or torn candidates (a crash
// mid-manifest-write leaves only a .tmp file, which is never
// considered). It returns nil with no error when the directory holds no
// manifest at all — a fresh store.
func (e *Env) LoadManifest() (*Manifest, error) {
	entries, err := os.ReadDir(e.dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, ent := range entries {
		if s, ok := parseManifestSeq(ent.Name()); ok {
			seqs = append(seqs, s)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	var firstErr error
	for _, s := range seqs {
		name := ManifestName(s)
		data, err := os.ReadFile(filepath.Join(e.dir, name))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		m, err := decodeManifest(name, data)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		return m, nil
	}
	if len(seqs) > 0 {
		return nil, fmt.Errorf("durable: no valid manifest (newest error: %w)", firstErr)
	}
	return nil, nil
}

// Retire deletes files obsoleted by the (already durable) manifest m:
// older manifests, WAL files below the watermark, segment files not in
// the live set, and stray temp files. It is idempotent — a crash during
// retirement just leaves extra files for the next pass. Fault point
// "retire" per removal.
func (e *Env) Retire(m *Manifest) error {
	entries, err := os.ReadDir(e.dir)
	if err != nil {
		return err
	}
	live := make(map[string]bool, len(m.Segments))
	for _, s := range m.Segments {
		live[s.Name] = true
	}
	for _, ent := range entries {
		name := ent.Name()
		var stale bool
		switch {
		case strings.HasSuffix(name, ".tmp"):
			stale = true
		case IsSegmentName(name):
			stale = !live[name]
		default:
			if s, ok := parseManifestSeq(name); ok {
				stale = s < m.Seq
			} else if s, ok := parseWALSeq(name); ok {
				stale = s < m.Watermark.Seq
			}
		}
		if !stale {
			continue
		}
		if err := e.Remove(name); err != nil {
			return err
		}
	}
	return nil
}
