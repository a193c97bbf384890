package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dsh/internal/bitvec"
	"dsh/internal/core"
	"dsh/internal/durable"
	"dsh/internal/obs"
	"dsh/internal/xrand"
)

// Durability integration. Each shard of a ShardedIndex can be backed by a
// durable.Env of its own, in the shard-NNN subdirectory of the store:
// every mutation is journaled to a checksummed write-ahead log before it
// is applied (under the same structural-lock acquisition, so WAL order is
// apply order), frozen segments are flushed to immutable segment files,
// and a manifest commits the file set plus a WAL watermark. Because WAL
// records carry the L pre-computed data-side hash keys and segment files
// retain the per-repetition key columns, recovery performs ZERO hash
// evaluations — the repetition structure of the DSH family survives
// serialization untouched, which is what makes cold starts cheap for
// expensive families.
//
// Replay is split at the manifest in two regions. Files strictly below
// the manifest's sequence are the BUFFERED region: their deletes, keyed
// ops and GC side effects are already folded into the manifest's
// tombstone bitmap and key table, so only insert records at or past the
// watermark (rows that were still in memtables when the manifest was
// captured) are collected, with gcRemap records shifting their ids the
// way the original GC did. Files at or above the manifest's sequence are
// the LIVE region and replay through the normal mutation logic record by
// record; a gcRemap record there re-applies the exact id transform of
// the original bottom-level GC (the record carries the dropped-id list,
// so the replayed renumbering is bit-identical even though the replayed
// layer structure may differ).
//
// Failure model: the first disk error (real or injected) latches the Env
// into a crashed state; every later durable operation is a no-op and the
// index keeps serving from memory. DurableErr surfaces the latched
// error — the process equivalent is a kill, and recovery re-opens from
// the last durable state.
//
// On disk a store is a directory holding a top-level manifest (seed, L,
// shard count and routing mode; no segments, no WAL) and one shard-NNN
// subdirectory per shard with its own WAL, segment files and manifest, so
// shards persist and recover independently and in parallel.

// WAL record types. Every record's first byte is one of these.
const (
	recInsert      = 1 // [u32 id][u32 plen][point][L x u64 keys]
	recInsertKeyed = 2 // [u64 key][u32 id][u32 plen][point][L x u64 keys]
	recDelete      = 3 // [u32 id]
	recDeleteKeyed = 4 // [u64 key]
	recGCRemap     = 5 // [u32 snapBound][u32 delta][u32 n][n x u32 dropped ids]
)

// ErrNotJournaled is surfaced by DurableErr when a mutation arrived
// after Close sealed the store: the mutation was applied in memory but
// exists nowhere on disk.
var ErrNotJournaled = errors.New("index: mutation after Close was not journaled")

// store is the durability attachment of one shard. The wal field
// and the scratch buffers are guarded by the shard's structural mutex
// (every append happens inside a mutation's critical section); persist
// has its own serialization.
type store[P any] struct {
	env   *durable.Env
	codec durable.PointCodec[P]
	seed  uint64

	// sealed is set by Close: no further WAL append or persist runs.
	sealed   atomic.Bool
	lost     atomic.Bool
	sealOnce sync.Once

	// persistMu serializes checkpoints (explicit Persist calls and the
	// one inside Close).
	persistMu sync.Mutex

	// Guarded by dx.mu.
	wal     *durable.WAL
	buf     []byte // record scratch
	pbuf    []byte // point-encoding scratch
	nextSeg uint64
}

// attach wires the store into dx and stamps the live memtable's WAL
// watermark when it is empty (a replayed memtable keeps the position of
// its first replayed record).
func (st *store[P]) attach(dx *shard[P], wal *durable.WAL) {
	st.wal = wal
	dx.store = st
	if dx.mem.len() == 0 {
		dx.mem.walStart = wal.End()
	}
}

// appendRecord writes the assembled scratch record; errors latch in the
// Env (the mutation itself proceeds in memory — see the failure model).
func (st *store[P]) appendRecord(b []byte) {
	st.buf = b
	if st.sealed.Load() {
		st.lost.Store(true)
		return
	}
	_, _ = st.wal.Append(b)
}

// appendPointPayload appends [u32 plen][point bytes] to b.
func (st *store[P]) appendPointPayload(b []byte, p P) []byte {
	st.pbuf = st.codec.AppendPoint(st.pbuf[:0], p)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(st.pbuf)))
	return append(b, st.pbuf...)
}

// logInsert journals a plain insert about to receive id len(dx.points).
// Called under dx.mu, before insertLocked.
func (st *store[P]) logInsert(dx *shard[P], p P, keys []uint64) {
	b := append(st.buf[:0], recInsert)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(dx.points)))
	b = st.appendPointPayload(b, p)
	for _, k := range keys {
		b = binary.LittleEndian.AppendUint64(b, k)
	}
	st.appendRecord(b)
}

// logInsertKeyed journals a keyed upsert (one record covers the implied
// tombstone of the previous version). Called under dx.mu, before the
// upsert.
func (st *store[P]) logInsertKeyed(dx *shard[P], key uint64, p P, keys []uint64) {
	b := append(st.buf[:0], recInsertKeyed)
	b = binary.LittleEndian.AppendUint64(b, key)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(dx.points)))
	b = st.appendPointPayload(b, p)
	for _, k := range keys {
		b = binary.LittleEndian.AppendUint64(b, k)
	}
	st.appendRecord(b)
}

// logDelete journals an effective Delete. Called under dx.mu.
func (st *store[P]) logDelete(id int32) {
	b := append(st.buf[:0], recDelete)
	b = binary.LittleEndian.AppendUint32(b, uint32(id))
	st.appendRecord(b)
}

// logDeleteKeyed journals an effective DeleteKeyed (the key was mapped).
// Called under dx.mu.
func (st *store[P]) logDeleteKeyed(key uint64) {
	b := append(st.buf[:0], recDeleteKeyed)
	b = binary.LittleEndian.AppendUint64(b, key)
	st.appendRecord(b)
}

// logGCRemap journals a bottom-level GC renumbering: ids >= snapBound
// shift by delta, the listed ids are dropped, survivors below snapBound
// take their dense rank. Called from compactGC's swap section under
// dx.mu, so the record sits exactly between pre-GC and post-GC ids in
// the log.
func (st *store[P]) logGCRemap(snapBound int32, delta int32, dropped []int32) {
	b := append(st.buf[:0], recGCRemap)
	b = binary.LittleEndian.AppendUint32(b, uint32(snapBound))
	b = binary.LittleEndian.AppendUint32(b, uint32(delta))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(dropped)))
	for _, id := range dropped {
		b = binary.LittleEndian.AppendUint32(b, uint32(id))
	}
	st.appendRecord(b)
}

// walOp is one decoded WAL record.
type walOp[P any] struct {
	typ       byte
	id        int32
	key       uint64
	point     P
	keys      []uint64
	snapBound int32
	delta     int32
	dropped   []int32
}

// decodeOp parses a checksummed WAL payload. L is the repetition count
// (the key block is L*8 trailing bytes of insert records).
func decodeOp[P any](payload []byte, L int, codec durable.PointCodec[P]) (walOp[P], error) {
	var op walOp[P]
	corrupt := func() (walOp[P], error) {
		return op, fmt.Errorf("%w: malformed WAL record", durable.ErrCorrupt)
	}
	if len(payload) == 0 {
		return corrupt()
	}
	op.typ = payload[0]
	b := payload[1:]
	readU32 := func() (uint32, bool) {
		if len(b) < 4 {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(b)
		b = b[4:]
		return v, true
	}
	readU64 := func() (uint64, bool) {
		if len(b) < 8 {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(b)
		b = b[8:]
		return v, true
	}
	readInsertTail := func() error {
		plen, ok := readU32()
		if !ok || int(plen) > len(b) {
			return durable.ErrCorrupt
		}
		p, err := codec.DecodePoint(b[:plen:plen])
		if err != nil {
			return err
		}
		op.point = p
		b = b[plen:]
		if len(b) != 8*L {
			return durable.ErrCorrupt
		}
		op.keys = make([]uint64, L)
		for i := range op.keys {
			op.keys[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
		return nil
	}
	switch op.typ {
	case recInsert:
		id, ok := readU32()
		if !ok {
			return corrupt()
		}
		op.id = int32(id)
		if err := readInsertTail(); err != nil {
			return op, err
		}
	case recInsertKeyed:
		key, ok1 := readU64()
		id, ok2 := readU32()
		if !ok1 || !ok2 {
			return corrupt()
		}
		op.key, op.id = key, int32(id)
		if err := readInsertTail(); err != nil {
			return op, err
		}
	case recDelete:
		id, ok := readU32()
		if !ok {
			return corrupt()
		}
		op.id = int32(id)
	case recDeleteKeyed:
		key, ok := readU64()
		if !ok {
			return corrupt()
		}
		op.key = key
	case recGCRemap:
		sb, ok1 := readU32()
		dl, ok2 := readU32()
		n, ok3 := readU32()
		if !ok1 || !ok2 || !ok3 || len(b) != 4*int(n) {
			return corrupt()
		}
		op.snapBound, op.delta = int32(sb), int32(dl)
		op.dropped = make([]int32, n)
		for i := range op.dropped {
			op.dropped[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
	default:
		return corrupt()
	}
	return op, nil
}

// segmentData serializes a segment's in-memory layout (the points slice
// is a pinned header captured under the same lock as the segment, so ids
// index it consistently).
func segmentData[P any](s *segment, points []P, codec durable.PointCodec[P]) *durable.SegmentData {
	sd := &durable.SegmentData{
		GlobalIDs: s.globalIDs,
		Reps:      make([]durable.RepData, len(s.tables)),
		Points:    make([][]byte, len(s.globalIDs)),
	}
	for i := range s.tables {
		t := &s.tables[i]
		sd.Reps[i] = durable.RepData{
			Keys: s.keys[i],
			Table: durable.TableData{
				Mask:       t.mask,
				Keys:       t.keys,
				SlotBucket: t.slotBucket,
				Starts:     t.starts,
				IDs:        t.ids,
			},
		}
	}
	for i, id := range s.globalIDs {
		sd.Points[i] = codec.AppendPoint(nil, points[id])
	}
	return sd
}

// segFromData reconstructs a segment from its file image — flat tables
// included, so no table build (let alone hash evaluation) happens.
func segFromData(sd *durable.SegmentData, file string, L int) (*segment, error) {
	if len(sd.Reps) != L {
		return nil, fmt.Errorf("%w: segment %s has %d repetitions, index has %d", durable.ErrCorrupt, file, len(sd.Reps), L)
	}
	s := &segment{
		tables:    make([]flatTable, L),
		keys:      make([][]uint64, L),
		globalIDs: sd.GlobalIDs,
		file:      file,
	}
	rows := len(sd.GlobalIDs)
	for i, rep := range sd.Reps {
		if len(rep.Keys) != rows {
			return nil, fmt.Errorf("%w: segment %s repetition %d key column has %d rows, want %d", durable.ErrCorrupt, file, i, len(rep.Keys), rows)
		}
		s.keys[i] = rep.Keys
		s.tables[i] = flatTable{
			mask:       rep.Table.Mask,
			keys:       rep.Table.Keys,
			slotBucket: rep.Table.SlotBucket,
			starts:     rep.Table.Starts,
			ids:        rep.Table.IDs,
		}
	}
	return s, nil
}

// persist checkpoints the index: every frozen segment lacking a file is
// written out, then — once the segment set is fully on disk — the WAL is
// synced and rotated and a new manifest committed, all captured under
// one structural-lock acquisition so the manifest describes one
// consistent instant. Obsolete files are retired only after the new
// manifest is durable, which is what makes manifest fallback safe.
func (st *store[P]) persist(dx *shard[P]) error {
	st.persistMu.Lock()
	defer st.persistMu.Unlock()
	if st.sealed.Load() {
		return errors.New("index: Persist on a closed durable index")
	}
	for {
		if err := st.env.Err(); err != nil {
			return err
		}
		// Write out every segment that has no file yet. The points header
		// is captured under the same read-lock as the segment pointer, so
		// the ids index it consistently; if a concurrent GC swaps the
		// segment list while we write, the new segments come up file-less
		// and the loop below retries (stale files are retired later).
		type job struct {
			seg    *segment
			points []P
		}
		var jobs []job
		dx.mu.RLock()
		for _, s := range dx.segments {
			if s.file == "" {
				jobs = append(jobs, job{s, dx.points})
			}
		}
		dx.mu.RUnlock()
		for _, j := range jobs {
			name := durable.SegmentName(st.nextSeg)
			if err := st.env.WriteSegment(name, segmentData(j.seg, j.points, st.codec)); err != nil {
				return err
			}
			st.nextSeg++
			dx.mu.Lock()
			j.seg.file = name
			dx.mu.Unlock()
		}

		dx.mu.Lock()
		pending := false
		for _, s := range dx.segments {
			if s.file == "" {
				pending = true
				break
			}
		}
		if pending {
			dx.mu.Unlock()
			continue
		}
		// Rotation, under mu so no record lands between the sync and the
		// capture. The old log is synced FIRST: a torn tail may only ever
		// exist in the newest WAL file, never in the middle of the chain
		// the next manifest's buffered region will read.
		if err := st.wal.Sync(); err != nil {
			dx.mu.Unlock()
			return err
		}
		newSeq := st.wal.Seq() + 1
		nw, err := st.env.CreateWAL(newSeq)
		if err != nil {
			dx.mu.Unlock()
			return err
		}
		old := st.wal
		st.wal = nw
		if dx.mem.len() == 0 {
			// Nothing buffered at all: advance the watermark into the new
			// log so the whole old chain can retire.
			dx.mem.walStart = nw.End()
		}
		m := &durable.Manifest{
			Seq:         newSeq,
			Watermark:   dx.mem.walStart,
			NextSeg:     st.nextSeg,
			Seed:        st.seed,
			L:           uint32(len(dx.pairs)),
			IDBound:     uint64(len(dx.points)),
			Epoch:       dx.epoch,
			GCCollected: uint64(dx.gcCollected),
			GCReclaimed: uint64(dx.gcReclaimedBytes),
			Segments:    make([]durable.SegmentRef, len(dx.segments)),
			Dead:        append([]uint64(nil), dx.dead.Words()...),
		}
		for i, s := range dx.segments {
			base := uint32(0)
			if len(s.globalIDs) > 0 {
				base = uint32(s.globalIDs[0])
			}
			m.Segments[i] = durable.SegmentRef{Name: s.file, Base: base, Rows: uint32(len(s.globalIDs))}
		}
		if len(dx.keyed) > 0 {
			m.KeyedKeys = make([]uint64, 0, len(dx.keyed))
			m.KeyedIDs = make([]int32, 0, len(dx.keyed))
			for k, v := range dx.keyed {
				m.KeyedKeys = append(m.KeyedKeys, k)
				m.KeyedIDs = append(m.KeyedIDs, v)
			}
		}
		dx.mu.Unlock()

		if err := old.Close(); err != nil {
			return err
		}
		if err := st.env.WriteManifest(m); err != nil {
			return err
		}
		if err := st.env.Retire(m); err != nil {
			return err
		}
		return nil
	}
}

// seal is Close's durable shutdown: freeze the memtable, write a final
// checkpoint, and stop journaling. Idempotent; errors latch in the
// Env and surface through DurableErr.
func (st *store[P]) seal(dx *shard[P]) {
	st.sealOnce.Do(func() {
		dx.Flush()
		_ = st.persist(dx)
		dx.mu.Lock()
		st.sealed.Store(true)
		_ = st.wal.Close()
		dx.mu.Unlock()
	})
}

// Persist checkpoints the shard's durable state: frozen segments are
// flushed to segment files and a new manifest commits them together with
// the WAL watermark, shrinking the log tail a future recovery must
// replay. It is a no-op (returning nil) on a shard without a durable
// store. Safe for concurrent use with queries and mutations; concurrent
// Persist calls serialize.
func (dx *shard[P]) Persist() error {
	if dx.store == nil {
		return nil
	}
	return dx.store.persist(dx)
}

// DurableErr reports the shard's first unrecoverable durability failure
// (a disk error, an injected fault, or ErrNotJournaled for mutations that
// arrived after Close). It returns nil for a shard without a durable
// store and while the store is healthy: the shard itself keeps serving
// from memory either way.
func (dx *shard[P]) DurableErr() error {
	if dx.store == nil {
		return nil
	}
	if err := dx.store.env.Err(); err != nil {
		return err
	}
	if dx.store.lost.Load() {
		return ErrNotJournaled
	}
	return nil
}

// openShard is OpenSharded's per-shard recovery: rebuild the in-memory
// state from the shard's manifest, replay its WAL, and attach a live
// store appending to a fresh log file (appending past a possibly-torn
// tail is never attempted). The caller starts the background compactor
// afterwards.
func openShard[P any](env *durable.Env, m *durable.Manifest, pairs []core.Pair[P], barrier *sync.RWMutex, codec durable.PointCodec[P], opts DynamicOptions) (*shard[P], error) {
	dx := newShardShell(pairs, barrier, opts)
	if err := dx.recoverFrom(env, codec, m); err != nil {
		return nil, err
	}
	st := &store[P]{env: env, codec: codec, seed: m.Seed, nextSeg: m.NextSeg}
	seqs, err := env.ListWALs()
	if err != nil {
		return nil, err
	}
	maxSeq := m.Seq
	for _, s := range seqs {
		if s > maxSeq {
			maxSeq = s
		}
	}
	wal, err := env.CreateWAL(maxSeq + 1)
	if err != nil {
		return nil, err
	}
	st.attach(dx, wal)
	return dx, nil
}

// recoverFrom rebuilds dx (a fresh shell, unpublished — no locking) from
// the manifest and the WAL. Zero hash evaluations: segment tables load
// verbatim, and replayed inserts reuse the hash keys their records
// carry.
func (dx *shard[P]) recoverFrom(env *durable.Env, codec durable.PointCodec[P], m *durable.Manifest) error {
	L := len(dx.pairs)
	if int(m.L) != L {
		return fmt.Errorf("index: manifest has L=%d, caller sampled %d repetitions", m.L, L)
	}
	dx.points = make([]P, m.IDBound)
	segStart := time.Now()
	for _, ref := range m.Segments {
		sd, err := env.ReadSegment(ref.Name)
		if err != nil {
			return err
		}
		seg, err := segFromData(sd, ref.Name, L)
		if err != nil {
			return err
		}
		for _, id := range sd.GlobalIDs {
			if id < 0 || int(id) >= len(dx.points) {
				return fmt.Errorf("%w: segment %s row id %d outside manifest id bound %d", durable.ErrCorrupt, ref.Name, id, m.IDBound)
			}
		}
		// Point payloads decode independently; chunk them across
		// goroutines (each chunk writes a disjoint id set, validated
		// above).
		var wg sync.WaitGroup
		decodeErrs := make([]error, runtime.GOMAXPROCS(0))
		for w := range decodeErrs {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(sd.GlobalIDs); i += len(decodeErrs) {
					p, err := codec.DecodePoint(sd.Points[i])
					if err != nil {
						decodeErrs[w] = err
						return
					}
					dx.points[sd.GlobalIDs[i]] = p
				}
			}(w)
		}
		wg.Wait()
		if err := errors.Join(decodeErrs...); err != nil {
			return err
		}
		dx.segments = append(dx.segments, seg)
	}
	mRecoverSegments.Observe(dx.stripe, uint64(time.Since(segStart)))
	dx.dead = bitvec.BitmapFromWords(m.Dead)
	if len(m.KeyedKeys) > 0 {
		dx.keyed = make(map[uint64]int32, len(m.KeyedKeys))
		for i, k := range m.KeyedKeys {
			dx.keyed[k] = m.KeyedIDs[i]
		}
	}
	dx.gcCollected = int(m.GCCollected)
	dx.gcReclaimedBytes = int(m.GCReclaimed)

	replayStart := time.Now()
	// Buffered region: collect the rows that were still in memtables at
	// manifest capture. Deletes and keyed ops are already folded into the
	// manifest's bitmap and key table; gcRemap records shift the pending
	// ids exactly as the original GC shifted the memtables they sat in.
	type pendingRow struct {
		pos   durable.Pos
		id    int32
		point P
		keys  []uint64
	}
	var pend []pendingRow
	for seq := m.Watermark.Seq; seq < m.Seq; seq++ {
		recs, err := env.ReadWAL(seq)
		if err != nil {
			return err
		}
		for _, rec := range recs {
			if rec.Pos.Less(m.Watermark) {
				continue
			}
			op, err := decodeOp(rec.Payload, L, codec)
			if err != nil {
				return err
			}
			switch op.typ {
			case recInsert, recInsertKeyed:
				pend = append(pend, pendingRow{rec.Pos, op.id, op.point, op.keys})
			case recGCRemap:
				for i := range pend {
					if pend[i].id >= op.snapBound {
						pend[i].id += op.delta
					}
				}
			}
		}
	}
	for _, r := range pend {
		if r.id < 0 || int(r.id) >= len(dx.points) {
			return fmt.Errorf("%w: buffered WAL row id %d outside manifest id bound %d", durable.ErrCorrupt, r.id, m.IDBound)
		}
		dx.points[r.id] = r.point
		if dx.mem.len() == 0 {
			dx.mem.walStart = r.pos
		}
		dx.mem.insert(r.id, r.keys)
		if dx.mem.len() >= dx.opts.MemtableThreshold {
			dx.freezeLocked(false)
		}
	}

	// The live count at capture: rows present in some layer minus their
	// tombstones (the bitmap may also carry bits for rows non-GC merges
	// dropped from the tables; those must not be counted).
	live := 0
	countLive := func(ids []int32) {
		for _, id := range ids {
			if !dx.dead.Get(int(id)) {
				live++
			}
		}
	}
	for _, s := range dx.segments {
		countLive(s.globalIDs)
	}
	countLive(dx.mem.ids)
	dx.live = live
	dx.epoch = m.Epoch

	// Live region: replay record by record through the normal mutation
	// logic (freezes inline — no goroutines while unpublished).
	seqs, err := env.ListWALs()
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		if seq < m.Seq {
			continue
		}
		recs, err := env.ReadWAL(seq)
		if err != nil {
			return err
		}
		for _, rec := range recs {
			op, err := decodeOp(rec.Payload, L, codec)
			if err != nil {
				return err
			}
			if err := dx.replayOp(op, rec.Pos); err != nil {
				return err
			}
		}
	}
	mRecoverReplay.Observe(dx.stripe, uint64(time.Since(replayStart)))
	mRecoveries.Inc(dx.stripe)
	obs.RecordEvent("recover", int64(len(dx.points)), int64(len(dx.segments)))
	return nil
}

// replayRow re-applies one journaled insert. The id check is a
// corruption tripwire: WAL order is apply order, so every replayed
// insert must receive exactly the id the original run assigned.
func (dx *shard[P]) replayRow(id int32, p P, keys []uint64, pos durable.Pos) error {
	if int(id) != len(dx.points) {
		return fmt.Errorf("%w: WAL insert id %d, expected %d", durable.ErrCorrupt, id, len(dx.points))
	}
	if dx.mem.len() == 0 {
		dx.mem.walStart = pos
	}
	dx.points = append(dx.points, p)
	dx.mem.insert(id, keys)
	dx.live++
	dx.epoch++
	if dx.mem.len() >= dx.opts.MemtableThreshold {
		dx.freezeLocked(false)
	}
	return nil
}

// replayOp applies one live-region record, mirroring the mutation that
// journaled it.
func (dx *shard[P]) replayOp(op walOp[P], pos durable.Pos) error {
	switch op.typ {
	case recInsert:
		return dx.replayRow(op.id, op.point, op.keys, pos)
	case recInsertKeyed:
		if old, ok := dx.keyed[op.key]; ok && !dx.dead.Get(int(old)) {
			dx.dead.Set(int(old))
			dx.live--
			dx.epoch++
		}
		if err := dx.replayRow(op.id, op.point, op.keys, pos); err != nil {
			return err
		}
		if dx.keyed == nil {
			dx.keyed = make(map[uint64]int32)
		}
		dx.keyed[op.key] = op.id
	case recDelete:
		if id := int(op.id); id >= 0 && id < len(dx.points) && !dx.dead.Get(id) {
			dx.dead.Set(id)
			dx.live--
			dx.epoch++
		}
	case recDeleteKeyed:
		if id, ok := dx.keyed[op.key]; ok {
			delete(dx.keyed, op.key)
			if !dx.dead.Get(int(id)) {
				dx.dead.Set(int(id))
				dx.live--
				dx.epoch++
			}
		}
	case recGCRemap:
		return dx.replayGCRemap(int(op.snapBound), op.delta, op.dropped)
	default:
		return fmt.Errorf("%w: unknown WAL record type %d", durable.ErrCorrupt, op.typ)
	}
	return nil
}

// replayGCRemap re-applies a journaled bottom-level GC as a pure id
// transform over the replayed state: the listed ids are dropped,
// survivors below snapBound take their dense rank, and every id at or
// above snapBound shifts by delta. Under CompactLeveled no other merge
// ever drops a row, so the replayed row set equals the original's at
// this record — the resulting ids are bit-identical to the crashed
// process's even though the replayed layer structure may differ (layer
// structure never affects candidate order; see the shard type comment).
func (dx *shard[P]) replayGCRemap(snapBound int, delta int32, dropped []int32) error {
	var drop bitvec.Bitmap
	for _, id := range dropped {
		if id < 0 || int(id) >= snapBound {
			return fmt.Errorf("%w: gcRemap dropped id %d outside pin bound %d", durable.ErrCorrupt, id, snapBound)
		}
		drop.Set(int(id))
	}
	srcs := colSources(dx.segments)
	if dx.mem.len() > 0 {
		srcs = append(srcs, colSource{ids: dx.mem.ids, keys: dx.mem.keys})
	}
	merged := mergeSources(len(dx.pairs), srcs, &drop)

	oldBytes := dx.dead.Bytes()
	var newDead bitvec.Bitmap
	var newPoints []P
	var survBelow []int32
	if merged != nil {
		ids := merged.globalIDs
		k := 0
		for k < len(ids) && int(ids[k]) < snapBound {
			k++
		}
		survBelow = ids[:k]
		if int32(k-snapBound) != delta {
			return fmt.Errorf("%w: gcRemap delta %d inconsistent with %d survivors below bound %d", durable.ErrCorrupt, delta, k, snapBound)
		}
		// Survivors take rank j == their merged position; the tail (every
		// id >= snapBound is present) lands at old+delta == j too, so the
		// new id space is dense 0..rows-1.
		newPoints = make([]P, len(ids))
		dense := make([]int32, len(ids))
		for j, old := range ids {
			dense[j] = int32(j)
			newPoints[j] = dx.points[old]
			if dx.dead.Get(int(old)) {
				newDead.Set(j)
			}
		}
		dx.segments = []*segment{{tables: merged.tables, keys: merged.keys, globalIDs: dense}}
	} else {
		dx.segments = nil
	}
	dx.mem = newMemtable(len(dx.pairs), dx.opts.MemtableThreshold) // walStart stamped by the next replayed row
	dx.points = newPoints

	for k, v := range dx.keyed {
		switch {
		case int(v) >= snapBound:
			dx.keyed[k] = v + delta
		default:
			if j := rankOf(survBelow, v); j >= 0 {
				dx.keyed[k] = int32(j)
			} else {
				delete(dx.keyed, k)
			}
		}
	}
	dx.epoch++
	if reclaim := oldBytes - newDead.Bytes(); reclaim > 0 {
		dx.gcReclaimedBytes += reclaim
	}
	dx.dead = newDead
	dx.gcCollected += len(dropped)
	return nil
}

// shardDirName returns the subdirectory of shard s.
func shardDirName(s int) string { return fmt.Sprintf("shard-%03d", s) }

// NewDurableSharded builds an empty sharded index journaled under dir
// (created if absent; it must not already hold a store): one durable
// subdirectory per shard (each with its own WAL, segment files and
// manifest, so shards persist and recover independently and in parallel)
// plus a top-level manifest recording the shard count, routing mode, seed
// and L. The repetition draws are sampled from seed, which the manifest
// records so OpenSharded can re-sample the identical draws — recovery
// re-creates the hashers but never re-evaluates one on a point. The index
// behaves exactly like NewSharded(xrand.New(seed), family, L, nil, opts) —
// same repetition draws, same candidate streams — with every mutation
// additionally journaled.
func NewDurableSharded[P any](dir string, seed uint64, family core.Family[P], L int, codec durable.PointCodec[P], opts ShardOptions, dopts durable.Options) (*ShardedIndex[P], error) {
	if family == nil {
		panic("index: family must be non-nil")
	}
	if L <= 0 {
		panic("index: repetitions must be positive")
	}
	if opts.Shards <= 0 {
		panic("index: shard count must be positive")
	}
	topEnv, err := durable.OpenEnv(dir, dopts)
	if err != nil {
		return nil, err
	}
	if m, err := topEnv.LoadManifest(); err != nil {
		return nil, err
	} else if m != nil {
		return nil, fmt.Errorf("index: %s already holds an index (use OpenSharded)", dir)
	}
	rng := xrand.New(seed)
	pairs := make([]core.Pair[P], L)
	for i := range pairs {
		pairs[i] = family.Sample(rng)
	}
	sx := newShardedShell(pairs, opts.Shards, opts.Routing)
	if err := topEnv.WriteManifest(&durable.Manifest{
		Seed:    seed,
		L:       uint32(L),
		Shards:  uint32(opts.Shards),
		Routing: uint32(opts.Routing),
	}); err != nil {
		return nil, err
	}
	for s := range sx.shards {
		env, err := durable.OpenEnv(filepath.Join(dir, shardDirName(s)), dopts)
		if err != nil {
			return nil, err
		}
		dx := newShardShell(pairs, &sx.barrier, opts.Dynamic)
		st := &store[P]{env: env, codec: codec, seed: seed}
		if err := env.WriteManifest(&durable.Manifest{Seq: 1, Watermark: durable.Pos{Seq: 1}, Seed: seed, L: uint32(L)}); err != nil {
			return nil, err
		}
		wal, err := env.CreateWAL(1)
		if err != nil {
			return nil, err
		}
		st.attach(dx, wal)
		dx.startCompactor()
		sx.shards[s] = dx
	}
	return sx, nil
}

// OpenSharded recovers a sharded index created by NewDurableSharded:
// segment files are read back verbatim (tables included), the WAL tails
// are replayed, and every shard resumes journaling. family must be the
// family the store was created with; the repetition draws are re-sampled
// from the manifest's recorded seed, and no hash function is evaluated on
// any point during recovery. The shard count and routing mode come from
// the top-level manifest; dyn and dopts configure the recovered shards'
// runtime behavior (they are runtime knobs, not persisted state). Shards
// recover concurrently — each reads its own segment files and replays its
// own WAL — so cold starts scale with the shard count.
//
// The top manifest's shard count and L are checked before any shard
// directory is opened or any goroutine started: every shard-NNN directory
// must already exist, and L must be within the segment reader's
// repetition cap; otherwise OpenSharded reports durable.ErrCorrupt.
func OpenSharded[P any](dir string, family core.Family[P], codec durable.PointCodec[P], dyn DynamicOptions, dopts durable.Options) (*ShardedIndex[P], error) {
	topEnv, err := durable.OpenEnv(dir, dopts)
	if err != nil {
		return nil, err
	}
	m, err := topEnv.LoadManifest()
	if err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("index: no manifest under %s", dir)
	}
	if m.Shards == 0 {
		return nil, fmt.Errorf("index: %s holds one shard's store, not a sharded index (open its parent directory)", dir)
	}
	if m.L == 0 || m.L > durable.MaxRepetitions || m.Routing > uint32(RouteHash) {
		return nil, fmt.Errorf("%w: top manifest records L=%d, routing %d", durable.ErrCorrupt, m.L, m.Routing)
	}
	// Stat, never create: a manifest recording more shards than exist on
	// disk fails at the first missing directory, before any allocation or
	// goroutine is sized from the recorded count.
	K := int(m.Shards)
	for s := 0; s < K; s++ {
		sdir := filepath.Join(dir, shardDirName(s))
		if fi, err := os.Stat(sdir); err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("%w: top manifest records %d shards, but %s is not a directory", durable.ErrCorrupt, K, sdir)
		}
	}
	rng := xrand.New(m.Seed)
	pairs := make([]core.Pair[P], m.L)
	for i := range pairs {
		pairs[i] = family.Sample(rng)
	}
	sx := newShardedShell(pairs, K, Routing(m.Routing))
	errs := make([]error, K)
	var wg sync.WaitGroup
	for s := 0; s < K; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sdir := filepath.Join(dir, shardDirName(s))
			env, err := durable.OpenEnv(sdir, dopts)
			if err != nil {
				errs[s] = err
				return
			}
			mstart := time.Now()
			sm, err := env.LoadManifest()
			mRecoverManifest.Observe(uint32(s), uint64(time.Since(mstart)))
			if err != nil {
				errs[s] = err
				return
			}
			if sm == nil {
				errs[s] = fmt.Errorf("index: shard %d has no manifest under %s", s, sdir)
				return
			}
			if sm.Seed != m.Seed || sm.L != m.L {
				errs[s] = fmt.Errorf("%w: shard %d manifest (seed %d, L %d) disagrees with top manifest (seed %d, L %d)", durable.ErrCorrupt, s, sm.Seed, sm.L, m.Seed, m.L)
				return
			}
			dx, err := openShard(env, sm, pairs, &sx.barrier, codec, dyn)
			if err != nil {
				errs[s] = err
				return
			}
			sx.shards[s] = dx
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	total := 0
	for _, dx := range sx.shards {
		dx.startCompactor()
		total += len(dx.points)
	}
	// The round-robin cursor resumes from the recovered id bound: later
	// inserts stay balanced going forward (a leveled GC may have shrunk
	// some shards' id spaces, so historical density is not re-established).
	sx.cursor.Store(uint64(total))
	return sx, nil
}

// Persist checkpoints every shard concurrently; the first error is
// returned (other shards still complete their checkpoint attempts). A
// no-op on an index without durable shards.
func (sx *ShardedIndex[P]) Persist() error {
	errs := make([]error, len(sx.shards))
	var wg sync.WaitGroup
	for s, dx := range sx.shards {
		wg.Add(1)
		go func(s int, dx *shard[P]) {
			defer wg.Done()
			errs[s] = dx.Persist()
		}(s, dx)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// DurableErr reports the first shard's latched durability failure, nil
// while every shard is healthy (or the index has no durable store).
func (sx *ShardedIndex[P]) DurableErr() error {
	for _, dx := range sx.shards {
		if err := dx.DurableErr(); err != nil {
			return err
		}
	}
	return nil
}
