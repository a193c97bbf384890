package index

import "dsh/internal/durable"

// memtable is the mutable write buffer of a shard. Fresh inserts
// land here in a chained-bucket layout — one map[uint64]bucket per
// repetition pointing into a per-repetition chain array — which absorbs
// writes in O(1) without the rebuild cost of the frozen flat tables and,
// unlike the earlier map[uint64][]int32 layout, without a per-bucket
// slice allocation on the hot insert path: buckets are head/tail row
// indices and successor links live in one flat chain column, so a
// steady-state insert performs no heap allocations at all (columns and
// chains are pre-sized to the memtable threshold; only map growth and the
// occasional column doubling past the threshold allocate, both amortized
// away). Alongside the buckets it retains every point's per-repetition
// keys in column order, so freezing into a segment is a pure
// buildFlatTable pass with no rehashing of the points.
//
// A memtable is not safe for concurrent mutation; the shard guards
// it with its structural lock, and freezes it in place under that lock.

// bucket is one repetition-key bucket: the first and last row index (into
// the memtable's column order) buffered under the key. Successors are
// threaded through the repetition's chain column, preserving insertion
// order.
type bucket struct {
	head, tail int32
}

type memtable struct {
	// tables[i] maps the repetition-i data-side key h_i(x) to its bucket.
	tables []map[uint64]bucket
	// chains[i][j] is the next row (in insertion order) sharing row j's
	// repetition-i key, or -1 at the end of the bucket.
	chains [][]int32
	// ids are the global ids of the buffered points in insertion order.
	ids []int32
	// keys[i][j] is h_i of the j-th buffered point (same order as ids).
	keys [][]uint64
	// walStart is the log position of the memtable's first buffered row
	// (for a durable index). The live memtable's walStart is the manifest
	// watermark: replay of the buffered WAL region starts there. Zero for
	// non-durable indexes.
	walStart durable.Pos
}

// newMemtable returns an empty memtable with L repetition maps, its
// columns and chains pre-sized for sizeHint rows (the memtable threshold)
// so steady-state inserts below the hint never grow a column.
func newMemtable(L, sizeHint int) *memtable {
	if sizeHint < 0 {
		sizeHint = 0
	}
	mt := &memtable{
		tables: make([]map[uint64]bucket, L),
		chains: make([][]int32, L),
		keys:   make([][]uint64, L),
		ids:    make([]int32, 0, sizeHint),
	}
	for i := range mt.tables {
		mt.tables[i] = make(map[uint64]bucket)
		mt.chains[i] = make([]int32, 0, sizeHint)
		mt.keys[i] = make([]uint64, 0, sizeHint)
	}
	return mt
}

// len returns the number of buffered points.
func (mt *memtable) len() int { return len(mt.ids) }

// insert buffers global id under its per-repetition keys (keys[i] is
// h_i of the point; the caller owns and may reuse the slice).
func (mt *memtable) insert(id int32, keys []uint64) {
	j := int32(len(mt.ids))
	mt.ids = append(mt.ids, id)
	for i, k := range keys {
		mt.keys[i] = append(mt.keys[i], k)
		mt.chains[i] = append(mt.chains[i], -1)
		if b, ok := mt.tables[i][k]; ok {
			mt.chains[i][b.tail] = j
			b.tail = j
			mt.tables[i][k] = b
		} else {
			mt.tables[i][k] = bucket{head: j, tail: j}
		}
	}
}

// bucketHead returns the first row index buffered under key in repetition
// rep, or -1 when the bucket is empty. Iterate with the repetition's
// chain column:
//
//	for j := mt.bucketHead(rep, key); j >= 0; j = mt.chains[rep][j] {
//		id := mt.ids[j]
//	}
//
// The walk yields rows in insertion order and is valid only while the
// caller holds the index's structural lock.
func (mt *memtable) bucketHead(rep int, key uint64) int32 {
	if b, ok := mt.tables[rep][key]; ok {
		return b.head
	}
	return -1
}

// shiftIDs adds delta to every buffered id in place. The leveled GC uses
// it to renumber the live memtable, which no snapshot ever pins; buckets
// and chains index rows, not ids, so they stay valid.
func (mt *memtable) shiftIDs(delta int32) {
	for j := range mt.ids {
		mt.ids[j] += delta
	}
}

// freeze converts the buffered points into an immutable segment using the
// retained key columns (no rehashing); the columns are handed to the
// segment so later merges stay rehash-free too. The memtable must not be
// used afterwards; the caller replaces it with a fresh one.
func (mt *memtable) freeze() *segment {
	seg := &segment{
		tables:    make([]flatTable, len(mt.tables)),
		keys:      mt.keys,
		globalIDs: mt.ids,
	}
	for i := range mt.tables {
		seg.tables[i] = buildFlatTable(mt.keys[i])
	}
	return seg
}
