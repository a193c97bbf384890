package index

import (
	"dsh/internal/bitvec"
	"dsh/internal/core"
)

// segment is one immutable frozen run of a shard: the flat-table
// layout of table.go applied to a batch of points that passed through the
// memtable (or through a merge). A segment stores one flatTable per
// repetition over *local* positions 0..len-1 plus the mapping from local
// position to the stable global point id, so points keep their ids across
// freezes and merges. It also retains the raw per-repetition key columns
// the tables were built from, which is what lets compaction merge
// segments by concatenating columns instead of re-hashing points.
// Segments are never mutated after construction — deletes are recorded in
// the shard's tombstone bitmap and applied during candidate
// iteration, and merges replace whole segments.
type segment struct {
	// tables[i] buckets local positions by the repetition-i data-side key.
	tables []flatTable
	// keys[i][j] is h_i of the point at local position j — the column
	// tables[i] was built from, retained so merges never re-evaluate a
	// hash function.
	keys [][]uint64
	// globalIDs maps local position -> global point id, in insertion
	// order. Global ids are strictly increasing within a segment, and
	// segments are kept oldest-first, so concatenating segment id lists
	// walks the live points in global-id order.
	globalIDs []int32
	// file is the on-disk segment file name once a durable checkpoint has
	// written this segment out, "" before (and always for non-durable
	// indexes). Guarded by the index's structural lock. A copy made by
	// withShiftedIDs deliberately resets it: the shifted ids no longer
	// match the file's.
	file string
}

// len returns the number of points frozen into the segment.
func (s *segment) len() int { return len(s.globalIDs) }

// lookup returns the local positions bucketed under key in repetition rep;
// callers translate through globalIDs. The slice aliases frozen storage.
func (s *segment) lookup(rep int, key uint64) []int32 {
	return s.tables[rep].lookup(key)
}

// appendSegmentCandidates appends the ids colliding with key in
// repetition rep across segs, oldest first, skipping ids tombstoned in
// dead, and returns the extended slice plus the number of segments
// probed.
func appendSegmentCandidates(segs []*segment, dead *bitvec.Bitmap, rep int, key uint64, dst []int32) ([]int32, int) {
	for _, seg := range segs {
		for _, local := range seg.lookup(rep, key) {
			if id := seg.globalIDs[local]; !dead.Get(int(id)) {
				dst = append(dst, id)
			}
		}
	}
	return dst, len(segs)
}

// withShiftedIDs returns a copy of the segment sharing its flat tables and
// key columns (both immutable) but with every global id shifted by delta.
// The leveled GC uses it to renumber segments installed while the
// bottom-level merge built, without rebuilding their tables; the original
// stays valid for snapshots pinned under the old id space.
func (s *segment) withShiftedIDs(delta int32) *segment {
	ids := make([]int32, len(s.globalIDs))
	for j, id := range s.globalIDs {
		ids[j] = id + delta
	}
	return &segment{tables: s.tables, keys: s.keys, globalIDs: ids}
}

// buildSegment freezes points (carrying their global ids) into a segment
// by hashing every point with each repetition's data-side hasher — the
// only place in the dynamic subsystem outside Insert that evaluates hash
// functions. The pairs are the index's shared repetition draws: reusing
// them across segments is what lets a query hash once per repetition and
// probe every layer with the same key, preserving the family's
// collision-probability semantics exactly.
func buildSegment[P any](pairs []core.Pair[P], points []P, globalIDs []int32) *segment {
	seg := &segment{
		tables:    make([]flatTable, len(pairs)),
		keys:      make([][]uint64, len(pairs)),
		globalIDs: globalIDs,
	}
	for i, pair := range pairs {
		keys := make([]uint64, len(points))
		hashColumn(pair.H, points, keys)
		seg.keys[i] = keys
		seg.tables[i] = buildFlatTable(keys)
	}
	return seg
}
