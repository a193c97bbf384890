package index

import (
	"sync"
	"testing"

	"dsh/internal/workload"
	"dsh/internal/xrand"
)

// seqPoint encodes a writer id and a per-writer sequence number into a
// point (the remaining coordinates are a deterministic fill so hashing
// spreads buckets); decoded by the snapshot checker below.
func seqPoint(writer, seq int) []float64 {
	p := make([]float64, testDim)
	p[0] = float64(writer)
	p[1] = float64(seq)
	for i := 2; i < testDim; i++ {
		p[i] = float64((writer*31+seq*17+i)%13) - 6
	}
	return p
}

// TestSnapshotBarrierSingleInstant is the epoch-barrier race test: W
// writers mutate a hash-routed sharded index (keyed inserts plus trailing
// keyed deletes, so every writer's footprint is a sliding window of
// sequence numbers whose keys scatter across shards) while a snapshotter
// repeatedly takes global snapshots. The single-instant invariant: in any
// snapshot, each writer's visible sequence numbers form one contiguous
// window — the writer issues its ops strictly one after another, so a view
// that contains op i+1's effect but not op i's mixes two points in time
// and can only come from shards pinned at different instants. Run it with
// -race in CI to also exercise the locking discipline.
func TestSnapshotBarrierSingleInstant(t *testing.T) {
	const (
		W      = 4
		ops    = 400
		window = 8
		snaps  = 60
	)
	sx := NewSharded[[]float64](xrand.New(61), dynamicFamily(), 6, nil, ShardOptions{
		Shards:  4,
		Routing: RouteHash,
		Dynamic: DynamicOptions{MemtableThreshold: 32},
	})
	defer sx.Close()

	key := func(writer, seq int) uint64 { return uint64(writer)<<32 | uint64(seq) }

	var wg sync.WaitGroup
	for w := 0; w < W; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := 0; seq < ops; seq++ {
				sx.InsertKeyed(key(w, seq), seqPoint(w, seq))
				if old := seq - window; old >= 0 {
					if !sx.DeleteKeyed(key(w, old)) {
						t.Errorf("writer %d: DeleteKeyed(seq %d) = false", w, old)
						return
					}
				}
			}
		}(w)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	checked := 0
	for running := true; running || checked < snaps; checked++ {
		select {
		case <-done:
			running = false
		default:
		}
		snap := sx.Snapshot()
		var minSeq, maxSeq, count [W]int
		for i := range minSeq {
			minSeq[i] = ops
			maxSeq[i] = -1
		}
		total := 0
		for _, id := range snap.AppendLiveIDs(nil) {
			p := snap.Point(id)
			w, seq := int(p[0]), int(p[1])
			if w < 0 || w >= W || seq < 0 || seq >= ops {
				t.Fatalf("snapshot %d: live id %d decodes to impossible (writer %d, seq %d)", checked, id, w, seq)
			}
			count[w]++
			if seq < minSeq[w] {
				minSeq[w] = seq
			}
			if seq > maxSeq[w] {
				maxSeq[w] = seq
			}
			total++
		}
		if total != snap.Len() {
			t.Fatalf("snapshot %d: scanned %d live ids, Len() = %d", checked, total, snap.Len())
		}
		for w := 0; w < W; w++ {
			if count[w] == 0 {
				continue
			}
			// Contiguity: a gap means op i is missing while op j > i is
			// visible — two different instants across shards.
			if got := maxSeq[w] - minSeq[w] + 1; got != count[w] {
				t.Fatalf("snapshot %d: writer %d window [%d,%d] holds %d seqs, want %d — not a single instant",
					checked, w, minSeq[w], maxSeq[w], count[w], got)
			}
			// The window invariant additionally bounds the spread: at any
			// instant at most window+1 versions are visible (op window+1
			// deletes the tail before inserting the head... the insert of
			// seq s precedes the delete of s-window, so both may be live).
			if count[w] > window+1 {
				t.Fatalf("snapshot %d: writer %d has %d live seqs, want <= %d",
					checked, w, count[w], window+1)
			}
		}
		snap.Release()
	}
	if checked < snaps {
		t.Fatalf("only %d snapshots checked", checked)
	}

	// Quiescent final state: every writer's last `window` versions live.
	if got, want := sx.Len(), W*window; got != want {
		t.Fatalf("final Len = %d, want %d", got, want)
	}

	// The fallback (stop-the-world) path must also produce a valid
	// snapshot; force it by exhausting the optimistic attempts under a
	// dedicated writer hammering epochs.
	stop := make(chan struct{})
	var hammer sync.WaitGroup
	hammer.Add(1)
	go func() {
		defer hammer.Done()
		pts := workload.SpherePoints(xrand.New(62), 64, testDim)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				sx.InsertKeyed(key(W, i%64), pts[i%64])
			}
		}
	}()
	for i := 0; i < 20; i++ {
		snap := sx.Snapshot()
		if snap.Len() == 0 {
			t.Fatal("snapshot under write load lost the quiescent state")
		}
		snap.Release()
	}
	close(stop)
	hammer.Wait()
}
