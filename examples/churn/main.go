// Churn: dynamic indexing on the recommender workload. The corpus of
// article embeddings is not static — new articles are published, old ones
// are retracted — so the index must absorb inserts and deletes without a
// full rebuild. A one-shard dsh.ShardedIndex layers a mutable memtable
// over frozen flat-table segments with a tombstone bitmap for deletes; a
// full memtable freezes into a segment, and the background compactor
// folds the segments together once they pile up — without re-evaluating
// a single hash function, because every layer retains its key columns.
//
// The annulus-search veneer is the same AnnulusIndex that serves static
// indexes: dsh.NewAnnulusIndexOver wraps the mutating backend in the
// Theorem 6.1 query algorithm unchanged.
//
//	go run ./examples/churn
package main

import (
	"fmt"

	"dsh"
	"dsh/internal/vec"
	"dsh/internal/workload"
	"dsh/internal/xrand"
)

func main() {
	rng := xrand.New(7)
	const (
		d      = 32
		topics = 40
	)
	// Same two-level corpus as examples/recommender: within-subtopic pairs
	// are near-duplicates, same-topic cross-subtopic pairs sit in the
	// interesting band, cross-topic pairs are unrelated.
	corpus := workload.NewHierarchicalCorpus(rng, d, topics, 3, 25, 0.16, 0.074)
	n := len(corpus.Points)
	initial := n / 2
	fmt.Printf("corpus: %d articles; indexing the first %d, streaming in the rest\n", n, initial)

	// Annulus family peaking in the "similar but distinct" band.
	const lo, hi = 0.35, 0.65
	ann := dsh.Annulus(d, (lo+hi)/2, 2.2)
	L := dsh.RepetitionsForCPF(ann.CPF().Eval((lo + hi) / 2))
	dx := dsh.NewShardedDynamicIndex(rng, ann, L, corpus.Points[:initial],
		dsh.ShardOptions{Shards: 1, Dynamic: dsh.DynamicOptions{
			MemtableThreshold:    256,
			BackgroundCompaction: true, // merge when more than 4 segments pile up
			MaxSegments:          4,
		}})
	defer dx.Close()
	fmt.Printf("dynamic index: L = %d repetitions, %d segment(s)\n\n", L, dx.Segments())

	inBand := func(q, x []float64) bool {
		a := vec.Dot(q, x)
		return a >= lo && a <= hi
	}
	// The Theorem 6.1 annulus veneer over the mutating backend: Query
	// returns the first in-band candidate, scanning at most 8L.
	recommender := dsh.NewAnnulusIndexOver(dx, inBand)

	// Publish the rest of the corpus and retract a scattering of old
	// articles; the memtable absorbs inserts, the tombstone bitmap hides
	// retracted articles from queries immediately.
	retracted := 0
	for i := initial; i < n; i++ {
		dx.Insert(corpus.Points[i])
		if i%9 == 0 {
			if dx.Delete(rng.Intn(i)) {
				retracted++
			}
		}
	}
	fmt.Printf("after churn: %d live articles, %d retracted, %d segments + %d memtable entries\n",
		dx.Len(), retracted, dx.Segments(), dx.MemtableLen())

	hits := 0
	const queriesRun = 10
	for qi := 0; qi < queriesRun; qi++ {
		qid := rng.Intn(n)
		for dx.Deleted(qid) {
			qid = rng.Intn(n)
		}
		q := corpus.Points[qid]
		if rec, _ := recommender.Query(q); rec >= 0 {
			hits++
			fmt.Printf("query %d (topic %2d): recommend article %5d (topic %2d, sim %.3f)\n",
				qi, corpus.Topic[qid], rec, corpus.Topic[rec], vec.Dot(q, dx.Point(rec)))
		} else {
			fmt.Printf("query %d (topic %2d): no in-band article found\n", qi, corpus.Topic[qid])
		}
	}
	fmt.Printf("\nfound an in-band recommendation for %d/%d queries during churn\n", hits, queriesRun)

	// Compaction folds segments + memtable into one flat segment, dropping
	// retracted articles from the tables while every surviving article
	// keeps its id — and, because key columns are retained, without
	// hashing any point again. Steady-state queries are then
	// allocation-free.
	dx.Compact()
	fmt.Printf("after compact: %d live articles in %d segment(s), memtable empty=%v\n",
		dx.Len(), dx.Segments(), dx.MemtableLen() == 0)
}
