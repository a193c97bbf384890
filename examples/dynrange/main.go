// Dynrange: output-sensitive range reporting over a mutating index. A
// fleet of sensors streams readings embedded on the unit sphere; an
// operator repeatedly asks "every reading similar to this one" while new
// readings arrive and stale ones are retired. dsh.NewRangeReporterOver
// wraps a one-shard ShardedIndex in the Theorem 6.5 reporting algorithm —
// the same RangeReporter veneer that serves static indexes — so the
// report set tracks the live corpus: freshly inserted readings appear
// immediately, retired ones vanish immediately, and background compaction
// keeps the layer count (visible in QueryStats.Probes) bounded without
// ever re-hashing a reading.
//
//	go run ./examples/dynrange
package main

import (
	"fmt"

	"dsh"
	"dsh/internal/vec"
	"dsh/internal/workload"
	"dsh/internal/xrand"
)

func main() {
	rng := xrand.New(11)
	const d = 24
	// Readings cluster around per-sensor centroids, so "similar readings"
	// is a real report set: same-sensor readings sit well inside the band.
	corpus := workload.NewArticleCorpus(rng, d, 60, 60, 0.12)
	pts := corpus.Points
	// Shuffle so every sensor's readings arrive spread across the stream:
	// the probe's report set keeps growing as its peers are ingested.
	for i := len(pts) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		pts[i], pts[j] = pts[j], pts[i]
	}
	initial := len(pts) / 3
	stream := len(pts) - initial

	// Step-function CPF, flat over the report band [0.6, 0.9]: every
	// in-band reading is reported with probability >= 1 - (1-fmin)^L.
	// L = 2/f(0.9) pushes the per-reading recall near 90%.
	const bandLo = 0.6
	fam := dsh.Step(d, bandLo, 0.9, 3, 1.4)
	L := 2 * dsh.RepetitionsForCPF(fam.CPF().Eval(0.9))
	dx := dsh.NewShardedDynamicIndex(rng, fam, L, pts[:initial],
		dsh.ShardOptions{Shards: 1, Dynamic: dsh.DynamicOptions{
			MemtableThreshold:    200,
			BackgroundCompaction: true,
			MaxSegments:          4,
		}})
	defer dx.Close()

	inBand := func(q, x []float64) bool { return vec.Dot(q, x) >= bandLo }
	rr := dsh.NewRangeReporterOver(dx, inBand)

	fmt.Printf("reporting over a live corpus: %d initial readings, %d streaming in\n\n", initial, stream)

	// Interleave ingestion with reporting: after every chunk of inserts
	// (plus a few retirements), re-run the same probe query and watch the
	// report set and the layering change underneath it.
	probe := pts[0]
	var dst []int
	for step := 0; step <= 4; step++ {
		if step > 0 {
			lo := initial + (step-1)*stream/4
			hi := initial + step*stream/4
			for i := lo; i < hi; i++ {
				dx.Insert(pts[i])
				if i%13 == 0 {
					dx.Delete(rng.Intn(i))
				}
			}
		}
		var stats dsh.QueryStats
		dst, stats = rr.AppendQuery(dst[:0], probe)
		verified := 0
		for _, id := range dst {
			if inBand(probe, dx.Point(id)) {
				verified++
			}
		}
		fmt.Printf("step %d: live=%5d segments=%d memtable=%3d | reported %3d in-band readings (probes=%d, candidates=%d)\n",
			step, dx.Len(), dx.Segments(), dx.MemtableLen(), verified, stats.Probes, stats.Candidates)
	}

	// A full compact collapses the layers; the report set is unchanged
	// (deleted readings were already invisible) but each repetition now
	// probes a single flat table.
	before, _ := rr.Query(probe)
	dx.Compact()
	after, stats := rr.Query(probe)
	fmt.Printf("\nafter compact: segments=%d, %d reported (was %d), probes/query=%d\n",
		dx.Segments(), len(after), len(before), stats.Probes)
	if len(after) == len(before) {
		fmt.Println("report set unchanged across compaction, as it must be")
	}
}
