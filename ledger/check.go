package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"dsh/internal/core"
	"dsh/internal/index"
	"dsh/internal/workload"
	"dsh/internal/xrand"
)

// answer is one decoded /v1/query reply: the ids, and whether the server
// answered from its result cache.
type answer struct {
	IDs    []int `json:"ids"`
	Cached bool  `json:"cached"`
}

func decodeAnswer(body []byte) (answer, error) {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return answer{}, fmt.Errorf("decode query reply: %w", err)
	}
	return a, nil
}

// replica is the in-process copy of the served index, built with the
// construction dshserve uses (the same family, repetition draws from the
// same seed, shard count, routing and insert order), so its ids and its
// QueryBatch answers must equal the server's.
type replica struct {
	ix     *index.ShardedIndex[[]float64]
	pairs  []core.Pair[[]float64] // the L repetition draws, sampled like NewSharded does
	fam    core.Family[[]float64]
	ids    []int           // id of each preload point
	insert []time.Duration // time of each preload insert
}

func buildReplica(sp spec, seed uint64, points [][]float64) (*replica, error) {
	fam, L, err := workload.ServingFamily(sp.family, sp.dim)
	if err != nil {
		return nil, err
	}
	rep := &replica{
		ix:     index.NewSharded(xrand.New(seed), fam, L, nil, index.ShardOptions{Shards: sp.shards, Routing: sp.route()}),
		fam:    fam,
		ids:    make([]int, len(points)),
		insert: make([]time.Duration, len(points)),
	}
	rng := xrand.New(seed)
	for range L {
		rep.pairs = append(rep.pairs, fam.Sample(rng))
	}
	for i, p := range points {
		t0 := time.Now()
		rep.ids[i] = rep.insertPoint(uint64(i), p)
		rep.insert[i] = time.Since(t0)
	}
	return rep, nil
}

// insertPoint inserts p under key on a hash-routed index, or appends it
// on a round-robin one, and returns its id.
func (rep *replica) insertPoint(key uint64, p []float64) int {
	if rep.ix.Routing() == index.RouteHash {
		return rep.ix.InsertKeyed(key, p)
	}
	return rep.ix.Insert(p)
}

func (sp spec) route() index.Routing {
	if sp.routing == "hash" {
		return index.RouteHash
	}
	return index.RouteRoundRobin
}

// sampleQueries caps the timed queries whose wire answers are checked
// against the replica (and, in a traced run, replayed).
const sampleQueries = 512

// check builds the replica and verifies the wire results. Read-only
// workloads: sampled timed answers and every probe answer equal the
// replica's QueryBatch output. mixed-durable, whose concurrent writes
// leave no single replica state to compare with: every id any reply
// returned was acknowledged by some insert. Every workload: the preload
// ids equal the replica's and no durable fault latched.
func (r *run) check() error {
	_, end := r.phase("phase.check")
	defer end()
	rep, err := buildReplica(r.sp, r.cfg.seed, r.in.points)
	if err != nil {
		return err
	}
	r.rep = rep
	if !slices.Equal(rep.ids, r.preloadIDs) {
		r.rec.fail("preload ids acknowledged by dshserve differ from the replica's")
	}
	if r.sp.durable {
		err = r.checkAcknowledged()
	} else {
		err = r.checkAgainstReplica()
	}
	if err != nil {
		return err
	}
	if r.faults != 0 {
		r.rec.fail("dsh_durable_faults reads %d", r.faults)
	}
	r.rec.set("durable.faults", float64(r.faults), 1)
	r.logf("  checks: correct=%v attempted=%d failed=%d", r.rec.Correct, r.rec.Attempted, r.rec.Failed)
	for _, p := range r.rec.Problems {
		r.logf("  PROBLEM: %s", p)
	}
	return nil
}

// checkAgainstReplica compares sampled timed answers and the first round
// of probe answers with the replica.
func (r *run) checkAgainstReplica() error {
	snap := r.rep.ix.Snapshot()
	defer snap.Release()
	opts := index.BatchOptions{MaxCandidates: r.sp.max}

	stride := max(1, len(r.timed)/sampleQueries)
	for i := 0; i < len(r.timed); i += stride {
		o := &r.timed[i]
		q := r.in.timed[o.idx]
		if !o.ok() || q.kind != opQuery {
			continue
		}
		a, err := decodeAnswer(o.body)
		if err != nil {
			return err
		}
		want, _, _ := snap.QueryBatch([][]float64{q.query}, opts)
		if !slices.Equal(a.IDs, want[0]) {
			r.wrong(o, "timed request %d: wire answer differs from the replica's QueryBatch", o.idx)
		}
		r.sample = append(r.sample, sampled{out: o, cached: a.Cached})
	}
	for i := range r.in.probes {
		o := &r.probes[i]
		if !o.ok() {
			continue
		}
		a, err := decodeAnswer(o.body)
		if err != nil {
			return err
		}
		want, _, _ := snap.QueryBatch([][]float64{r.in.probes[i].query}, opts)
		if !slices.Equal(a.IDs, want[0]) {
			r.wrong(o, "probe %d: wire answer differs from the replica's QueryBatch", i)
		}
	}
	return nil
}

// checkAcknowledged requires every id in every query reply to be one an
// insert acknowledged: a preload insert or a timed upsert.
func (r *run) checkAcknowledged() error {
	acked := make(map[int]bool, len(r.preloadIDs))
	for _, id := range r.preloadIDs {
		acked[id] = true
	}
	for i := range r.timed {
		o := &r.timed[i]
		if o.ok() && r.in.timed[o.idx].kind == opUpsert {
			var ack struct {
				ID int `json:"id"`
			}
			if err := json.Unmarshal(o.body, &ack); err != nil {
				return fmt.Errorf("decode upsert reply: %w", err)
			}
			acked[ack.ID] = true
		}
	}
	check := func(o *outcome, q *request) error {
		if !o.ok() || q.kind != opQuery {
			return nil
		}
		a, err := decodeAnswer(o.body)
		if err != nil {
			return err
		}
		for _, id := range a.IDs {
			if !acked[id] {
				r.wrong(o, "reply returned id %d, which no insert acknowledged", id)
				return nil
			}
		}
		return nil
	}
	for i := range r.timed {
		o := &r.timed[i]
		q := r.in.timed[o.idx]
		if err := check(o, q); err != nil {
			return err
		}
		if o.ok() && q.kind == opQuery && len(r.sample) < sampleQueries {
			a, _ := decodeAnswer(o.body)
			r.sample = append(r.sample, sampled{out: o, cached: a.Cached})
		}
	}
	for i := range r.probes {
		if err := check(&r.probes[i], r.in.probes[i%len(r.in.probes)]); err != nil {
			return err
		}
	}
	return nil
}

// wrong records a wrong answer; the request counts as failed.
func (r *run) wrong(o *outcome, format string, args ...any) {
	r.rec.fail(format, args...)
	r.countFailed(o)
}

// countFailed counts o as a failed request, once.
func (r *run) countFailed(o *outcome) {
	if !o.failed {
		o.failed = true
		r.rec.Failed++
	}
}

// sampled is one timed request whose answer was checked, kept for the
// traced replay.
type sampled struct {
	out    *outcome
	cached bool
}
