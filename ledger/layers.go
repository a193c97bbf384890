package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"dsh/internal/core"
	"dsh/internal/durable"
	"dsh/internal/index"
	"dsh/internal/obs"
	"dsh/internal/vec"
	"dsh/internal/xrand"
)

// The traced run's layer replays. Each times calls into one layer's
// public functions on the in-process replica (or on scratch durable
// stores), after the server is gone so nothing competes for the CPU.
// Replay spans of a request's queries carry that request's id.

const (
	// cpfProbes is how many probes the CPF prediction sums over.
	cpfProbes = 200
	// snapshotReplays is how many Snapshot+Release pairs are timed.
	snapshotReplays = 200
	// durablePoints is how many preload points the scratch durable store
	// holds; half sit in segment files and half in the WAL tail.
	durablePoints = 4096
	// appendReplays is how many WAL Append+Sync pairs are timed.
	appendReplays = 200
)

// hashSink keeps replayed hash evaluations from being optimised away.
var hashSink uint64

func (r *run) replayLayers() error {
	pid, end := r.phase("phase.replay")
	defer end()
	self := r.replayQueries(pid)
	r.replayProbes()
	r.replaySnapshots(pid)
	if err := r.replayDurable(pid); err != nil {
		return err
	}
	path := filepath.Join(r.cfg.work, "trace-"+r.sp.name+".json")
	if err := r.tr.write(path, r.sp.name, r.cfg.seed, self); err != nil {
		return err
	}
	r.logf("  trace written to %s", path)
	return nil
}

// replayQueries replays each sampled timed query against the replica:
// its vector through every repetition's query hasher, as the batch
// engine's pre-hash does (sphere), then its ShardedSnapshot.
// QueryBatchSigned call, the index entry point the serve edge uses
// (index). Both run on one worker, so they measure work, not
// parallelism. It returns the self-time table, in which a query the
// server answered from its cache spends no time in either layer.
func (r *run) replayQueries(pid int64) []layer {
	snap := r.rep.ix.Snapshot()
	defer snap.Release()
	opts := index.BatchOptions{MaxCandidates: r.sp.max, Workers: 1}
	var hashT, queryT time.Duration
	var perIndex, perSphere []float64 // per sampled request, 0 when cached
	for _, s := range r.sample {
		qs := [][]float64{r.in.timed[s.out.idx].query}
		t0 := time.Now()
		hashBlock(r.rep.pairs, qs)
		t1 := time.Now()
		snap.QueryBatchSigned(qs, opts)
		t2 := time.Now()
		r.tr.record("sphere.hash", pid, s.out.req, t0, t1)
		r.tr.record("index.query", pid, s.out.req, t1, t2)
		hashT += t1.Sub(t0)
		queryT += t2.Sub(t1)
		if s.cached {
			t1, t2 = t0, t0
		}
		perSphere = append(perSphere, float64(t1.Sub(t0))/1e3)
		perIndex = append(perIndex, float64(t2.Sub(t1))/1e3)
	}
	n := float64(len(r.sample))
	hashUS := ratio(float64(hashT)/1e3, n)
	queryUS := ratio(float64(queryT)/1e3, n)
	r.rec.set("sphere.hash_us_per_query", hashUS, len(r.sample))
	r.rec.set("index.query_us", queryUS, len(r.sample))
	r.rec.set("sphere.hash_share", ratio(hashUS, queryUS), len(r.sample))
	return r.selfTimes(mean(perIndex), mean(perSphere))
}

// hashBlock evaluates every repetition's query hasher over a block of
// vectors, one repetition at a time, through HashBatch where the hasher
// has it: the order and the hasher choice of the batch engine's pre-hash.
func hashBlock(pairs []core.Pair[[]float64], block [][]float64) {
	out := make([]uint64, len(block))
	for _, p := range pairs {
		if bh, ok := p.G.(core.BatchHasher[[]float64]); ok {
			bh.HashBatch(block, out)
			hashSink ^= out[0]
			continue
		}
		for _, v := range block {
			hashSink ^= p.G.Hash(v)
		}
	}
}

// selfTimes splits the mean latency of a timed query request into the
// time spent in each layer and in none below it: the wait for a free
// connection, the client and transport (everything outside dshserve's request timer, HTTP parsing
// and wire decode included), the serve edge, the index and the hash
// evaluations. Nested means come from different sources (client clocks,
// dshserve's request histogram, replica replays), so the rows are clamped
// at zero and their sum is compared with the latency.
func (r *run) selfTimes(indexUS, sphereUS float64) []layer {
	var lat, wait, svc []float64
	for i := range r.timed {
		o := &r.timed[i]
		if o.ok() && r.in.timed[o.idx].kind == opQuery {
			lat = append(lat, float64(o.latency())/1e3)
			wait = append(wait, float64(o.sent.Sub(o.due)-o.lag)/1e3)
			svc = append(svc, float64(o.service())/1e3)
		}
	}
	serveUS := r.rec.Metrics["serve.request_us"].Value
	rows := []layer{
		{"client.conn_wait", mean(wait)},
		{"client.transport", max(0, mean(svc)-serveUS)},
		{"serve", max(0, serveUS-indexUS)},
		{"index", max(0, indexUS-sphereUS)},
		{"sphere", sphereUS},
	}
	total := 0.0
	r.logf("  self time per query request (mean latency %.1fus):", mean(lat))
	for _, l := range rows {
		total += l.SelfUS
		r.logf("    %-17s %9.1fus %5.1f%%", l.Name, l.SelfUS, 100*ratio(l.SelfUS, mean(lat)))
	}
	r.logf("    %-17s %9.1fus %5.1f%% of mean latency", "covered", total, 100*ratio(total, mean(lat)))
	return rows
}

// replayProbes runs the planted probe set through the replica unbounded:
// recall of the planted neighbours, measured candidates, and the paper's
// prediction L * sum_x f(<q,x>) from the family's CPF.
func (r *run) replayProbes() {
	snap := r.rep.ix.Snapshot()
	defer snap.Release()
	qs := make([][]float64, len(r.in.probes))
	for i, p := range r.in.probes {
		qs[i] = p.query
	}
	res, stats, _ := snap.QueryBatch(qs, index.BatchOptions{})
	found := 0
	for i, ids := range res {
		want := r.rep.ids[r.in.targets[i]]
		for _, id := range ids {
			if id == want {
				found++
				break
			}
		}
	}
	r.rec.set("index.recall", ratio(float64(found), float64(len(res))), len(res))

	cpf := r.rep.fam.CPF()
	L := float64(len(r.rep.pairs))
	var predicted, measured float64
	n := min(cpfProbes, len(qs))
	for i := 0; i < n; i++ {
		sum := 0.0
		for _, x := range r.in.points {
			sum += cpf.Eval(vec.Dot(qs[i], x))
		}
		predicted += L * sum
		measured += float64(stats[i].Candidates)
	}
	r.rec.set("index.cpf_candidates_per_query", predicted/float64(n), n)
	r.rec.set("index.candidate_ratio", ratio(measured, predicted), n)
}

// replaySnapshots times Snapshot+Release after an upsert, the work the
// serve edge does on every refresh after a mutation, then reports the
// replica's insert time.
func (r *run) replaySnapshots(pid int64) {
	rng := xrand.New(r.cfg.seed + 3)
	var total time.Duration
	for i := 0; i < snapshotReplays; i++ {
		r.rep.insertPoint(uint64(rng.Intn(len(r.in.points))), vec.RandomUnit(rng, r.sp.dim))
		t0 := time.Now()
		r.rep.ix.Snapshot().Release()
		t1 := time.Now()
		r.tr.record("index.snapshot", pid, 0, t0, t1)
		total += t1.Sub(t0)
	}
	r.rec.set("index.snapshot_us", float64(total)/1e3/snapshotReplays, snapshotReplays)
	var ins []float64
	for _, d := range r.rep.insert {
		ins = append(ins, float64(d)/1e3)
	}
	r.rec.set("index.insert_us", mean(ins), len(ins))
}

// replayDurable builds a scratch durable copy of the first preload points
// (segment files for half, the WAL tail for the rest), recovers a copy of
// its directory and reads the recovery phase times from this process's
// own metrics, then times WAL Append+Sync with the store's mean record
// size.
func (r *run) replayDurable(pid int64) error {
	base := filepath.Join(r.cfg.work, r.sp.name+"-replay")
	if err := os.RemoveAll(base); err != nil {
		return err
	}
	defer os.RemoveAll(base)
	live, cp := filepath.Join(base, "live"), filepath.Join(base, "copy")
	sopts := index.ShardOptions{Shards: r.sp.shards, Routing: r.sp.route()}
	ix, err := index.NewDurableSharded(live, r.cfg.seed, r.rep.fam, len(r.rep.pairs), durable.Float64Codec{}, sopts,
		durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		return err
	}
	n := min(durablePoints, len(r.in.points))
	s0 := obs.Default.Snapshot()
	for i := 0; i < n; i++ {
		if i == n/2 {
			ix.Flush()
			if err := ix.Persist(); err != nil {
				return err
			}
		}
		if ix.Routing() == index.RouteHash {
			ix.InsertKeyed(uint64(i), r.in.points[i])
		} else {
			ix.Insert(r.in.points[i])
		}
	}
	s1 := obs.Default.Snapshot()
	recordBytes := int(ratio(float64(s1.Counters["dsh_wal_append_bytes_total"]-s0.Counters["dsh_wal_append_bytes_total"]),
		float64(s1.Counters["dsh_wal_appends_total"]-s0.Counters["dsh_wal_appends_total"])))
	if err := copyTree(live, cp); err != nil {
		return err
	}
	ix.Close()
	if err := ix.DurableErr(); err != nil {
		return err
	}

	t0 := time.Now()
	rx, err := index.OpenSharded(cp, r.rep.fam, durable.Float64Codec{}, index.DynamicOptions{}, durable.Options{})
	r.tr.record("durable.recover", pid, 0, t0, time.Now())
	if err != nil {
		return err
	}
	if rx.Len() != n {
		r.rec.fail("scratch store recovered %d points, %d were inserted", rx.Len(), n)
	}
	rx.Close()
	s2 := obs.Default.Snapshot()
	for _, m := range []struct{ metric, hist string }{
		{"durable.recover_manifest_ms", "dsh_recover_manifest_ns"},
		{"durable.recover_segments_ms", "dsh_recover_segments_ns"},
		{"durable.recover_replay_ms", "dsh_recover_replay_ns"},
	} {
		h1, h2 := s1.Histograms[m.hist], s2.Histograms[m.hist]
		cnt := h2.Count - h1.Count
		r.rec.set(m.metric, ratio(float64(h2.Sum-h1.Sum)/1e6, float64(cnt)), int(cnt))
	}

	env, err := durable.OpenEnv(filepath.Join(base, "wal"), durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		return err
	}
	w, err := env.CreateWAL(1)
	if err != nil {
		return err
	}
	payload := make([]byte, max(recordBytes-walHeaderBytes, 1))
	var total time.Duration
	for i := 0; i < appendReplays; i++ {
		t0 := time.Now()
		if _, err := w.Append(payload); err != nil {
			return err
		}
		if err := w.Sync(); err != nil {
			return err
		}
		t1 := time.Now()
		r.tr.record("durable.append_sync", pid, 0, t0, t1)
		total += t1.Sub(t0)
	}
	if err := w.Close(); err != nil {
		return err
	}
	r.rec.set("durable.append_sync_us", float64(total)/1e3/appendReplays, appendReplays)
	r.logf("  durable replay: %d points, %d-byte WAL records", n, recordBytes)
	return nil
}

// walHeaderBytes is the WAL's per-record header (length and CRC32C),
// which Append adds to the payload.
const walHeaderBytes = 8

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !info.Mode().IsRegular() {
			return fmt.Errorf("copy %s: not a regular file", path)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
