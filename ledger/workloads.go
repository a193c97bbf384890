package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"dsh/internal/vec"
	"dsh/internal/workload"
	"dsh/internal/xrand"
)

// spec is one workload: the dshserve configuration it runs against and
// the traffic it drives. The reasons each exists are in BENCHMARK.md.
type spec struct {
	name string

	// Server configuration, passed to dshserve as flags.
	family  string
	dim     int
	points  int
	shards  int
	routing string // "rr" (dense round-robin ids) or "hash" (keyed upserts)
	durable bool   // -dir with dshserve's default FsyncAlways, else in-memory

	// Traffic: an open loop over maxConns connections, one query vector
	// per /v1/query request.
	rate     float64       // requests per second
	max      int           // candidate bound sent with every query (0 = unbounded)
	hotSet   int           // distinct hot-set vectors (0 = none)
	hotShare float64       // share of queries drawn Zipf(1.1) from the hot set
	upserts  float64       // share of operations that are keyed upserts of loaded keys
	deletes  float64       // share of operations that are keyed deletes of loaded keys
	limit    time.Duration // latency limit: a slower request counts as failed
}

// maxConns is the generator's connection budget: the machine's two cores.
const maxConns = 2

// Every workload is an open loop at a fixed rate well under its
// two-connection capacity, so the server and the generator do not
// compete for the host's two cores.
//
// The latency limits sit far above each workload's tail (2-3 ms): a
// limit marks a request that went wrong, and the host's occasional
// scheduling stalls of tens of milliseconds must not count as failures.
//
// There is no workload of 64-vector /v1/querybatch requests: its latency
// is all CPU work and followed the shared host's speed too closely to
// carry a regression bound (BENCHMARK.md).
var workloads = []spec{
	{
		name: "hot-read", family: "simhash", dim: 64, points: 20000, shards: 2, routing: "rr",
		rate: 400, max: 100, hotSet: 1024, hotShare: 1, limit: 100 * time.Millisecond,
	},
	{
		name: "cold-read", family: "fastcp", dim: 256, points: 50000, shards: 4, routing: "hash",
		rate: 300, max: 0, limit: 100 * time.Millisecond,
	},
	{
		name: "mixed-durable", family: "simhash", dim: 64, points: 20000, shards: 2, routing: "hash", durable: true,
		rate: 300, max: 100, hotSet: 1024, hotShare: 0.5, upserts: 0.2, deletes: 0.05,
		limit: 250 * time.Millisecond,
	},
}

func lookupWorkload(name string) (spec, error) {
	for _, sp := range workloads {
		if sp.name == name {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// serverArgs are the dshserve flags of this workload. dshserve's own
// defaults cover everything else (linger, cache size, batch size,
// admission budget, fsync policy).
func (sp spec) serverArgs(seed uint64, points int, dir string) []string {
	args := []string{
		"-family", sp.family,
		"-dim", strconv.Itoa(sp.dim),
		"-shards", strconv.Itoa(sp.shards),
		"-routing", sp.routing,
		"-seed", strconv.FormatUint(seed, 10),
		"-points", strconv.Itoa(points),
	}
	if dir != "" {
		args = append(args, "-dir", dir)
	}
	return args
}

// opKind is what one request does.
type opKind int

const (
	opQuery opKind = iota
	opUpsert
	opDelete
)

// request is one pre-encoded HTTP call.
type request struct {
	kind  opKind
	path  string
	body  []byte
	query []float64 // query vector (opQuery)
}

// inputs is everything a run sends, generated from the seed before any
// server starts.
type inputs struct {
	points  [][]float64 // preload, in insert order; point i has key i
	preload [][]byte    // the preload's /v1/insert bodies
	timed   []*request  // the schedule
	warm    []*request  // warm-up, sent before timing
	probes  []*request  // probe set: planted queries answered before and after the restart
	targets []int       // per probe: index of the point it was planted next to
}

const (
	// probeCount is the size of the probe set.
	probeCount = 256
	// freshWarmUp is how many fresh-vector warm-up requests the workloads
	// without a hot set send.
	freshWarmUp = 72
)

// generate builds a run's inputs. The preload is exactly dshserve's own
// synthetic preload for the same seed (SpherePoints from seed+1), which
// lets an in-memory server restart with -points and come back with the
// same data.
func generate(sp spec, seed uint64, seconds float64) *inputs {
	in := &inputs{points: workload.SpherePoints(xrand.New(seed+1), sp.points, sp.dim)}
	rng := xrand.New(seed + 2)
	g := &generator{sp: sp, points: in.points, rng: rng}
	if sp.hotSet > 0 {
		g.hot = make([][]float64, sp.hotSet)
		for i := range g.hot {
			g.hot[i] = g.fresh()
		}
		g.zipf = zipfCDF(sp.hotSet, 1.1)
	}

	for i, p := range in.points {
		in.preload = append(in.preload, insertBody(sp.key(i), p))
	}

	in.timed = make([]*request, int(math.Round(sp.rate*seconds)))
	for i := range in.timed {
		in.timed[i] = g.next()
	}

	if sp.hotSet > 0 {
		// Warm-up: one pass over the hot set fills the result cache.
		for i := range g.hot {
			in.warm = append(in.warm, g.queryRequest(g.hot[i]))
		}
	} else {
		// Warm-up with fresh vectors of the timed kind: connections and
		// the server's pools warm, the timed vectors stay unseen.
		for i := 0; i < freshWarmUp; i++ {
			in.warm = append(in.warm, g.queryRequest(g.fresh()))
		}
	}

	for i := 0; i < probeCount; i++ {
		t := rng.Intn(len(in.points))
		q := workload.PointAtAlpha(rng, in.points[t], 0.5)
		in.probes = append(in.probes, g.queryRequest(q))
		in.targets = append(in.targets, t)
	}
	return in
}

// generator draws the requests of one workload.
type generator struct {
	sp     spec
	points [][]float64
	rng    *xrand.Rand
	hot    [][]float64
	zipf   []float64
}

// fresh draws a query vector never sent before: half planted at inner
// product 0.5 from a uniformly chosen loaded point, half uniform.
func (g *generator) fresh() []float64 {
	if g.rng.Bool() {
		return workload.PointAtAlpha(g.rng, g.points[g.rng.Intn(len(g.points))], 0.5)
	}
	return vec.RandomUnit(g.rng, g.sp.dim)
}

// next draws one request of the workload's mix.
func (g *generator) next() *request {
	u := g.rng.Float64()
	switch {
	case u < g.sp.upserts:
		key := uint64(g.rng.Intn(len(g.points)))
		return &request{kind: opUpsert, path: "/v1/insert", body: insertBody(&key, vec.RandomUnit(g.rng, g.sp.dim))}
	case u < g.sp.upserts+g.sp.deletes:
		key := uint64(g.rng.Intn(len(g.points)))
		return &request{kind: opDelete, path: "/v1/delete", body: []byte(`{"key":` + strconv.FormatUint(key, 10) + `}`)}
	}
	if g.hot != nil && g.rng.Float64() < g.sp.hotShare {
		i := sort.SearchFloat64s(g.zipf, g.rng.Float64())
		return g.queryRequest(g.hot[i])
	}
	return g.queryRequest(g.fresh())
}

func (g *generator) queryRequest(q []float64) *request {
	b := make([]byte, 0, 32+20*len(q))
	b = append(b, `{"vector":`...)
	b = appendVector(b, q)
	b = append(b, `,"max":`...)
	b = strconv.AppendInt(b, int64(g.sp.max), 10)
	b = append(b, '}')
	return &request{kind: opQuery, path: "/v1/query", body: b, query: q}
}

// key is the insert key of the i-th point: i under hash routing, none
// under round-robin routing.
func (sp spec) key(i int) *uint64 {
	if sp.routing != "hash" {
		return nil
	}
	k := uint64(i)
	return &k
}

// insertBody encodes a /v1/insert body; key is nil under round-robin
// routing.
func insertBody(key *uint64, v []float64) []byte {
	b := make([]byte, 0, 16+20*len(v))
	b = append(b, '{')
	if key != nil {
		b = append(b, `"key":`...)
		b = strconv.AppendUint(b, *key, 10)
		b = append(b, ',')
	}
	b = append(b, `"vector":`...)
	b = appendVector(b, v)
	return append(b, '}')
}

// appendVector writes v as a JSON array in the shortest form that parses
// back to the identical float64s, so the server indexes exactly the
// vectors the replica does.
func appendVector(b []byte, v []float64) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, x, 'g', -1, 64)
	}
	return append(b, ']')
}

// zipfCDF is the cumulative distribution of Zipf(s) over ranks 1..n.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += 1 / math.Pow(float64(k), s)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1
	return cdf
}
