package dsh_test

import (
	"math"
	"testing"

	"dsh"
)

func TestQuickstartFlow(t *testing.T) {
	rng := dsh.NewRand(1)
	fam := dsh.AntiBitSampling(256)
	x := dsh.RandomBits(rng, 256)
	y := dsh.BitsAtDistance(rng, x, 64) // relative distance 0.25
	hits := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if fam.Sample(rng).Collides(x, y) {
			hits++
		}
	}
	p := float64(hits) / trials
	if math.Abs(p-0.25) > 0.02 {
		t.Errorf("collision rate %v, want ~0.25", p)
	}
}

func TestFacadeCombinators(t *testing.T) {
	fam := dsh.Concat(dsh.BitSampling(128), dsh.AntiBitSampling(128))
	if got := fam.CPF().Eval(0.5); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("concat CPF = %v", got)
	}
	pow := dsh.Power(dsh.BitSampling(128), 2)
	if got := pow.CPF().Eval(0.5); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("power CPF = %v", got)
	}
	mix := dsh.Mixture(
		[]dsh.Family[dsh.BitVector]{dsh.BitSampling(128), dsh.AntiBitSampling(128)},
		[]float64{0.5, 0.5},
	)
	if got := mix.CPF().Eval(0.3); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("mixture CPF = %v", got)
	}
}

func TestFacadeSphereFamilies(t *testing.T) {
	if f := dsh.SimHash(16).CPF().Eval(0); math.Abs(f-0.5) > 1e-12 {
		t.Errorf("SimHash CPF(0) = %v", f)
	}
	fm := dsh.FilterMinus(16, 1.5)
	fp := dsh.FilterPlus(16, 1.5)
	for _, a := range []float64{-0.5, 0, 0.5} {
		if math.Abs(fp.ExactCPF(a)-fm.ExactCPF(-a)) > 1e-14 {
			t.Error("filter mirror identity broken through facade")
		}
	}
	ann := dsh.Annulus(16, 0.3, 1.5)
	if ann.AlphaMax() != 0.3 {
		t.Error("annulus alphaMax lost")
	}
	lo, hi := dsh.AnnulusBounds(0, 2)
	if lo >= hi {
		t.Error("annulus bounds inverted")
	}
}

func TestFacadeFastHashFamilies(t *testing.T) {
	rng := dsh.NewRand(5)
	fast := dsh.FastCrossPolytope(24)
	anti := dsh.FastAntiCrossPolytope(24)
	// Padded to n=32, the asymptotic CPF mirrors between the fast pair.
	if f, g := fast.CPF().Eval(0.4), anti.CPF().Eval(-0.4); math.Abs(f-g) > 1e-14 {
		t.Errorf("fast CP mirror identity broken: %v vs %v", f, g)
	}
	pair := fast.Sample(rng)
	bh, ok := pair.H.(dsh.BatchHasher[[]float64])
	if !ok {
		t.Fatal("FastCrossPolytope hasher should implement dsh.BatchHasher")
	}
	pts := make([][]float64, 9)
	for i := range pts {
		p := make([]float64, 24)
		var norm float64
		for j := range p {
			p[j] = rng.NormFloat64()
			norm += p[j] * p[j]
		}
		norm = math.Sqrt(norm)
		for j := range p {
			p[j] /= norm
		}
		pts[i] = p
	}
	keys := make([]uint64, len(pts))
	bh.HashBatch(pts, keys)
	for i, p := range pts {
		if keys[i] != pair.H.Hash(p) {
			t.Fatal("HashBatch keys differ from Hash through the facade")
		}
	}

	power := dsh.Power(dsh.SimHash(24), 6)
	for _, a := range []float64{-0.5, 0, 0.6} {
		if want := math.Pow(1-math.Acos(a)/math.Pi, 6); math.Abs(power.CPF().Eval(a)-want) > 1e-12 {
			t.Errorf("Power(SimHash, 6) CPF at %v is %v, want %v", a, power.CPF().Eval(a), want)
		}
	}
	if _, ok := power.Sample(rng).H.(dsh.BatchHasher[[]float64]); !ok {
		t.Fatal("Power(SimHash) hasher should implement dsh.BatchHasher")
	}
}

func TestFacadePolynomialFamilies(t *testing.T) {
	p := dsh.NewPolynomial(0.5, 1) // t + 0.5
	scheme, err := dsh.PolynomialFamily(64, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(scheme.Delta-2) > 1e-9 {
		t.Errorf("Delta = %v", scheme.Delta)
	}
	mono, err := dsh.MonotonePolynomialFamily(64, dsh.NewPolynomial(0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if got := mono.CPF().Eval(1); math.Abs(got-1) > 1e-12 {
		t.Errorf("monotone CPF(1) = %v", got)
	}
	val, err := dsh.Valiant(4, dsh.NewPolynomial(0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := val.CPF().Eval(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("valiant CPF(0) = %v", got)
	}
}

func TestFacadeEuclid(t *testing.T) {
	fam := dsh.NewPStable(8, 3, 1)
	if fam.K() != 3 || fam.W() != 1 {
		t.Error("pstable params lost")
	}
	if fam.ExactCPF(0) != 0 {
		t.Error("pstable CPF(0) should be 0 for k>0")
	}
}

func TestFacadeIndexAndPrivacy(t *testing.T) {
	rng := dsh.NewRand(2)
	pts := make([][]float64, 50)
	for i := range pts {
		g := make([]float64, 8)
		for j := range g {
			g[j] = rng.NormFloat64()
		}
		n := 0.0
		for _, v := range g {
			n += v * v
		}
		n = math.Sqrt(n)
		for j := range g {
			g[j] /= n
		}
		pts[i] = g
	}
	ix := dsh.NewIndex(rng, dsh.SimHash(8), 4, pts)
	if ix.L() != 4 || ix.Len() != 50 {
		t.Error("index sizes wrong")
	}
	if dsh.RepetitionsForCPF(0.25) != 4 {
		t.Error("RepetitionsForCPF wrong")
	}
	est, err := dsh.NewDistanceEstimator(rng, dsh.SimHash(8), 0.3, 0.1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := est.Estimate(pts[0], pts[0], dsh.PlaintextPSI())
	if err != nil {
		t.Fatal(err)
	}
	// Identical points collide in every repetition under SimHash.
	if !out.Close || out.IntersectionSize != est.N() {
		t.Errorf("self-estimate: %+v with N=%d", out, est.N())
	}
}

func TestFacadeBatchQuery(t *testing.T) {
	rng := dsh.NewRand(5)
	pts := make([][]float64, 300)
	for i := range pts {
		g := make([]float64, 16)
		n := 0.0
		for j := range g {
			g[j] = rng.NormFloat64()
			n += g[j] * g[j]
		}
		n = math.Sqrt(n)
		for j := range g {
			g[j] /= n
		}
		pts[i] = g
	}
	ix := dsh.NewIndex(rng, dsh.Power(dsh.SimHash(16), 4), 16, pts)
	queries := pts[:32]
	ids, per, agg := ix.QueryBatch(queries, dsh.BatchOptions{Workers: 4})
	if len(ids) != len(queries) || len(per) != len(queries) || agg.Queries != len(queries) {
		t.Fatalf("batch sizes wrong: %d/%d/%d", len(ids), len(per), agg.Queries)
	}
	for i, q := range queries {
		want := ix.CollectDistinct(q, 0)
		if len(want) != len(ids[i]) {
			t.Errorf("query %d: batch returned %d ids, sequential %d", i, len(ids[i]), len(want))
		}
		// Every query is an indexed point, so it must at least find itself.
		found := false
		for _, id := range ids[i] {
			if id == i {
				found = true
			}
		}
		if !found {
			t.Errorf("query %d did not find itself", i)
		}
	}
	if agg.LatP50 > agg.LatMax {
		t.Errorf("latency percentiles out of order: %+v", agg)
	}

	verify := func(a, b []float64) bool {
		dot := 0.0
		for k := range a {
			dot += a[k] * b[k]
		}
		return dot >= 0.4
	}
	seq, seqStats := dsh.Join(dsh.NewRand(6), dsh.Power(dsh.SimHash(16), 3), 8, pts, pts[:100], verify)
	par, parStats := dsh.JoinParallel(dsh.NewRand(6), dsh.Power(dsh.SimHash(16), 3), 8, pts, pts[:100], verify, 4)
	if len(seq) != len(par) || seqStats != parStats {
		t.Errorf("JoinParallel diverged from Join: %d/%d pairs, stats %+v vs %+v",
			len(par), len(seq), parStats, seqStats)
	}
}

func TestFacadeDynamicIndex(t *testing.T) {
	rng := dsh.NewRand(9)
	unit := func() []float64 {
		g := make([]float64, 16)
		n := 0.0
		for j := range g {
			g[j] = rng.NormFloat64()
			n += g[j] * g[j]
		}
		n = math.Sqrt(n)
		for j := range g {
			g[j] /= n
		}
		return g
	}
	pts := make([][]float64, 200)
	for i := range pts {
		pts[i] = unit()
	}
	dx := dsh.NewShardedDynamicIndex(rng, dsh.Power(dsh.SimHash(16), 4), 12, pts[:100],
		dsh.ShardOptions{Shards: 1, Dynamic: dsh.DynamicOptions{MemtableThreshold: 32}})
	for _, p := range pts[100:] {
		dx.Insert(p)
	}
	if dx.Len() != 200 {
		t.Fatalf("Len = %d", dx.Len())
	}
	if !dx.Delete(0) || dx.Delete(0) {
		t.Fatal("Delete semantics wrong through the facade")
	}
	dx.Compact()
	if dx.Segments() != 1 || dx.Len() != 199 {
		t.Fatalf("post-compact: segments=%d len=%d", dx.Segments(), dx.Len())
	}
	// A point finds itself; the deleted point never appears.
	qr := dx.NewQuerier()
	ids, _ := qr.CollectDistinct(pts[5], 0)
	found := false
	for _, id := range ids {
		if id == 0 {
			t.Fatal("deleted id reported")
		}
		if id == 5 {
			found = true
		}
	}
	if !found {
		t.Fatal("point 5 not retrievable")
	}
	got, per, agg := dx.QueryBatch(pts[:16], dsh.BatchOptions{Workers: 4})
	if len(got) != 16 || len(per) != 16 || agg.Queries != 16 {
		t.Fatalf("batch sizes wrong: %d/%d/%d", len(got), len(per), agg.Queries)
	}
}

// TestFacadeDynamicVeneers drives the unified serving veneers through the
// public API: annulus search and range reporting over a mutating
// one-shard index with background compaction.
func TestFacadeDynamicVeneers(t *testing.T) {
	rng := dsh.NewRand(13)
	unit := func() []float64 {
		g := make([]float64, 16)
		n := 0.0
		for j := range g {
			g[j] = rng.NormFloat64()
			n += g[j] * g[j]
		}
		n = math.Sqrt(n)
		for j := range g {
			g[j] /= n
		}
		return g
	}
	pts := make([][]float64, 400)
	for i := range pts {
		pts[i] = unit()
	}
	dx := dsh.NewShardedDynamicIndex(rng, dsh.Power(dsh.SimHash(16), 4), 16, pts[:200],
		dsh.ShardOptions{Shards: 1, Dynamic: dsh.DynamicOptions{
			MemtableThreshold:    64,
			BackgroundCompaction: true,
			MaxSegments:          3,
		}})
	defer dx.Close()

	anything := func(q, x []float64) bool { return true }
	ai := dsh.NewAnnulusIndexOver(dx, anything)
	rr := dsh.NewRangeReporterOver(dx, anything)
	if ai.Source() != dsh.Source[[]float64](dx) || rr.Source() != dsh.Source[[]float64](dx) {
		t.Fatal("veneer backend accessors wrong through the facade")
	}

	for _, p := range pts[200:] {
		dx.Insert(p)
	}
	dx.Delete(7)

	if id, stats := ai.Query(pts[5]); id < 0 || stats.Verified == 0 {
		t.Fatalf("dynamic annulus found nothing: id=%d stats=%+v", id, stats)
	}
	ids, stats := rr.Query(pts[5])
	if stats.Probes == 0 {
		t.Fatalf("range stats missing probes: %+v", stats)
	}
	self := false
	for _, id := range ids {
		if id == 7 {
			t.Fatal("deleted id reported through the range veneer")
		}
		if id == 5 {
			self = true
		}
	}
	if !self {
		t.Fatal("point 5 did not report itself")
	}

	dx.Compact()
	if got, _ := rr.Query(pts[5]); len(got) != len(ids) {
		t.Fatalf("report set changed across compaction: %d != %d", len(got), len(ids))
	}
}
