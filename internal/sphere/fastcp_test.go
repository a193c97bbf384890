package sphere

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"dsh/internal/core"
	"dsh/internal/vec"
	"dsh/internal/xrand"
)

// stdErr is the binomial standard error of a Monte-Carlo estimate, with a
// half-count floor so zero-hit estimates still carry uncertainty.
func stdErr(e core.Estimate) float64 {
	p := e.P
	if e.Hits == 0 {
		p = 0.5 / float64(e.Trials)
	}
	return math.Sqrt(p * (1 - p) / float64(e.Trials))
}

// TestFastCrossPolytopeMatchesDenseCPF is the differential test behind the
// drop-in claim: at a power-of-two dimension (so padding is the identity
// and both families rotate the same space) the Monte-Carlo collision
// probabilities of the structured pseudo-rotation must match the dense
// Gaussian rotation within statistical error across the alpha range. The
// tolerance is a 4-sigma combined-variance z-test plus a small allowance
// (0.01) for the structured rotation's lower-order model error, which
// Kennedy & Ward bound but do not eliminate.
func TestFastCrossPolytopeMatchesDenseCPF(t *testing.T) {
	const d = 64
	trials := 4000
	if testing.Short() {
		trials = 1200
	}
	gen := func(rng *xrand.Rand, a float64) (Point, Point) {
		return vec.UnitPairWithDot(rng, d, a)
	}
	rng := xrand.NewFromString(t.Name())
	for _, alpha := range []float64{-0.9, -0.5, 0, 0.5, 0.9} {
		dense := core.EstimateCollision(rng, CrossPolytope(d), gen, alpha, trials, 3)
		fast := core.EstimateCollision(rng, FastCrossPolytope(d), gen, alpha, trials, 3)
		tol := 4*math.Sqrt(stdErr(dense)*stdErr(dense)+stdErr(fast)*stdErr(fast)) + 0.01
		if diff := math.Abs(dense.P - fast.P); diff > tol {
			t.Errorf("alpha=%v: dense CPF %.4f vs fast CPF %.4f, |diff| %.4f > tol %.4f",
				alpha, dense.P, fast.P, diff, tol)
		}
	}
}

// TestFastAntiCrossPolytopeMirrorsFast checks the anti variant is the
// alpha -> -alpha mirror of the positive one, Monte-Carlo, like the dense
// pair.
func TestFastAntiCrossPolytopeMirrorsFast(t *testing.T) {
	const d = 32
	trials := 4000
	if testing.Short() {
		trials = 1200
	}
	gen := func(rng *xrand.Rand, a float64) (Point, Point) {
		return vec.UnitPairWithDot(rng, d, a)
	}
	rng := xrand.NewFromString(t.Name())
	const alpha = 0.5
	plus := core.EstimateCollision(rng, FastCrossPolytope(d), gen, -alpha, trials, 3)
	minus := core.EstimateCollision(rng, FastAntiCrossPolytope(d), gen, alpha, trials, 3)
	tol := 4*math.Sqrt(stdErr(plus)*stdErr(plus)+stdErr(minus)*stdErr(minus)) + 0.005
	if diff := math.Abs(plus.P - minus.P); diff > tol {
		t.Errorf("mirror identity: CP+(-%v)=%.4f vs CP-(%v)=%.4f, |diff| %.4f > tol %.4f",
			alpha, plus.P, alpha, minus.P, diff, tol)
	}
}

func TestFastCrossPolytopeCollidesAtAlphaOne(t *testing.T) {
	rng := xrand.New(3)
	fam := FastCrossPolytope(24) // pads 24 -> 32
	x := vec.RandomUnit(rng, 24)
	for i := 0; i < 50; i++ {
		pair := fam.Sample(rng)
		if !pair.Collides(x, x) {
			t.Fatal("identical points must always collide under CP+")
		}
	}
}

func TestFastCrossPolytopeCPFUsesPaddedDimension(t *testing.T) {
	f := FastCrossPolytope(24).CPF()
	want := CrossPolytopeAsymptoticCPF(32, 0.5)
	if got := f.Eval(0.5); math.Abs(got-want) > 1e-14 {
		t.Errorf("CPF(0.5) = %v, want padded-dimension value %v", got, want)
	}
	g := FastAntiCrossPolytope(24).CPF()
	if got, want := g.Eval(0.5), CrossPolytopeAsymptoticCPF(32, -0.5); math.Abs(got-want) > 1e-14 {
		t.Errorf("anti CPF(0.5) = %v, want %v", got, want)
	}
}

// TestCrossPolytopeTieBreak pins the shared deterministic argmax contract:
// on equal |v| the lowest index wins, for the dense hasher, the fast
// hasher, and the argmaxAbs helper itself.
func TestCrossPolytopeTieBreak(t *testing.T) {
	// argmaxAbs directly.
	if best, neg := argmaxAbs([]float64{1, -1}); best != 0 || neg {
		t.Errorf("argmaxAbs([1,-1]) = (%d,%v), want (0,false)", best, neg)
	}
	if best, neg := argmaxAbs([]float64{-2, 2, 1}); best != 0 || !neg {
		t.Errorf("argmaxAbs([-2,2,1]) = (%d,%v), want (0,true)", best, neg)
	}
	if best, neg := argmaxAbs([]float64{0.5, 1, -1}); best != 1 || neg {
		t.Errorf("argmaxAbs([0.5,1,-1]) = (%d,%v), want (1,false)", best, neg)
	}

	// Dense hasher: rows picked so both rotated coordinates come out with
	// equal magnitude; the first must win, carrying its own sign.
	dense := crossPolytopeHasher{rows: [][]float64{{0, 1}, {1, 0}}}
	if got := dense.Hash([]float64{1, 1}); got != cpKey(0, false) {
		t.Errorf("dense tie (1,1): key %d, want %d", got, cpKey(0, false))
	}
	if got := dense.Hash([]float64{-1, -1}); got != cpKey(0, true) {
		t.Errorf("dense tie (-1,-1): key %d, want %d", got, cpKey(0, true))
	}

	// Fast hasher with all-positive signs: three Hadamard rounds send
	// (1, 0) to 2*(1, 1) — a tie that must resolve to index 0, positive.
	ones := []float64{1, 1}
	fast := &fastCrossPolytopeHasher{d: 2, n: 2, signs: [][]float64{ones, ones, ones}}
	if got := fast.Hash([]float64{1, 0}); got != cpKey(0, false) {
		t.Errorf("fast tie (1,0): key %d, want %d", got, cpKey(0, false))
	}
	if got := fast.Hash([]float64{-1, 0}); got != cpKey(0, true) {
		t.Errorf("fast tie (-1,0): key %d, want %d", got, cpKey(0, true))
	}
}

// TestFastCrossPolytopeBatchIdentical checks the core.BatchHasher
// contract: HashBatch emits bit-identical keys to per-point Hash.
func TestFastCrossPolytopeBatchIdentical(t *testing.T) {
	rng := xrand.New(9)
	pair := FastCrossPolytope(24).Sample(rng)
	bh, ok := pair.H.(core.BatchHasher[Point])
	if !ok {
		t.Fatal("fast cross-polytope hasher must implement core.BatchHasher")
	}
	points := make([]Point, 101) // odd count exercises the remainder path
	for i := range points {
		points[i] = vec.RandomUnit(rng, 24)
	}
	out := make([]uint64, len(points))
	bh.HashBatch(points, out)
	for i, p := range points {
		if want := pair.H.Hash(p); out[i] != want {
			t.Fatalf("point %d: HashBatch key %d != Hash key %d", i, out[i], want)
		}
	}
}

func TestPackedSimHashBatchIdentical(t *testing.T) {
	rng := xrand.New(10)
	pair := core.Power[Point](SimHash(24), 7).Sample(rng)
	bh, ok := pair.H.(core.BatchHasher[Point])
	if !ok {
		t.Fatal("Power(SimHash) hasher must implement core.BatchHasher")
	}
	points := make([]Point, 99)
	for i := range points {
		points[i] = vec.RandomUnit(rng, 24)
	}
	out := make([]uint64, len(points))
	bh.HashBatch(points, out)
	for i, p := range points {
		if want := pair.H.Hash(p); out[i] != want {
			t.Fatalf("point %d: HashBatch key %d != Hash key %d", i, out[i], want)
		}
	}
}

func TestPackedSimHashEmpirical(t *testing.T) {
	checkSphereCPF(t, core.Power[Point](SimHash(testDim), 4), []float64{-0.5, 0, 0.5, 0.9}, 20000)
}

func TestPackedSimHashCPFMatchesPower(t *testing.T) {
	fused := core.Power[Point](SimHash(testDim), 6).CPF()
	for _, a := range []float64{-0.9, -0.3, 0, 0.4, 0.8} {
		if want := math.Pow(SimHashCPF(a), 6); math.Abs(fused.Eval(a)-want) > 1e-12 {
			t.Errorf("CPF mismatch at %v: Power(SimHash, 6) %v vs SimHashCPF^6 %v", a, fused.Eval(a), want)
		}
	}
}

// TestPackedSimHashMatchesConcat is the differential behind Power's fused
// SimHash^k: against Concat of k explicitly listed SimHash(d) parts (the
// generic path) it must consume the same rng draws, carry the same name,
// emit the same H and G keys and evaluate the same CPF, bit for bit; its
// HashBatch must equal Hash on every block size, without allocating.
func TestPackedSimHashMatchesConcat(t *testing.T) {
	const draws, npts = 3, 2000
	for _, d := range []int{16, 64, 256} {
		for _, k := range []int{2, 6, 8, 70} {
			parts := make([]core.Family[Point], k)
			for i := range parts {
				parts[i] = SimHash(d)
			}
			generic := core.Concat(parts...)
			fused := core.Power[Point](SimHash(d), k)
			if _, ok := fused.(simHashPower); !ok {
				t.Fatalf("Power(SimHash(%d), %d) is %T, want the fused simHashPower", d, k, fused)
			}
			if fused.Name() != generic.Name() {
				t.Fatalf("d=%d k=%d: name %q, want %q", d, k, fused.Name(), generic.Name())
			}
			gc, fc := generic.CPF(), fused.CPF()
			for a := -1.0; a <= 1.0; a += 1.0 / 64 {
				if g, f := gc.Eval(a), fc.Eval(a); math.Float64bits(g) != math.Float64bits(f) {
					t.Fatalf("d=%d k=%d alpha=%v: CPF %v, want %v", d, k, a, f, g)
				}
			}
			prng := xrand.New(uint64(d*1000 + k))
			points := make([]Point, npts)
			for i := range points {
				points[i] = vec.RandomUnit(prng, d)
			}
			grng, frng := xrand.New(uint64(k)), xrand.New(uint64(k))
			for draw := 0; draw < draws; draw++ {
				gp, fp := generic.Sample(grng), fused.Sample(frng)
				if g, f := grng.Uint64(), frng.Uint64(); g != f {
					t.Fatalf("d=%d k=%d draw %d: rng after Sample %d, want %d", d, k, draw, f, g)
				}
				for i, p := range points {
					if g, f := gp.H.Hash(p), fp.H.Hash(p); g != f {
						t.Fatalf("d=%d k=%d draw %d point %d: H key %d, want %d", d, k, draw, i, f, g)
					}
					if g, f := gp.G.Hash(p), fp.G.Hash(p); g != f {
						t.Fatalf("d=%d k=%d draw %d point %d: G key %d, want %d", d, k, draw, i, f, g)
					}
				}
				bh := fp.H.(core.BatchHasher[Point])
				out := make([]uint64, 9)
				for n := 1; n <= 9; n++ {
					block := points[n : 2*n]
					bh.HashBatch(block, out)
					for i, p := range block {
						if want := fp.H.Hash(p); out[i] != want {
							t.Fatalf("d=%d k=%d block of %d, point %d: HashBatch %d, Hash %d", d, k, n, i, out[i], want)
						}
					}
					if allocs := testing.AllocsPerRun(20, func() { bh.HashBatch(block, out) }); allocs != 0 {
						t.Fatalf("d=%d k=%d block of %d: HashBatch %v allocs/op, want 0", d, k, n, allocs)
					}
				}
				if allocs := testing.AllocsPerRun(20, func() { fp.H.Hash(points[0]) }); allocs != 0 {
					t.Fatalf("d=%d k=%d: Hash %v allocs/op, want 0", d, k, allocs)
				}
			}
		}
	}
}

func TestFastFamilyGuards(t *testing.T) {
	for name, fn := range map[string]func(){
		"FastCrossPolytope(0)":     func() { FastCrossPolytope(0) },
		"FastAntiCrossPolytope(0)": func() { FastAntiCrossPolytope(0) },
		"Power(SimHash(0),4)":      func() { core.Power[Point](SimHash(0), 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestFastHashPathsNoAllocs asserts the 0 allocs/op steady-state contract
// on every batch-capable hash path: fast-CP Hash (pooled FWHT buffers),
// fast-CP HashBatch, and Power(SimHash)'s packed Hash and HashBatch.
func TestFastHashPathsNoAllocs(t *testing.T) {
	rng := xrand.New(11)
	cp := FastCrossPolytope(100).Sample(rng) // pads 100 -> 128
	sh := core.Power[Point](SimHash(64), 8).Sample(rng)
	cpBatch := cp.H.(core.BatchHasher[Point])
	shBatch := sh.H.(core.BatchHasher[Point])
	points := make([]Point, 16)
	for i := range points {
		if i < 8 {
			points[i] = vec.RandomUnit(rng, 100)
		} else {
			points[i] = vec.RandomUnit(rng, 64)
		}
	}
	cpPts, shPts := points[:8], points[8:]
	out := make([]uint64, 8)
	// Warm the scratch pool before measuring.
	cp.H.Hash(cpPts[0])
	cpBatch.HashBatch(cpPts, out)
	cases := map[string]func(){
		"fastcp.Hash":             func() { cp.H.Hash(cpPts[0]) },
		"fastcp.HashBatch":        func() { cpBatch.HashBatch(cpPts, out) },
		"packedsimhash.Hash":      func() { sh.H.Hash(shPts[0]) },
		"packedsimhash.HashBatch": func() { shBatch.HashBatch(shPts, out) },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

// TestFastCrossPolytopeGoldenKeys pins the keys the served families emit
// to digests computed before the radix-4 FWHT replaced the radix-2 loop.
// Segment files and WAL records persist these keys, so a changed key
// silently breaks every durable store a user reopens: its tables would
// no longer collide with freshly hashed queries. Each digest covers the
// keys of goldenDraws draws from one seed over goldenPoints fixed unit
// points, through Hash and, where the hasher has them, HashBatch and
// HashNeg. A kernel change must keep every key bit for bit; a family
// change that means to move keys must say so and re-pin these.
func TestFastCrossPolytopeGoldenKeys(t *testing.T) {
	const goldenDraws, goldenPoints = 7, 1000
	cases := []struct {
		name string
		d    int
		fam  core.Family[Point]
		g    bool // digest G instead of H
		want uint64
	}{
		{"fastcp/d=24", 24, FastCrossPolytope(24), false, 0xbad52d2485d4fce5},
		{"fastcp/d=100", 100, FastCrossPolytope(100), false, 0x00ee954955ade665},
		{"fastcp/d=256", 256, FastCrossPolytope(256), false, 0x9d19bf05eb00dea9},
		{"fastcp/d=1000", 1000, FastCrossPolytope(1000), false, 0x9d49ac0fd5fb09b5},
		{"fastanticp.G/d=24", 24, FastAntiCrossPolytope(24), true, 0x51bbad9da1b58ee5},
		{"fastanticp.G/d=100", 100, FastAntiCrossPolytope(100), true, 0x383a60f214361365},
		{"fastanticp.G/d=256", 256, FastAntiCrossPolytope(256), true, 0x3c67ad23b02a85e1},
		{"fastanticp.G/d=1000", 1000, FastAntiCrossPolytope(1000), true, 0x54f29d4c69b47e9d},
		{"simhash^6/d=64", 64, core.Power[Point](SimHash(64), 6), false, 0xcac4eae0bedc6651},
	}
	for _, c := range cases {
		prng := xrand.New(uint64(c.d))
		points := make([]Point, goldenPoints)
		negs := make([]Point, goldenPoints)
		for i := range points {
			points[i] = vec.RandomUnit(prng, c.d)
			negs[i] = make(Point, c.d)
			for j, v := range points[i] {
				negs[i][j] = -v
			}
		}
		digest := fnv.New64a()
		var buf []byte
		add := func(key uint64) { buf = binary.LittleEndian.AppendUint64(buf, key) }
		out := make([]uint64, goldenPoints)
		rng := xrand.New(2018)
		for draw := 0; draw < goldenDraws; draw++ {
			pair := c.fam.Sample(rng)
			h := pair.H
			if c.g {
				h = pair.G
			}
			for _, p := range points {
				add(h.Hash(p))
			}
			if bh, ok := h.(core.BatchHasher[Point]); ok {
				bh.HashBatch(points, out)
				for _, k := range out {
					add(k)
				}
			}
			if nh, ok := h.(interface{ HashNeg(Point) uint64 }); ok {
				for _, p := range negs {
					add(nh.HashNeg(p))
				}
			}
			digest.Write(buf)
			buf = buf[:0]
		}
		if got := digest.Sum64(); got != c.want {
			t.Errorf("%s: key digest %#016x, want %#016x", c.name, got, c.want)
		}
	}
}
