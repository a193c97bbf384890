package index

import (
	"math"
	"testing"

	"dsh/internal/core"
	"dsh/internal/sphere"
	"dsh/internal/vec"
	"dsh/internal/workload"
	"dsh/internal/xrand"
)

const testDim = 24

func TestRepetitionsForCPF(t *testing.T) {
	if got := RepetitionsForCPF(0.5); got != 2 {
		t.Errorf("L(0.5) = %d", got)
	}
	if got := RepetitionsForCPF(1); got != 1 {
		t.Errorf("L(1) = %d", got)
	}
	if got := RepetitionsForCPF(0.01); got != 100 {
		t.Errorf("L(0.01) = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("f = 0 should panic")
		}
	}()
	RepetitionsForCPF(0)
}

func TestIndexBasicCollisionRetrieval(t *testing.T) {
	rng := xrand.New(1)
	// SimHash powered to k=4: close points collide often, far rarely.
	fam := core.Power[[]float64](sphere.SimHash(testDim), 4)
	ds := workload.NewPlantedSphere(rng, testDim, 200, []float64{0.95})
	L := RepetitionsForCPF(math.Pow(sphere.SimHashCPF(0.95), 4)) * 3
	ix := New(rng, fam, L, ds.Points)
	if ix.L() != L || ix.Len() != 201 {
		t.Fatalf("index sizes wrong: L=%d n=%d", ix.L(), ix.Len())
	}
	got := ix.CollectDistinct(ds.Query, 0)
	found := false
	for _, id := range got {
		if id == ds.PlantedIdx[0] {
			found = true
		}
	}
	if !found {
		t.Error("planted near point not among candidates")
	}
}

func TestIndexCandidatesEarlyStop(t *testing.T) {
	rng := xrand.New(2)
	fam := sphere.SimHash(testDim) // collides with ~half of everything
	pts := workload.SpherePoints(rng, 500, testDim)
	ix := New(rng, fam, 10, pts)
	count := 0
	ix.Candidates(pts[0], func(id int) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Errorf("early stop visited %d", count)
	}
	limited := ix.CollectDistinct(pts[0], 5)
	if len(limited) != 5 {
		t.Errorf("CollectDistinct(max=5) returned %d", len(limited))
	}
}

func TestNewPanicsOnBadL(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("L=0 should panic")
		}
	}()
	New(xrand.New(1), sphere.SimHash(testDim), 0, nil)
}

// mustPanicMessage asserts fn panics with exactly the given message, the
// constructor-hardening contract: misuse fails at the call site with a
// clear diagnosis instead of deep inside table construction.
func mustPanicMessage(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("expected panic %q, got none", want)
			return
		}
		if got, ok := r.(string); !ok || got != want {
			t.Errorf("panic message = %v, want %q", r, want)
		}
	}()
	fn()
}

func TestConstructorValidationMessages(t *testing.T) {
	const (
		badL   = "index: repetitions must be positive"
		badFam = "index: family must be non-nil"
	)
	rng := func() *xrand.Rand { return xrand.New(1) }
	fam := sphere.SimHash(testDim)
	within := withinSim(0.3, 0.7)

	mustPanicMessage(t, badL, func() { New(rng(), fam, 0, nil) })
	mustPanicMessage(t, badL, func() { New(rng(), fam, -3, nil) })
	mustPanicMessage(t, badFam, func() { New[[]float64](rng(), nil, 4, nil) })
	mustPanicMessage(t, badL, func() { NewParallel(rng(), fam, 0, nil) })
	mustPanicMessage(t, badFam, func() { NewParallel[[]float64](rng(), nil, 4, nil) })
	mustPanicMessage(t, badL, func() { NewAnnulus(rng(), fam, 0, nil, within) })
	mustPanicMessage(t, badFam, func() { NewAnnulus[[]float64](rng(), nil, 4, nil, within) })
	mustPanicMessage(t, badL, func() { NewRangeReporter(rng(), fam, 0, nil, within) })
	mustPanicMessage(t, badFam, func() { NewRangeReporter[[]float64](rng(), nil, 4, nil, within) })
}

func withinSim(lo, hi float64) func(q, x []float64) bool {
	return func(q, x []float64) bool {
		a := vec.Dot(q, x)
		return a >= lo && a <= hi
	}
}

func TestAnnulusIndexFindsPlanted(t *testing.T) {
	rng := xrand.New(3)
	const alphaTarget = 0.5
	ds := workload.NewPlantedSphere(rng, testDim, 2000, []float64{alphaTarget})
	fam := sphere.NewAnnulus(testDim, alphaTarget, 1.8)
	L := RepetitionsForCPF(fam.CPF().Eval(alphaTarget))
	within := withinSim(0.3, 0.7)

	found := 0
	const reps = 12
	for i := 0; i < reps; i++ {
		ai := NewAnnulus[[]float64](rng, fam, L, ds.Points, within)
		id, _ := ai.Query(ds.Query)
		if id >= 0 && within(ds.Query, ds.Points[id]) {
			found++
		}
	}
	// Theorem 6.1 guarantees success probability >= 1/2 per build; with 12
	// independent builds, seeing fewer than 4 successes is astronomically
	// unlikely.
	if found < 4 {
		t.Errorf("annulus query succeeded only %d/%d times", found, reps)
	}
}

func TestAnnulusIndexScansSublinearly(t *testing.T) {
	rng := xrand.New(4)
	const alphaTarget = 0.6
	ds := workload.NewPlantedSphere(rng, testDim, 5000, []float64{alphaTarget})
	fam := sphere.NewAnnulus(testDim, alphaTarget, 1.8)
	L := RepetitionsForCPF(fam.CPF().Eval(alphaTarget))
	ai := NewAnnulus[[]float64](rng, fam, L, ds.Points, withinSim(0.45, 0.75))
	_, stats := ai.Query(ds.Query)
	if stats.Candidates > 8*L {
		t.Errorf("scanned %d candidates, limit %d", stats.Candidates, 8*L)
	}
	if stats.Candidates >= len(ds.Points) {
		t.Errorf("scanned %d candidates out of %d points: not sublinear", stats.Candidates, len(ds.Points))
	}
}

func TestRangeReporterFindsAllCloseWithDedup(t *testing.T) {
	rng := xrand.New(5)
	// Plant several close points.
	alphas := []float64{0.92, 0.9, 0.88, 0.85, 0.8}
	ds := workload.NewPlantedSphere(rng, testDim, 1000, alphas)
	fam := sphere.NewStep(testDim, 0.75, 0.95, 4, 1.6)
	fmin, _ := sphere.PlateauStats(fam.CPF(), 0.75, 0.95, 30)
	L := RepetitionsForCPF(fmin) * 3 // boost per-point success probability
	inRange := func(q, x []float64) bool { return vec.Dot(q, x) >= 0.75 }
	rr := NewRangeReporter[[]float64](rng, fam, L, ds.Points, inRange)
	got, stats := rr.Query(ds.Query)
	found := make(map[int]bool)
	for _, id := range got {
		found[id] = true
		if !inRange(ds.Query, ds.Points[id]) {
			t.Error("reported out-of-range point")
		}
	}
	hits := 0
	for _, idx := range ds.PlantedIdx {
		if found[idx] {
			hits++
		}
	}
	if hits < 4 {
		t.Errorf("reported %d/5 planted points", hits)
	}
	if stats.Verified != stats.Distinct {
		t.Errorf("each distinct candidate should be verified exactly once: %+v", stats)
	}
}

func TestLinearScan(t *testing.T) {
	rng := xrand.New(6)
	ds := workload.NewPlantedSphere(rng, testDim, 300, []float64{0.9})
	ls := NewLinearScan(ds.Points)
	id, stats := ls.Query(ds.Query, withinSim(0.85, 0.95))
	if id != ds.PlantedIdx[0] {
		// Another point may qualify; verify membership instead.
		if id < 0 || !withinSim(0.85, 0.95)(ds.Query, ds.Points[id]) {
			t.Errorf("linear scan returned %d", id)
		}
	}
	if stats.Candidates > len(ds.Points) {
		t.Errorf("scan stats wrong: %+v", stats)
	}
	all, _ := ls.QueryAll(ds.Query, withinSim(-1, 1))
	if len(all) != len(ds.Points) {
		t.Errorf("QueryAll returned %d of %d", len(all), len(ds.Points))
	}
}

func TestConcatAnnulusBaselineCPFShape(t *testing.T) {
	// k1 = k2 gives a CPF peaking at alpha = 0 (hyperplane queries).
	f := ConcatAnnulusCPF(3, 3)
	peak := f.Eval(0)
	for _, a := range []float64{-0.8, -0.4, 0.4, 0.8} {
		if f.Eval(a) >= peak {
			t.Errorf("baseline CPF(%v) = %v not below peak %v", a, f.Eval(a), peak)
		}
	}
}

func TestConcatAnnulusBaselineQuery(t *testing.T) {
	rng := xrand.New(7)
	// Plant an orthogonal vector among noise; search for |alpha| <= 0.2.
	ds := workload.NewPlantedSphere(rng, testDim, 1000, []float64{0})
	f := ConcatAnnulusCPF(4, 4)
	L := RepetitionsForCPF(f.Eval(0))
	found := 0
	const reps = 10
	for i := 0; i < reps; i++ {
		ai := ConcatAnnulusBaseline(rng, testDim, 4, 4, L, ds.Points, withinSim(-0.2, 0.2))
		if id, _ := ai.Query(ds.Query); id >= 0 {
			found++
		}
	}
	if found < 3 {
		t.Errorf("baseline found orthogonal point only %d/%d times", found, reps)
	}
}

func TestConcatAnnulusBaselinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("k1=0 should panic")
		}
	}()
	ConcatAnnulusBaseline(xrand.New(1), testDim, 0, 1, 1, nil, nil)
}
