package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"
	"testing"
	"testing/quick"

	"dsh/internal/xrand"
)

func TestPowerOfTwoHelpers(t *testing.T) {
	if !IsPowerOfTwo(1) || !IsPowerOfTwo(64) || IsPowerOfTwo(0) || IsPowerOfTwo(3) || IsPowerOfTwo(-4) {
		t.Fatal("IsPowerOfTwo wrong")
	}
	cases := []struct{ in, want int }{{0, 1}, {1, 1}, {2, 2}, {3, 4}, {17, 32}, {64, 64}}
	for _, c := range cases {
		if got := NextPowerOfTwo(c.in); got != c.want {
			t.Errorf("NextPowerOfTwo(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestFFTKnownValues(t *testing.T) {
	// FFT of [1,0,0,0] is all ones.
	x := []complex128{1, 0, 0, 0}
	FFT(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("impulse FFT[%d] = %v", i, v)
		}
	}
	// FFT of constant is impulse at 0.
	y := []complex128{2, 2, 2, 2}
	FFT(y)
	if cmplx.Abs(y[0]-8) > 1e-12 {
		t.Errorf("DC term = %v", y[0])
	}
	for i := 1; i < 4; i++ {
		if cmplx.Abs(y[i]) > 1e-12 {
			t.Errorf("nonzero bin %d: %v", i, y[i])
		}
	}
}

func TestFFTPanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("should panic for length 3")
		}
	}()
	FFT(make([]complex128, 3))
}

func TestRoundTripQuick(t *testing.T) {
	f := func(seed uint64, logN uint8) bool {
		n := 1 << (logN%8 + 1)
		rng := xrand.New(seed)
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		FFT(x)
		IFFT(x)
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestParseval(t *testing.T) {
	rng := xrand.New(3)
	n := 64
	x := make([]complex128, n)
	var timeEnergy float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
		timeEnergy += real(x[i]) * real(x[i])
	}
	FFT(x)
	var freqEnergy float64
	for _, v := range x {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(freqEnergy/float64(n)-timeEnergy) > 1e-9*timeEnergy {
		t.Fatalf("Parseval violated: %v vs %v", freqEnergy/float64(n), timeEnergy)
	}
}

func TestConvolveMatchesNaive(t *testing.T) {
	rng := xrand.New(4)
	n := 16
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = rng.Float64Range(-1, 1)
		b[i] = rng.Float64Range(-1, 1)
	}
	got := ConvolveReal(a, b)
	for k := 0; k < n; k++ {
		var want float64
		for i := 0; i < n; i++ {
			want += a[i] * b[(k-i+n)%n]
		}
		if math.Abs(got[k]-want) > 1e-9 {
			t.Fatalf("conv[%d] = %v, want %v", k, got[k], want)
		}
	}
}

func TestConvolveMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	Convolve(make([]complex128, 4), make([]complex128, 8))
}

func TestPointwiseMulFFTAssociativity(t *testing.T) {
	rng := xrand.New(5)
	n := 32
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range a {
		a[i] = rng.Float64Range(-1, 1)
		b[i] = rng.Float64Range(-1, 1)
		c[i] = rng.Float64Range(-1, 1)
	}
	// conv(conv(a,b),c) == PointwiseMulFFT(a,b,c)
	ab := ConvolveReal(a, b)
	want := ConvolveReal(ab, c)
	got := PointwiseMulFFT(a, b, c)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Fatalf("triple conv mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestPointwiseMulFFTSingle(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	got := PointwiseMulFFT(a)
	for i := range a {
		if math.Abs(got[i]-a[i]) > 1e-10 {
			t.Fatalf("identity failed: %v", got)
		}
	}
	if PointwiseMulFFT() != nil {
		t.Fatal("empty input should return nil")
	}
}

func TestEmptyFFT(t *testing.T) {
	FFT(nil) // must not panic
	IFFT(nil)
	if out := Convolve(nil, nil); out != nil {
		t.Fatal("empty convolution should be nil")
	}
}

// naiveFWHT multiplies by the Hadamard matrix defined recursively:
// H_1 = [1], H_2n = [[H_n, H_n], [H_n, -H_n]].
func naiveFWHT(x []float64) []float64 {
	n := len(x)
	if n == 1 {
		return []float64{x[0]}
	}
	half := n / 2
	lo := make([]float64, half)
	hi := make([]float64, half)
	for i := 0; i < half; i++ {
		lo[i] = x[i] + x[i+half]
		hi[i] = x[i] - x[i+half]
	}
	return append(naiveFWHT(lo), naiveFWHT(hi)...)
}

func TestFWHTMatchesNaive(t *testing.T) {
	rng := xrand.New(11)
	for _, n := range []int{1, 2, 4, 8, 32} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64Range(-1, 1)
		}
		want := naiveFWHT(append([]float64(nil), x...))
		FWHT(x)
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-12 {
				t.Fatalf("n=%d: FWHT[%d] = %v, want %v", n, i, x[i], want[i])
			}
		}
	}
}

// radix2FWHT is the textbook one-level-per-sweep transform, the
// bit-for-bit reference for FWHT's radix-8/4/2 passes.
func radix2FWHT(x []float64) {
	n := len(x)
	for length := 1; length < n; length <<= 1 {
		for start := 0; start < n; start += length << 1 {
			for k := start; k < start+length; k++ {
				a, b := x[k], x[k+length]
				x[k] = a + b
				x[k+length] = a - b
			}
		}
	}
}

// TestFWHTBitIdenticalToRadix2 holds FWHT to the radix-2 loop bit for bit
// at every power-of-two n up to 4096. The fast cross-polytope keys are
// argmaxes over FWHT outputs, and durable stores persist those keys, so
// the transform must not move one bit. Inputs mix signed zeros, huge and
// subnormal magnitudes with ordinary values.
func TestFWHTBitIdenticalToRadix2(t *testing.T) {
	rng := xrand.New(13)
	special := []float64{0, math.Copysign(0, -1), 1e300, -1e300, 5e-324, -5e-324, 2.2250738585072e-308, -1e-310}
	for n := 1; n <= 4096; n <<= 1 {
		x := make([]float64, n)
		want := make([]float64, n)
		for trial := 0; trial < 200; trial++ {
			for i := range x {
				if trial%2 == 1 && rng.Uint64()%4 == 0 {
					x[i] = special[rng.Uint64()%uint64(len(special))]
				} else {
					x[i] = rng.NormFloat64()
				}
			}
			copy(want, x)
			radix2FWHT(want)
			FWHT(x)
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d trial %d: FWHT[%d] = %v (%#x), radix-2 loop gives %v (%#x)",
						n, trial, i, x[i], math.Float64bits(x[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}

// TestFWHTInvolution checks H(Hx) = n*x (H_n H_n = n I), the property that
// makes the sign-flip x Hadamard rounds pseudo-rotations: up to the
// uniform scale sqrt(n) per round, the transform is orthogonal.
func TestFWHTInvolution(t *testing.T) {
	f := func(seed uint64, logN uint8) bool {
		n := 1 << (logN%8 + 1)
		rng := xrand.New(seed)
		x := make([]float64, n)
		orig := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			orig[i] = x[i]
		}
		FWHT(x)
		FWHT(x)
		for i := range x {
			if math.Abs(x[i]-float64(n)*orig[i]) > 1e-9*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFWHTParseval checks orthogonality via energies: ||Hx||^2 = n ||x||^2.
func TestFWHTParseval(t *testing.T) {
	rng := xrand.New(12)
	n := 128
	x := make([]float64, n)
	var before float64
	for i := range x {
		x[i] = rng.NormFloat64()
		before += x[i] * x[i]
	}
	FWHT(x)
	var after float64
	for _, v := range x {
		after += v * v
	}
	if math.Abs(after/float64(n)-before) > 1e-9*before {
		t.Fatalf("Parseval violated: %v vs %v", after/float64(n), before)
	}
}

func TestFWHTPanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("should panic for length 6")
		}
	}()
	FWHT(make([]float64, 6))
}

func TestFWHTEmpty(t *testing.T) {
	FWHT(nil) // must not panic
}

func TestAcquirePaddedZeroPads(t *testing.T) {
	for _, n := range []int{1, 3, 5, 7, 9, 17, 31, 33, 64} {
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i + 1)
		}
		s := AcquirePadded(x)
		buf := s.Data()
		if len(buf) != NextPowerOfTwo(n) {
			t.Fatalf("n=%d: padded length %d, want %d", n, len(buf), NextPowerOfTwo(n))
		}
		for i := 0; i < n; i++ {
			if buf[i] != x[i] {
				t.Fatalf("n=%d: buf[%d] = %v, want %v", n, i, buf[i], x[i])
			}
		}
		for i := n; i < len(buf); i++ {
			if buf[i] != 0 {
				t.Fatalf("n=%d: pad position %d = %v, want 0", n, i, buf[i])
			}
		}
		s.Release()
	}
}

// TestAcquirePaddedReusedScratchIsClean dirties a pooled buffer, releases
// it, and checks that a smaller re-acquisition re-zeroes the pad region.
func TestAcquirePaddedReusedScratchIsClean(t *testing.T) {
	s := Acquire(64)
	for i := range s.Data() {
		s.Data()[i] = math.NaN()
	}
	s.Release()
	// The pool is not guaranteed to return the same buffer; loop a few
	// acquisitions so at least one reuse is overwhelmingly likely.
	for trial := 0; trial < 8; trial++ {
		s2 := AcquirePadded([]float64{1, 2, 3})
		buf := s2.Data()
		if len(buf) != 4 || buf[0] != 1 || buf[1] != 2 || buf[2] != 3 || buf[3] != 0 {
			t.Fatalf("trial %d: reused scratch not re-padded: %v", trial, buf)
		}
		s2.Release()
	}
}

// TestFWHTScratchPoolRace hammers the pooled scratch from many goroutines
// under -race: each round-trips a distinct vector through two transforms
// and checks it recovers the input, so cross-goroutine buffer sharing
// would corrupt results as well as trip the race detector.
func TestFWHTScratchPoolRace(t *testing.T) {
	const workers = 8
	const iters = 300
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(w) + 1)
			x := make([]float64, 24) // pads to 32
			for it := 0; it < iters; it++ {
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				s := AcquirePadded(x)
				buf := s.Data()
				FWHT(buf)
				FWHT(buf)
				for i := range x {
					if math.Abs(buf[i]/32-x[i]) > 1e-9 {
						errs <- fmt.Errorf("worker %d iter %d: scratch corrupted at %d", w, it, i)
						s.Release()
						return
					}
				}
				s.Release()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// --- Convolve edge cases ---

func TestConvolveLengthOne(t *testing.T) {
	got := ConvolveReal([]float64{3}, []float64{-2})
	if len(got) != 1 || math.Abs(got[0]+6) > 1e-12 {
		t.Fatalf("length-1 convolution = %v, want [-6]", got)
	}
	c := Convolve([]complex128{2i}, []complex128{3})
	if len(c) != 1 || cmplx.Abs(c[0]-6i) > 1e-12 {
		t.Fatalf("length-1 complex convolution = %v, want [6i]", c)
	}
}

func TestConvolveRealEmpty(t *testing.T) {
	if out := ConvolveReal(nil, nil); out != nil && len(out) != 0 {
		t.Fatalf("empty ConvolveReal = %v, want empty", out)
	}
}

// TestConvolvePaddingBoundary exercises lengths on both sides of a
// power-of-two boundary: 2^k works, 2^k+1 panics.
func TestConvolvePaddingBoundary(t *testing.T) {
	rng := xrand.New(6)
	for _, n := range []int{2, 4, 8} {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.Float64Range(-1, 1)
			b[i] = rng.Float64Range(-1, 1)
		}
		got := ConvolveReal(a, b)
		for k := 0; k < n; k++ {
			var want float64
			for i := 0; i < n; i++ {
				want += a[i] * b[(k-i+n)%n]
			}
			if math.Abs(got[k]-want) > 1e-9 {
				t.Fatalf("n=%d conv[%d] = %v, want %v", n, k, got[k], want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length 2^k+1 should panic")
		}
	}()
	ConvolveReal(make([]float64, 5), make([]float64, 5))
}

// BenchmarkFWHT transforms a fresh copy of one fixed input per call: the
// transform is unnormalized and scales the norm by sqrt(n), so repeating
// it in place would overflow to Inf and NaN within a few hundred calls
// and time NaN arithmetic from then on. n=256 is the padded size of the
// d=256 fast cross-polytope family.
func BenchmarkFWHT(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := xrand.New(1)
			in := make([]float64, n)
			for i := range in {
				in[i] = rng.NormFloat64()
			}
			x := make([]float64, n)
			b.ReportAllocs()
			for b.Loop() {
				copy(x, in)
				FWHT(x)
			}
		})
	}
}

// BenchmarkFFT1024 transforms a fresh copy of one fixed input per call,
// for the same reason as BenchmarkFWHT.
func BenchmarkFFT1024(b *testing.B) {
	rng := xrand.New(1)
	in := make([]complex128, 1024)
	for i := range in {
		in[i] = complex(rng.NormFloat64(), 0)
	}
	x := make([]complex128, len(in))
	b.ReportAllocs()
	for b.Loop() {
		copy(x, in)
		FFT(x)
	}
}
