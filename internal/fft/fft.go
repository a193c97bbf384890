// Package fft implements an iterative radix-2 complex fast Fourier
// transform, circular convolution, and an in-place real fast
// Walsh-Hadamard transform. The complex transform is the computational
// substrate for TensorSketch (internal/sketch), which the paper cites
// ([42], Pham & Pagh) as the way to evaluate the Valiant polynomial
// embeddings of Theorem 5.1 in near-linear time; the Walsh-Hadamard round
// (FWHT) is the spectral half of the structured pseudo-rotations behind
// the fast cross-polytope families (internal/sphere, after Kennedy & Ward,
// "Fast Cross-Polytope LSH"), together with the pooled power-of-two-padded
// Scratch buffers that keep the hashing hot path allocation-free.
package fft

import (
	"math"
	"sync"
)

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// NextPowerOfTwo returns the smallest power of two >= n (and >= 1).
func NextPowerOfTwo(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// FFT computes the in-place forward discrete Fourier transform of x.
// len(x) must be a power of two; it panics otherwise.
func FFT(x []complex128) { transform(x, false) }

// IFFT computes the in-place inverse discrete Fourier transform of x,
// including the 1/n scaling. len(x) must be a power of two.
func IFFT(x []complex128) { transform(x, true) }

func transform(x []complex128, inverse bool) {
	n := len(x)
	if n == 0 {
		return
	}
	if !IsPowerOfTwo(n) {
		panic("fft: length must be a power of two")
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Cooley-Tukey butterflies.
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inverse {
			ang = -ang
		}
		wl := complex(math.Cos(ang), math.Sin(ang))
		for start := 0; start < n; start += length {
			w := complex(1, 0)
			half := length / 2
			for k := 0; k < half; k++ {
				u := x[start+k]
				v := x[start+k+half] * w
				x[start+k] = u + v
				x[start+k+half] = u - v
				w *= wl
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
}

// FWHT computes the in-place unnormalized fast Walsh-Hadamard transform of
// x: x <- H_n x with H_n the {-1,+1} Hadamard matrix of order n = len(x),
// which must be a power of two (it panics otherwise). The transform is
// O(n log n), touches no memory beyond x, and performs no allocations.
//
// H_n is symmetric with H_n H_n = n I, so applying FWHT twice multiplies
// the input by n; dividing by sqrt(n) makes it orthonormal. The hashing
// pipelines skip the normalization entirely because a uniform positive
// scale changes neither an argmax nor a sign.
//
// The log2(n) butterfly levels run in as few sweeps over x as possible:
// one radix-8 pass does the levels of span 1, 2 and 4 in registers,
// radix-4 passes then do two levels per sweep, and a radix-2 pass
// finishes an odd leftover level (n < 8 takes only the last two kinds).
// Each level computes every output as the same sum or difference of the
// same two operands as the textbook one-level-per-sweep loop, in the
// same level order, so the result is bit-identical to it.
func FWHT(x []float64) {
	n := len(x)
	if n == 0 {
		return
	}
	if !IsPowerOfTwo(n) {
		panic("fft: length must be a power of two")
	}
	h := 1 // span of the next level to apply
	if n >= 8 {
		fwhtRadix8(x)
		h = 8
	}
	for ; 4*h <= n; h *= 4 {
		fwhtRadix4(x, h)
	}
	if 2*h == n {
		fwhtRadix2(x[:h], x[h:])
	}
}

// fwhtRadix8 applies the butterfly levels of span 1, 2 and 4 to every
// aligned block of eight; len(x) is a multiple of 8.
func fwhtRadix8(x []float64) {
	for ; len(x) >= 8; x = x[8:] {
		v := (*[8]float64)(x)
		b0, b1 := v[0]+v[1], v[0]-v[1]
		b2, b3 := v[2]+v[3], v[2]-v[3]
		b4, b5 := v[4]+v[5], v[4]-v[5]
		b6, b7 := v[6]+v[7], v[6]-v[7]
		c0, c2 := b0+b2, b0-b2
		c1, c3 := b1+b3, b1-b3
		c4, c6 := b4+b6, b4-b6
		c5, c7 := b5+b7, b5-b7
		v[0], v[4] = c0+c4, c0-c4
		v[1], v[5] = c1+c5, c1-c5
		v[2], v[6] = c2+c6, c2-c6
		v[3], v[7] = c3+c7, c3-c7
	}
}

// fwhtRadix4 applies the butterfly levels of span h and 2h in one sweep:
// each block of 4h splits into quarters q0..q3, level h pairs q0 with q1
// and q2 with q3, and level 2h pairs the results across halves.
// len(x) is a multiple of 4h.
func fwhtRadix4(x []float64, h int) {
	for s := 0; s+4*h <= len(x); s += 4 * h {
		q0 := x[s : s+h]
		q1 := x[s+h : s+2*h][:len(q0)]
		q2 := x[s+2*h : s+3*h][:len(q0)]
		q3 := x[s+3*h : s+4*h][:len(q0)]
		for k := range q0 {
			b0, b1 := q0[k]+q1[k], q0[k]-q1[k]
			b2, b3 := q2[k]+q3[k], q2[k]-q3[k]
			q0[k], q2[k] = b0+b2, b0-b2
			q1[k], q3[k] = b1+b3, b1-b3
		}
	}
}

// fwhtRadix2 applies the top butterfly level, pairing lo[k] with hi[k];
// the halves have equal length.
func fwhtRadix2(lo, hi []float64) {
	hi = hi[:len(lo)]
	for k := range lo {
		a, b := lo[k], hi[k]
		lo[k], hi[k] = a+b, a-b
	}
}

// Scratch is a pooled real work buffer for in-place transform rounds on
// the hashing hot path. Buffers are pooled process-wide (not per hasher)
// because one hasher may be shared by many concurrent query workers; a
// warmed pool makes Acquire/Release allocation-free in steady state.
type Scratch struct{ buf []float64 }

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// Acquire returns a pooled Scratch whose buffer has length
// NextPowerOfTwo(n) and unspecified contents. Callers that fill the whole
// buffer themselves use this; callers starting from a point use
// AcquirePadded. Release the Scratch when done.
func Acquire(n int) *Scratch {
	s := scratchPool.Get().(*Scratch)
	p := NextPowerOfTwo(n)
	if cap(s.buf) < p {
		s.buf = make([]float64, p)
	}
	s.buf = s.buf[:p]
	return s
}

// AcquirePadded returns a pooled Scratch holding a copy of x zero-padded
// to length NextPowerOfTwo(len(x)), ready for FWHT/FFT rounds. The pad
// region is re-zeroed on every acquisition, so reused pool buffers never
// leak a previous caller's values.
func AcquirePadded(x []float64) *Scratch {
	s := Acquire(len(x))
	copy(s.buf, x)
	for i := len(x); i < len(s.buf); i++ {
		s.buf[i] = 0
	}
	return s
}

// Data returns the scratch buffer. It is valid only until Release.
func (s *Scratch) Data() []float64 { return s.buf }

// Release returns the Scratch to the pool. The buffer must not be used
// after Release.
func (s *Scratch) Release() { scratchPool.Put(s) }

// Convolve returns the circular convolution of a and b, which must have the
// same power-of-two length n: out[k] = sum_i a[i] * b[(k-i) mod n].
func Convolve(a, b []complex128) []complex128 {
	if len(a) != len(b) {
		panic("fft: convolution length mismatch")
	}
	n := len(a)
	if n == 0 {
		return nil
	}
	if !IsPowerOfTwo(n) {
		panic("fft: length must be a power of two")
	}
	fa := make([]complex128, n)
	fb := make([]complex128, n)
	copy(fa, a)
	copy(fb, b)
	FFT(fa)
	FFT(fb)
	for i := range fa {
		fa[i] *= fb[i]
	}
	IFFT(fa)
	return fa
}

// ConvolveReal circularly convolves real-valued sequences of equal
// power-of-two length and returns the real part of the result.
func ConvolveReal(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("fft: convolution length mismatch")
	}
	ca := make([]complex128, len(a))
	cb := make([]complex128, len(b))
	for i := range a {
		ca[i] = complex(a[i], 0)
		cb[i] = complex(b[i], 0)
	}
	out := Convolve(ca, cb)
	res := make([]float64, len(a))
	for i, v := range out {
		res[i] = real(v)
	}
	return res
}

// PointwiseMulFFT computes the element-wise product of the FFTs of the given
// real sequences and returns the inverse transform: the circular convolution
// of all of them. All sequences must share the same power-of-two length.
// This is the core TensorSketch operation for degree-k monomials.
func PointwiseMulFFT(seqs ...[]float64) []float64 {
	if len(seqs) == 0 {
		return nil
	}
	n := len(seqs[0])
	if !IsPowerOfTwo(n) {
		panic("fft: length must be a power of two")
	}
	acc := make([]complex128, n)
	for i := range acc {
		acc[i] = complex(1, 0)
	}
	buf := make([]complex128, n)
	for _, s := range seqs {
		if len(s) != n {
			panic("fft: length mismatch")
		}
		for i, v := range s {
			buf[i] = complex(v, 0)
		}
		FFT(buf)
		for i := range acc {
			acc[i] *= buf[i]
		}
	}
	IFFT(acc)
	out := make([]float64, n)
	for i, v := range acc {
		out[i] = real(v)
	}
	return out
}
