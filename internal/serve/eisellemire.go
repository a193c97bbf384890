// Copyright 2020 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package serve

// eiselLemire64 is a copy of the Eisel-Lemire conversion in the Go
// standard library's strconv/eisel_lemire.go, the fast path of
// strconv.ParseFloat, published in 2020 and discussed extensively at
// https://nigeltao.github.io/blog/2020/eisel-lemire.html
//
// The original C++ implementation is at
// https://github.com/lemire/fast_double_parser/blob/644bef4306059d3be01a04e77d3cc84b379c596f/include/fast_double_parser.h#L840
//
// The Go implementation closely follows the C re-implementation at
// https://github.com/google/wuffs/blob/ba3818cb6b473a2ed0b38ecfc07dbbd3a97e8ae7/internal/cgen/base/floatconv-submodule-code.c#L990
//
// Only its table of powers of ten differs: strconv lists it, while
// powersOfTen computes the same 128-bit values once at package init.

import (
	"math"
	"math/big"
	"math/bits"
)

// eiselLemire64 converts man × 10^exp10, negated if neg, to the nearest
// float64, or reports ok=false where it cannot decide the rounding or
// the result is subnormal, infinite or outside the table's range.
// Where ok is true the result is the correctly rounded one, which is
// what strconv.ParseFloat returns for the same decimal.
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// The terse comments in this function body refer to sections of the
	// https://nigeltao.github.io/blog/2020/eisel-lemire.html blog post.

	// Exp10 Range.
	if man == 0 {
		if neg {
			f = math.Float64frombits(0x8000000000000000) // Negative zero.
		}
		return f, true
	}
	if exp10 < detailedPowersOfTenMinExp10 || detailedPowersOfTenMaxExp10 < exp10 {
		return 0, false
	}

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, detailedPowersOfTen[exp10-detailedPowersOfTenMinExp10][1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, detailedPowersOfTen[exp10-detailedPowersOfTenMinExp10][0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// retExp2 is a uint64. Zero or underflow means that we're in subnormal
	// float64 space. 0x7FF or above means that we're in Inf/NaN float64 space.
	//
	// The if block is equivalent to (but has fewer branches than):
	//   if retExp2 <= 0 || retExp2 >= 0x7FF { etc }
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}

// detailedPowersOfTen{Min,Max}Exp10 is the power of 10 represented by the
// first and last rows of detailedPowersOfTen. Both bounds are inclusive.
const (
	detailedPowersOfTenMinExp10 = -348
	detailedPowersOfTenMaxExp10 = +347
)

// detailedPowersOfTen holds 128-bit mantissa approximations (rounded down)
// to the powers of 10, {low 64 bits, high 64 bits}, with the top bit of
// the high word set. For example:
//
//   - 1e43 ≈ (0xE596B7B0_C643C719                   * (2 ** 79))
//   - 1e43 = (0xE596B7B0_C643C719_6D9CCD05_D0000000 * (2 ** 15))
//
// The exponents are implied by a linear expression with slope
// 217706.0/65536.0 ≈ log(10)/log(2).
var detailedPowersOfTen = powersOfTen()

// powersOfTen computes detailedPowersOfTen exactly with math/big: each
// power of ten, or 2^k over it for a negative power, is scaled by a power
// of two to exactly 128 significant bits and truncated.
func powersOfTen() *[detailedPowersOfTenMaxExp10 - detailedPowersOfTenMinExp10 + 1][2]uint64 {
	var t [detailedPowersOfTenMaxExp10 - detailedPowersOfTenMinExp10 + 1][2]uint64
	ten := big.NewInt(10)
	mask := new(big.Int).SetUint64(math.MaxUint64)
	p, m := new(big.Int), new(big.Int)
	for e := detailedPowersOfTenMinExp10; e <= detailedPowersOfTenMaxExp10; e++ {
		if e >= 0 {
			p.Exp(ten, big.NewInt(int64(e)), nil)
			if s := p.BitLen() - 128; s > 0 {
				p.Rsh(p, uint(s))
			} else {
				p.Lsh(p, uint(-s))
			}
		} else {
			// 2^k / 10^-e with k chosen so the quotient has 128 bits:
			// 10^-e has b bits, so 2^(b+127) / 10^-e lies in [2^127, 2^128).
			m.Exp(ten, big.NewInt(int64(-e)), nil)
			p.Lsh(big.NewInt(1), uint(m.BitLen()+127))
			p.Quo(p, m)
		}
		row := &t[e-detailedPowersOfTenMinExp10]
		row[0] = new(big.Int).And(p, mask).Uint64()
		row[1] = new(big.Int).Rsh(p, 64).Uint64()
	}
	return &t
}
