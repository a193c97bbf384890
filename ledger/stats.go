package main

import (
	"math"
	"sort"
	"time"
)

// sortedMs converts durations to sorted milliseconds.
func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// quantile reads the q-quantile off a sorted sample by linear
// interpolation between the two closest ranks. It returns 0 for an
// empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// tailLadder is the set of percentiles a tail is reported at.
var tailLadder = []float64{99.9, 99, 95, 90, 80, 50}

// minBeyond is how many samples must lie beyond a reported tail
// percentile. With fewer, the percentile is decided by a handful of
// requests: on a shared two-core host one scheduling stall of 100-250 ms
// delays every request due during it, and with ten or thirty samples
// beyond (p99 of a 12 s run) such stalls moved the tail by up to 3x from
// run to run.
const minBeyond = 100

// highestTail returns the highest percentile of tailLadder that has at
// least minBeyond samples beyond it in a sample of n, and whether one
// exists.
func highestTail(n int) (float64, bool) {
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// beyond is how many of n samples lie above percentile p, rounded to
// absorb the binary error of 100-p (100-99.9 is not exactly 0.1).
func beyond(n int, p float64) float64 {
	return math.Round(float64(n)*(100-p)/100*1e6) / 1e6
}

// quartiles returns the first, second and third quartiles of values with
// the method of Python's statistics.quantiles(values, n=4) (the
// "exclusive" method), which is how run-to-run spread is judged. It needs
// at least two values; with one it returns that value three times.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median of values (0 for none).
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
