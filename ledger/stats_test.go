package main

import (
	"math"
	"testing"
	"time"
)

func TestHighestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{199, 0, false},
		{200, 50, true},
		{499, 50, true},
		{500, 80, true},
		{999, 80, true},
		{1000, 90, true},
		{1999, 90, true},
		{2000, 95, true},
		{9999, 95, true},
		{10000, 99, true},
		{99999, 99, true},
		{100000, 99.9, true},
	} {
		got, ok := highestTail(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestTail(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < minBeyond {
			t.Errorf("n=%d: p%v has fewer than %d samples beyond it", c.n, got, minBeyond)
		}
	}
}

func TestQuantile(t *testing.T) {
	s := sortedMs([]time.Duration{4 * time.Millisecond, time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond})
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.99, 3.97}} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of an empty sample must be 0")
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4),
// the definition run-to-run spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
