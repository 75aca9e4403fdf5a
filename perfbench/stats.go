package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a p99 needs at least 1000 samples, a p50 at least 20.
const minBeyond = 10

// rank returns the nearest-rank index of the q-quantile in n sorted
// samples and how many samples lie beyond it.
func rank(n int, q float64) (idx, beyond int) {
	idx = int(math.Ceil(q*float64(n)-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	return idx, n - idx - 1
}

// quantile returns the nearest-rank q-quantile of xs. ok is false when
// fewer than minBeyond samples lie beyond it; such a percentile is not
// reported.
func quantile(xs []float64, q float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sorted(xs)
	idx, beyond := rank(len(s), q)
	return s[idx], beyond >= minBeyond
}

// tailQuantile returns the highest quantile at or below q that has
// minBeyond samples beyond it, and the quantile it used. It serves the
// per-layer tails whose sample count is set by the run's length (one
// tick every 50 ms gives too few ticks for a p99 in a short run). ok is
// false when even the median lacks the samples.
func tailQuantile(xs []float64, q float64) (v, used float64, ok bool) {
	n := len(xs)
	if lim := float64(n-minBeyond) / float64(n); n > 0 && lim < q {
		q = math.Floor(lim*1000) / 1000
	}
	if q < 0.5 {
		return 0, 0, false
	}
	v, ok = quantile(xs, q)
	return v, q, ok
}

// median returns the nearest-rank median without the tail rule; it
// summarises small fixed sets such as the three set-ups of one run.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	idx, _ := rank(len(s), 0.5)
	return s[idx]
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
