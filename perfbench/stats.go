package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark will label it: a "p99" of 20 samples is just the maximum.
const minBeyond = 10

// quantile returns the p-th percentile (nearest rank) of xs, which it
// sorts in place.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p/100*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// labelled reports whether n samples leave at least minBeyond of them
// beyond the p-th percentile.
func labelled(n int, p float64) bool {
	return n-int(math.Ceil(p/100*float64(n))) >= minBeyond
}

// tail describes a sample set beside its headline number: the highest
// of p90, p99 and p99.9 that has minBeyond samples beyond it, and the
// sample count.
func tail(xs []float64) string {
	best := ""
	for _, p := range []float64{90, 99, 99.9} {
		if labelled(len(xs), p) {
			best = fmt.Sprintf("p%g=%.4g ", p, quantile(xs, p))
		}
	}
	return fmt.Sprintf("%sn=%d", best, len(xs))
}

// ratio returns a/b, or NaN when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}
