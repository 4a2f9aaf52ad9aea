package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: fewer, and the figure is set by a handful of outliers.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// refuses when fewer than minTail samples lie beyond it, so p90 needs at
// least 100 samples.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile: q=%v of %d samples", q, n)
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if beyond := n - 1 - idx; beyond < minTail {
		return 0, fmt.Errorf("percentile: p%g of %d samples leaves %d beyond it, need %d", q*100, n, beyond, minTail)
	}
	s := sorted(xs)
	return s[idx], nil
}

// median returns the middle of xs (the mean of the two middles for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sum returns the total of xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
