package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond a reported tail value: a
// percentile with fewer samples past it is noise, not a tail.
const tailBeyond = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples.
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

// tailLadder are the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile of the ladder (by nearest rank) that
// still has at least beyond samples above it, and which percentile that
// is. With too few samples for any, it returns the median: the sample is
// too small to have a tail.
func tail(xs []float64, beyond int) (v, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sorted(xs)
	for _, p := range tailLadder {
		i := max(int(math.Ceil(p*float64(n)/100-1e-9))-1, 0) // the epsilon absorbs p's rounding
		if n-1-i >= beyond {
			return s[i], p
		}
	}
	return median(xs), 50
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
