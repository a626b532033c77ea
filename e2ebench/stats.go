package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a tail figure resting on fewer is one unlucky request.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// refuses to report a percentile with fewer than minBeyond samples
// above it, so p50 needs 20 samples, p75 40 and p90 100.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", q)
	}
	n := len(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d",
			100*q, n, max(n-rank, 0), minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle value of a small set of repeated measurements
// (set-up times, probe repetitions), with no sample-count rule: it
// summarizes repeats of one measurement, not a latency distribution.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// wilson is the Wilson score interval of k successes in n trials at z
// standard deviations. It is written out here rather than taken from
// internal/stats so that the output checks share no code with the
// program they check.
func wilson(k, n int, z float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	p := float64(k) / float64(n)
	nn := float64(n)
	den := 1 + z*z/nn
	mid := (p + z*z/(2*nn)) / den
	half := z * math.Sqrt(p*(1-p)/nn+z*z/(4*nn*nn)) / den
	return math.Max(0, mid-half), math.Min(1, mid+half)
}

// inWilsonBand reports whether k errors in n shots are consistent with
// the reference rate ref: the observed Wilson interval at z must meet
// the band ref·(1 ± tol). The relative slack tol lets a legitimate
// change in matching order move the rate a little; a broken decoder
// moves it by far more.
func inWilsonBand(k, n int, ref, z, tol float64) bool {
	lo, hi := wilson(k, n, z)
	return hi >= ref*(1-tol) && lo <= ref*(1+tol)
}
