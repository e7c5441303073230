package main

import (
	"math"
	"sort"
)

// samples is a set of raw observations. Percentiles are computed exactly
// from them, never from histogram buckets: obs.Histogram buckets are up to
// 12.5% wide, wider than the benchmark's bounds.
type samples []float64

// quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between the closest order statistics. NaN for an empty set.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func (s samples) median() float64 { return s.quantile(0.5) }
