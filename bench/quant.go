package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of values by linear
// interpolation between order statistics; NaN for an empty set. The input
// is not modified.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(values []float64) float64 { return quantile(values, 0.5) }

// best3 is the estimator of the two gated host timings: the mean of the
// three smallest of many repeated measurements of the identical computation.
// The benchmark's host is a small shared virtual machine whose neighbours
// slow it by 20-40 % most of the time and leave it alone for a few
// milliseconds now and then: the segment times have a sharp, repeatable floor
// (the undisturbed cost of the code) under a bulk that drifts by tens of
// percent between runs. Over about a thousand segments the floor repeats
// within 1-2 %, where the median and every fixed percentile move by 5-30 %.
// Three samples rather than one so that a single lucky reading on the
// two-worker workload, whose floor is not sharp, does not decide the result.
func best3(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	s = s[:min(3, len(s))]
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// iqrPct is the distance between the quartiles as a percentage of the median.
func iqrPct(values []float64) float64 {
	m := median(values)
	if len(values) == 0 || m == 0 {
		return 0
	}
	return 100 * (quantile(values, 0.75) - quantile(values, 0.25)) / m
}

// percentileLadder are the tail percentiles a timing may be reported at,
// each with the share of samples beyond it as one in beyond.
var percentileLadder = []struct {
	p      float64
	beyond int
}{{75, 4}, {90, 10}, {95, 20}, {99, 100}, {99.9, 1000}}

// topPercentile returns the highest percentile of the ladder that has at
// least ten of n samples beyond it, and false when even the lowest has not:
// a tail read off fewer samples than that is noise.
func topPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, l := range percentileLadder {
		if n >= 10*l.beyond {
			best, ok = l.p, true
		}
	}
	return best, ok
}
