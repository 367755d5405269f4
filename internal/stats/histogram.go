package stats

import (
	"fmt"
	"math"
)

// Histogram accumulates samples into fixed-width buckets over [Min, Max);
// samples outside the range land in underflow/overflow buckets. It also
// tracks exact sum/min/max so means and percentiles-of-record survive
// whatever bucketing is chosen. This is what the latency-distribution
// figures (Figs. 6 and 7) are produced from.
type Histogram struct {
	name, desc string
	min, max   float64
	buckets    []uint64
	width      float64
	underflow  uint64
	overflow   uint64
	count      uint64
	sum        float64
	sumSq      float64
	sampleMin  float64
	sampleMax  float64
}

// NewHistogram registers a histogram with n equal buckets spanning [min, max).
func (r *Registry) NewHistogram(name, desc string, min, max float64, n int) *Histogram {
	if n <= 0 || max <= min {
		panic(fmt.Sprintf("stats: bad histogram shape [%g,%g)/%d", min, max, n))
	}
	h := &Histogram{
		name: r.join(name), desc: desc,
		min: min, max: max,
		buckets: make([]uint64, n),
		width:   (max - min) / float64(n),
	}
	h.Reset()
	r.add(h)
	return h
}

// Name implements Stat.
func (h *Histogram) Name() string { return h.name }

// Desc implements Stat.
func (h *Histogram) Desc() string { return h.desc }

// Reset implements Stat.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.underflow, h.overflow, h.count = 0, 0, 0
	h.sum, h.sumSq = 0, 0
	h.sampleMin, h.sampleMax = math.Inf(1), math.Inf(-1)
}

// Sample records one observation.
func (h *Histogram) Sample(v float64) {
	h.count++
	h.sum += v
	h.sumSq += v * v
	if v < h.sampleMin {
		h.sampleMin = v
	}
	if v > h.sampleMax {
		h.sampleMax = v
	}
	switch {
	case v < h.min:
		h.underflow++
	case v >= h.max:
		h.overflow++
	default:
		h.buckets[int((v-h.min)/h.width)]++
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the exact sample mean (0 with no samples).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// StdDev returns the population standard deviation of the samples.
func (h *Histogram) StdDev() float64 {
	if h.count == 0 {
		return 0
	}
	m := h.Mean()
	v := h.sumSq/float64(h.count) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Min returns the smallest observed sample (+Inf with no samples).
func (h *Histogram) Min() float64 { return h.sampleMin }

// Max returns the largest observed sample (-Inf with no samples).
func (h *Histogram) Max() float64 { return h.sampleMax }

// Buckets returns a copy of the bucket counts.
func (h *Histogram) Buckets() []uint64 {
	out := make([]uint64, len(h.buckets))
	copy(out, h.buckets)
	return out
}

// BucketBounds returns the [lo, hi) bounds of bucket i.
func (h *Histogram) BucketBounds(i int) (lo, hi float64) {
	lo = h.min + float64(i)*h.width
	return lo, lo + h.width
}

// Percentile returns an estimate of the p-th percentile (0 < p <= 100) from
// the bucketed data, using linear interpolation within the bucket.
func (h *Histogram) Percentile(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := p / 100 * float64(h.count)
	seen := float64(h.underflow)
	if seen >= target {
		return h.min
	}
	for i, c := range h.buckets {
		if seen+float64(c) >= target && c > 0 {
			lo, _ := h.BucketBounds(i)
			frac := (target - seen) / float64(c)
			return lo + frac*h.width
		}
		seen += float64(c)
	}
	return h.max
}

// Modes returns the indices of local-maximum buckets with at least minShare
// (0..1) of all samples. Two well-separated modes is how the paper describes
// the bimodal read-latency distribution of the write-drain policy (Fig. 7).
func (h *Histogram) Modes(minShare float64) []int {
	var modes []int
	if h.count == 0 {
		return modes
	}
	thresh := minShare * float64(h.count)
	for i, c := range h.buckets {
		if float64(c) < thresh {
			continue
		}
		left := uint64(0)
		if i > 0 {
			left = h.buckets[i-1]
		}
		right := uint64(0)
		if i < len(h.buckets)-1 {
			right = h.buckets[i+1]
		}
		if c >= left && c >= right && (c > left || c > right) {
			modes = append(modes, i)
		}
	}
	return modes
}

// Rows implements Stat: summary rows plus the non-empty buckets.
func (h *Histogram) Rows() []Row {
	rows := []Row{
		{h.name + ".samples", formatNumber(float64(h.count)), h.desc + " (count)"},
		{h.name + ".mean", formatNumber(h.Mean()), h.desc + " (mean)"},
	}
	if h.underflow > 0 {
		rows = append(rows, Row{h.name + ".underflow", formatNumber(float64(h.underflow)), "samples below range"})
	}
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		lo, hi := h.BucketBounds(i)
		rows = append(rows, Row{
			fmt.Sprintf("%s[%g,%g)", h.name, lo, hi),
			formatNumber(float64(c)),
			"bucket count",
		})
	}
	if h.overflow > 0 {
		rows = append(rows, Row{h.name + ".overflow", formatNumber(float64(h.overflow)), "samples above range"})
	}
	return rows
}
