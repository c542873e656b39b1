// Package stats provides the small statistical toolbox the methodology and
// the figure harness need: integer histograms, series summaries,
// autocorrelation and peak detection. Only the standard library is used.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Hist is a sparse integer histogram.
type Hist struct {
	counts map[int]uint64
	total  uint64
}

// NewHist returns an empty histogram.
func NewHist() *Hist { return &Hist{counts: make(map[int]uint64)} }

// FromDense builds a histogram from a dense count slice where counts[v]
// is the number of observations of value v (the simulator's hot-path
// representation). Zero entries are skipped.
func FromDense(counts []uint64) *Hist {
	h := NewHist()
	for v, c := range counts {
		if c != 0 {
			h.AddN(v, c)
		}
	}
	return h
}

// Add records one observation of v.
func (h *Hist) Add(v int) { h.AddN(v, 1) }

// AddN records n observations of v.
func (h *Hist) AddN(v int, n uint64) {
	h.counts[v] += n
	h.total += n
}

// Total returns the number of observations.
func (h *Hist) Total() uint64 { return h.total }

// Count returns the observations of value v.
func (h *Hist) Count(v int) uint64 { return h.counts[v] }

// Values returns the observed values in ascending order.
func (h *Hist) Values() []int {
	vs := make([]int, 0, len(h.counts))
	for v := range h.counts {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return vs
}

// Min returns the smallest observed value (ok=false when empty).
func (h *Hist) Min() (int, bool) {
	if h.total == 0 {
		return 0, false
	}
	vs := h.Values()
	return vs[0], true
}

// Max returns the largest observed value (ok=false when empty).
func (h *Hist) Max() (int, bool) {
	if h.total == 0 {
		return 0, false
	}
	vs := h.Values()
	return vs[len(vs)-1], true
}

// Mode returns the most frequent value and its share of observations
// (ok=false when empty). Ties resolve to the smallest value.
func (h *Hist) Mode() (value int, frac float64, ok bool) {
	if h.total == 0 {
		return 0, 0, false
	}
	var best int
	var bestCount uint64
	for _, v := range h.Values() {
		if c := h.counts[v]; c > bestCount {
			best, bestCount = v, c
		}
	}
	return best, float64(bestCount) / float64(h.total), true
}

// Mean returns the average observed value.
func (h *Hist) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum float64
	for v, c := range h.counts {
		sum += float64(v) * float64(c)
	}
	return sum / float64(h.total)
}

// Percentile returns the smallest value v such that at least p (0..1) of
// the observations are ≤ v.
func (h *Hist) Percentile(p float64) (int, bool) {
	if h.total == 0 {
		return 0, false
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	need := uint64(math.Ceil(p * float64(h.total)))
	var cum uint64
	for _, v := range h.Values() {
		cum += h.counts[v]
		if cum >= need {
			return v, true
		}
	}
	vs := h.Values()
	return vs[len(vs)-1], true
}

// String renders the histogram as aligned "value count share" rows with a
// proportional bar, suitable for terminal figures.
func (h *Hist) String() string {
	if h.total == 0 {
		return "(empty histogram)\n"
	}
	var b strings.Builder
	_, maxFrac, _ := h.Mode()
	for _, v := range h.Values() {
		frac := float64(h.counts[v]) / float64(h.total)
		barLen := 0
		if maxFrac > 0 {
			barLen = int(frac / maxFrac * 40)
		}
		fmt.Fprintf(&b, "%6d %10d %6.2f%% %s\n", v, h.counts[v], frac*100, strings.Repeat("#", barLen))
	}
	return b.String()
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 {
	return StdAbout(xs, Mean(xs))
}

// StdAbout is Std for a caller that already holds the mean m of xs.
func StdAbout(xs []float64, m float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// MinMax returns the extrema of xs; both zero for empty input.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Autocorr returns the normalized autocorrelation of xs at the given lag:
// mean removed, divided by variance, with the unbiased per-sample
// normalization (the overlap shrinks with lag, so the biased estimator
// would systematically under-read long periods). It returns 0 for
// degenerate inputs (constant series or lag out of range).
func Autocorr(xs []float64, lag int) float64 {
	n := len(xs)
	if lag <= 0 || lag >= n {
		return 0
	}
	m := Mean(xs)
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - m
		den += d * d
	}
	if den == 0 {
		return 0
	}
	for i := 0; i+lag < n; i++ {
		num += (xs[i] - m) * (xs[i+lag] - m)
	}
	return (num / float64(n-lag)) / (den / float64(n))
}

// LocalMaxima returns the indices of strict-or-plateau local maxima of xs:
// points not lower than both neighbors and strictly higher than at least
// one. Plateaus contribute their first index.
func LocalMaxima(xs []float64) []int {
	var out []int
	n := len(xs)
	for i := 1; i < n-1; i++ {
		if xs[i] < xs[i-1] || xs[i] < xs[i+1] {
			continue
		}
		if xs[i] > xs[i-1] || xs[i] > xs[i+1] {
			// Skip plateau continuations.
			if xs[i] == xs[i-1] && i >= 2 && xs[i-1] >= xs[i-2] {
				continue
			}
			out = append(out, i)
		}
	}
	return out
}

// MedianInt returns the median of xs (0 for empty input); even-length
// inputs return the lower middle element.
func MedianInt(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int(nil), xs...)
	sort.Ints(s)
	return s[(len(s)-1)/2]
}

// Diffs returns the successive differences of xs.
func Diffs(xs []int) []int {
	if len(xs) < 2 {
		return nil
	}
	out := make([]int, len(xs)-1)
	for i := 1; i < len(xs); i++ {
		out[i-1] = xs[i] - xs[i-1]
	}
	return out
}

// ToFloats converts an integer series.
func ToFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
