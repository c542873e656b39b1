// Package core implements the paper's contribution: the measurement-based
// methodology that derives the round-robin upper-bound delay ubd from the
// saw-tooth period of rsk-nop slowdowns (§4), without knowing any bus
// latency. It consumes a Runner — an abstraction of the target platform
// offering only what a real COTS board offers: execution-time measurements
// and two bus-utilization PMCs.
package core

import (
	"fmt"
	"math"

	"rrbus/internal/stats"
)

// PeriodMethod names one period-detection strategy.
type PeriodMethod string

const (
	// MethodExact is the literal Eq. 3: the smallest shift P under which
	// the slowdown series repeats within tolerance.
	MethodExact PeriodMethod = "exact"
	// MethodAutocorr finds the first local maximum of the normalized
	// autocorrelation.
	MethodAutocorr PeriodMethod = "autocorr"
	// MethodPeaks measures the median spacing between slowdown peaks.
	MethodPeaks PeriodMethod = "peaks"
	// MethodModelFit fits Eq. 2 directly over candidate ubd values; it is
	// the only method immune to δnop > 1 aliasing.
	MethodModelFit PeriodMethod = "modelfit"
)

// ExactPeriod implements Eq. 3 on a slowdown series d (index i ↔ k=kmin+i):
// it returns the smallest period P such that |d[i]-d[i+P]| stays within tol
// times the series amplitude for every overlapping i. It returns 0 when no
// period qualifies.
//
// A structural precondition guards against reading a period into a partial
// first tooth: the saw-tooth only reveals its period at a wrap-around, so
// the series must contain at least one significant rise. Without this, a
// long monotone ramp (large ubd, sweep still inside the first period) would
// sneak under the tolerance at P = 1, because its per-step change is a
// vanishing fraction of the amplitude.
func ExactPeriod(d []float64, tol float64) int {
	n := len(d)
	if n < 4 {
		return 0
	}
	lo, hi := stats.MinMax(d)
	amp := hi - lo
	if amp == 0 {
		return 0 // constant series: no saw-tooth, no period
	}
	lim := tol * amp
	rises := false
	for i := 0; i+1 < n; i++ {
		if d[i+1]-d[i] > lim {
			rises = true
			break
		}
	}
	if !rises {
		return 0 // still descending the first tooth: period unobservable
	}
	for p := 1; p <= n/2; p++ {
		ok := true
		for i := 0; i+p < n; i++ {
			if math.Abs(d[i]-d[i+p]) > lim {
				ok = false
				break
			}
		}
		if ok {
			return p
		}
	}
	return 0
}

// AutocorrPeriod returns the lag of the first local maximum of the
// normalized autocorrelation with correlation at least minCorr, or 0.
func AutocorrPeriod(d []float64, minCorr float64) int {
	n := len(d)
	if n < 6 {
		return 0
	}
	maxLag := n / 2
	ac := make([]float64, maxLag+1)
	for lag := 1; lag <= maxLag; lag++ {
		ac[lag] = stats.Autocorr(d, lag)
	}
	for lag := 2; lag < maxLag; lag++ {
		if ac[lag] >= minCorr && ac[lag] > ac[lag-1] && ac[lag] >= ac[lag+1] {
			return lag
		}
	}
	// Monotone rise up to the edge: the first period may sit exactly at
	// maxLag.
	if maxLag >= 2 && ac[maxLag] >= minCorr && ac[maxLag] > ac[maxLag-1] {
		return maxLag
	}
	return 0
}

// PeakPeriod returns the median spacing between local maxima of the series,
// or 0 when fewer than two peaks exist.
func PeakPeriod(d []float64) int {
	peaks := stats.LocalMaxima(d)
	if len(peaks) < 2 {
		return 0
	}
	return stats.MedianInt(stats.Diffs(peaks))
}

// ModelFitUBD fits the analytic synchrony model of Eq. 2 to the slowdown
// series: slowdown(k) is proportional to γ(δ0 + k*δnop) up to an affine
// transform, with δ0 (the kernel's intrinsic injection time) unknown. It
// scans ubd ∈ [2, maxUBD] and δ0 ∈ [0, ubd), z-scores both series, and
// returns the ubd minimizing the residual along with that residual
// (normalized per sample). deltaNop is rounded to the nearest integer
// cycle. Unlike the period-based methods this resolves δnop > 1 aliasing:
// the sampled saw-tooth values themselves, not just their repetition
// distance, must match.
//
// The scan allocates only the observed z-score and one prediction
// buffer. Each prediction walks δ mod ubd as a running residue instead of
// dividing per sample, and is z-scored inside the residual sum. The float
// operations and their order are those of a separate z-score pass, so the
// residual is the same to the bit.
func ModelFitUBD(d []float64, kmin int, deltaNop float64, maxUBD int) (ubd int, residual float64) {
	n := len(d)
	if n < 6 || maxUBD < 2 {
		return 0, math.Inf(1)
	}
	dn := int(math.Round(deltaNop))
	if dn < 1 {
		dn = 1
	}
	obs := zscore(d)
	if obs == nil {
		return 0, math.Inf(1)
	}
	if kmin < 0 {
		panic(fmt.Sprintf("core: negative kmin %d", kmin))
	}
	// A candidate is only identifiable when the sweep spans at least two
	// of its periods in δ-space (n*dn cycles): otherwise a partial
	// descending ramp fits every larger ubd equally well (ill-posed).
	if cap := n * dn / 2; maxUBD > cap {
		maxUBD = cap
	}
	nf := float64(n)
	best, bestRes := 0, math.Inf(1)
	pred := make([]float64, n)
	for cand := 2; cand <= maxUBD; cand++ {
		step := dn % cand
		for d0 := 0; d0 < cand; d0++ {
			// pred[i] = γ(d0+(kmin+i)·dn, cand), with r = δ mod cand.
			// Every partial sum is an integer far below 2^53, so the
			// integer sum equals the sequential float64 sum exactly.
			r := (d0 + kmin*dn) % cand
			sum := 0
			for i := range pred {
				var g int
				switch {
				case r != 0:
					g = cand - r
				case i == 0 && d0 == 0 && kmin == 0:
					g = cand // γ(0) = ubd
				}
				pred[i] = float64(g)
				sum += g
				if r += step; r >= cand {
					r -= cand
				}
			}
			m := float64(sum) / nf
			sd := stats.StdAbout(pred, m)
			if sd == 0 {
				continue
			}
			var sse float64
			for i, x := range pred {
				diff := obs[i] - (x-m)/sd
				sse += diff * diff
			}
			sse /= nf
			if sse < bestRes {
				best, bestRes = cand, sse
			}
		}
	}
	return best, bestRes
}

// zscore returns the standardized series, or nil for constant input.
func zscore(d []float64) []float64 {
	m := stats.Mean(d)
	s := stats.StdAbout(d, m)
	if s == 0 {
		return nil
	}
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = (x - m) / s
	}
	return out
}
