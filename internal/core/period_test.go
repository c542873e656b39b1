package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rrbus/internal/analytic"
	"rrbus/internal/stats"
)

// sawtoothSeries builds a slowdown-like series proportional to
// γ(δ0 + k·δnop) for k = kmin.., with optional additive noise amplitude.
func sawtoothSeries(delta0, deltaNop, ubd, kmin, n int, noise float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		g := analytic.Gamma(delta0+(kmin+i)*deltaNop, ubd)
		out[i] = 1000*float64(g) + noise*(rng.Float64()*2-1)
	}
	return out
}

func TestExactPeriodCleanSawtooth(t *testing.T) {
	for _, ubd := range []int{6, 9, 27, 35} {
		d := sawtoothSeries(1, 1, ubd, 1, 3*ubd, 0, 1)
		if got := ExactPeriod(d, 0.02); got != ubd {
			t.Errorf("ubd=%d: exact period = %d", ubd, got)
		}
	}
}

func TestExactPeriodWithNoise(t *testing.T) {
	// 2% amplitude tolerance absorbs small measurement jitter.
	d := sawtoothSeries(1, 1, 27, 1, 81, 200, 7) // noise ≈ 0.8% of amplitude
	if got := ExactPeriod(d, 0.02); got != 27 {
		t.Errorf("noisy exact period = %d", got)
	}
}

func TestExactPeriodRejectsDegenerate(t *testing.T) {
	if got := ExactPeriod([]float64{1, 2, 3}, 0.02); got != 0 {
		t.Errorf("short series period = %d", got)
	}
	flat := make([]float64, 50)
	for i := range flat {
		flat[i] = 42
	}
	if got := ExactPeriod(flat, 0.02); got != 0 {
		t.Errorf("constant series period = %d (flat slowdown has no saw-tooth)", got)
	}
	// Monotone series: no period fits.
	mono := make([]float64, 40)
	for i := range mono {
		mono[i] = float64(i * i)
	}
	if got := ExactPeriod(mono, 0.02); got != 0 {
		t.Errorf("monotone series period = %d", got)
	}
}

func TestAutocorrPeriod(t *testing.T) {
	d := sawtoothSeries(1, 1, 27, 1, 108, 0, 1)
	if got := AutocorrPeriod(d, 0.8); got != 27 {
		t.Errorf("autocorr period = %d", got)
	}
	if got := AutocorrPeriod(d[:5], 0.8); got != 0 {
		t.Errorf("short series = %d", got)
	}
	flat := make([]float64, 60)
	if got := AutocorrPeriod(flat, 0.8); got != 0 {
		t.Errorf("flat series = %d", got)
	}
}

func TestPeakPeriod(t *testing.T) {
	d := sawtoothSeries(1, 1, 27, 1, 108, 0, 1)
	if got := PeakPeriod(d); got != 27 {
		t.Errorf("peak period = %d", got)
	}
	if got := PeakPeriod([]float64{1, 2, 1}); got != 0 {
		t.Errorf("single peak = %d", got)
	}
}

func TestModelFitExact(t *testing.T) {
	for _, tc := range []struct {
		delta0, ubd int
	}{{1, 27}, {4, 27}, {2, 9}, {1, 35}} {
		d := sawtoothSeries(tc.delta0, 1, tc.ubd, 1, 3*tc.ubd, 0, 1)
		got, res := ModelFitUBD(d, 1, 1.0, 80)
		if got != tc.ubd {
			t.Errorf("δ0=%d ubd=%d: fit = %d (residual %.4f)", tc.delta0, tc.ubd, got, res)
		}
		if res > 1e-9 {
			t.Errorf("clean fit residual = %g", res)
		}
	}
}

func TestModelFitResolvesAliasing(t *testing.T) {
	// δnop = 2 with ubd = 27: the k-period is 27, so period×δnop reads
	// 54 — double. The model fit must still recover 27 because the
	// sampled VALUES only match ubd = 27.
	d := sawtoothSeries(1, 2, 27, 1, 54, 0, 1)
	if p := ExactPeriod(d, 0.02); p != 27 {
		t.Fatalf("precondition: sampled k-period = %d, want 27", p)
	}
	got, _ := ModelFitUBD(d, 1, 2.0, 80)
	if got != 27 {
		t.Errorf("aliased fit = %d, want 27", got)
	}
}

func TestModelFitDegenerate(t *testing.T) {
	if got, res := ModelFitUBD([]float64{1, 2}, 1, 1, 50); got != 0 || !math.IsInf(res, 1) {
		t.Error("short series must not fit")
	}
	flat := make([]float64, 40)
	if got, _ := ModelFitUBD(flat, 1, 1, 50); got != 0 {
		t.Error("flat series must not fit")
	}
}

// TestPropDetectorsAgreeOnCleanData: on noiseless synthetic saw-tooths with
// δnop = 1, all three period detectors and the model fit agree with the
// ground-truth ubd.
func TestPropDetectorsAgreeOnCleanData(t *testing.T) {
	f := func(ubdRaw, d0Raw uint8) bool {
		ubd := 4 + int(ubdRaw)%40
		delta0 := 1 + int(d0Raw)%ubd
		d := sawtoothSeries(delta0, 1, ubd, 1, 3*ubd, 0, int64(ubd)*31+int64(delta0))
		if ExactPeriod(d, 0.02) != ubd {
			return false
		}
		if AutocorrPeriod(d, 0.8) != ubd {
			return false
		}
		if PeakPeriod(d) != ubd {
			return false
		}
		fit, _ := ModelFitUBD(d, 1, 1, 3*ubd+16)
		return fit == ubd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropExactPeriodIsMinimal: ExactPeriod never returns a multiple of a
// smaller valid period.
func TestPropExactPeriodIsMinimal(t *testing.T) {
	f := func(ubdRaw uint8) bool {
		ubd := 3 + int(ubdRaw)%30
		d := sawtoothSeries(1, 1, ubd, 1, 4*ubd, 0, 9)
		p := ExactPeriod(d, 0.02)
		if p != ubd {
			return false
		}
		// No smaller shift may satisfy the tolerance.
		lo, hi := stats.MinMax(d)
		lim := 0.02 * (hi - lo)
		for q := 1; q < p; q++ {
			ok := true
			for i := 0; i+q < len(d); i++ {
				if math.Abs(d[i]-d[i+q]) > lim {
					ok = false
					break
				}
			}
			if ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// modelFitUBDRef is ModelFitUBD as it was before the allocation-free
// rewrite, kept verbatim (with its z-score helper) as the oracle the
// rewrite must match bit for bit.
func modelFitUBDRef(d []float64, kmin int, deltaNop float64, maxUBD int) (ubd int, residual float64) {
	n := len(d)
	if n < 6 || maxUBD < 2 {
		return 0, math.Inf(1)
	}
	dn := int(math.Round(deltaNop))
	if dn < 1 {
		dn = 1
	}
	obs := zscoreRef(d)
	if obs == nil {
		return 0, math.Inf(1)
	}
	// A candidate is only identifiable when the sweep spans at least two
	// of its periods in δ-space (n*dn cycles): otherwise a partial
	// descending ramp fits every larger ubd equally well (ill-posed).
	if cap := n * dn / 2; maxUBD > cap {
		maxUBD = cap
	}
	best, bestRes := 0, math.Inf(1)
	pred := make([]float64, n)
	for cand := 2; cand <= maxUBD; cand++ {
		for d0 := 0; d0 < cand; d0++ {
			for i := 0; i < n; i++ {
				pred[i] = float64(analytic.Gamma(d0+(kmin+i)*dn, cand))
			}
			zp := zscoreRef(pred)
			if zp == nil {
				continue
			}
			var sse float64
			for i := range obs {
				diff := obs[i] - zp[i]
				sse += diff * diff
			}
			sse /= float64(n)
			if sse < bestRes {
				best, bestRes = cand, sse
			}
		}
	}
	return best, bestRes
}

// zscoreRef returns the standardized series, or nil for constant input.
func zscoreRef(d []float64) []float64 {
	m := stats.Mean(d)
	s := stats.Std(d)
	if s == 0 {
		return nil
	}
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = (x - m) / s
	}
	return out
}

// checkFitMatchesRef fails t unless ModelFitUBD and the reference agree
// on ubd and on the residual's exact bits.
func checkFitMatchesRef(t *testing.T, d []float64, kmin int, deltaNop float64, maxUBD int) {
	t.Helper()
	got, gotRes := ModelFitUBD(d, kmin, deltaNop, maxUBD)
	want, wantRes := modelFitUBDRef(d, kmin, deltaNop, maxUBD)
	if got != want || math.Float64bits(gotRes) != math.Float64bits(wantRes) {
		t.Fatalf("ModelFitUBD(n=%d, kmin=%d, δnop=%v, maxUBD=%d) = (%d, %x), reference (%d, %x)\nseries %v",
			len(d), kmin, deltaNop, maxUBD, got, math.Float64bits(gotRes), want, math.Float64bits(wantRes), d)
	}
}

// TestModelFitMatchesReference is the oracle check: on seeded random
// series the rewritten fit returns the reference's ubd and a residual
// with identical bits. The draws cover kmin = 0 (whose δ0 = 0 candidate
// takes Gamma's δ = 0 → ubd branch), δnop rounding to 1, 2 and 3 (and
// below 0.5, clamped to 1), maxUBD on both sides of the n·δnop/2 cap,
// flat series and series too short to fit.
func TestModelFitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	deltaNops := []float64{0.3, 0.7, 1, 1.4, 1.6, 2, 2.49, 2.5, 3, 3.4}
	draws := 1500
	if testing.Short() {
		draws = 300
	}
	for it := 0; it < draws; it++ {
		n := 1 + rng.Intn(48)
		kmin := rng.Intn(4)
		if it%3 == 0 {
			kmin = 0
		}
		deltaNop := deltaNops[rng.Intn(len(deltaNops))]
		dn := max(int(math.Round(deltaNop)), 1)
		cap := n * dn / 2
		var maxUBD int
		if it%2 == 0 {
			maxUBD = rng.Intn(cap + 2) // at or below the cap
		} else {
			maxUBD = cap + 1 + rng.Intn(64) // above it
		}
		var d []float64
		switch it % 5 {
		case 0: // noisy saw-tooth of a random ubd and phase
			ubd := 2 + rng.Intn(30)
			d = sawtoothSeries(rng.Intn(ubd), dn, ubd, kmin, n, 50*rng.Float64(), rng.Int63())
		case 1: // uniform noise
			d = make([]float64, n)
			for i := range d {
				d[i] = rng.NormFloat64() * 1e3
			}
		case 2: // few distinct values: ties between candidates
			d = make([]float64, n)
			for i := range d {
				d[i] = float64(rng.Intn(3))
			}
		case 3: // flat
			d = make([]float64, n)
			for i := range d {
				d[i] = 17.25
			}
		case 4: // exact saw-tooth: zero-residual ties
			ubd := 2 + rng.Intn(20)
			d = sawtoothSeries(rng.Intn(ubd), dn, ubd, kmin, n, 0, 0)
		}
		checkFitMatchesRef(t, d, kmin, deltaNop, maxUBD)
	}
}

// FuzzModelFitUBD checks the rewritten fit against the reference on
// arbitrary series. Each data byte is one sample (scaled by 1/7 so the
// z-scores are inexact); δnop is given in tenths of a cycle. The seed
// corpus is in testdata/fuzz/FuzzModelFitUBD.
func FuzzModelFitUBD(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, kmin, deltaNopTenths, maxUBD uint8) {
		if len(data) > 96 {
			data = data[:96]
		}
		d := make([]float64, len(data))
		for i, b := range data {
			d[i] = float64(b) / 7
		}
		checkFitMatchesRef(t, d, int(kmin), float64(deltaNopTenths)/10, int(maxUBD))
	})
}

// TestModelFitAllocs pins the fit's allocations: the observed z-score and
// the prediction buffer, however many candidates it scans (n = 60 caps
// maxUBD at 30).
func TestModelFitAllocs(t *testing.T) {
	d := sawtoothSeries(1, 1, 27, 1, 60, 0, 1)
	for _, maxUBD := range []int{4, 16, 30} {
		allocs := testing.AllocsPerRun(20, func() { ModelFitUBD(d, 1, 1, maxUBD) })
		if allocs > 2 {
			t.Errorf("maxUBD=%d: %v allocations per call, want <= 2", maxUBD, allocs)
		}
	}
}

// BenchmarkModelFitUBD times the fit at the series lengths of a derive
// plan (n = 60, ubd = 27) and of abl-scaling's largest geometry (n8-l15:
// n = 218, ubd = 105), with maxUBD as detect sets it.
func BenchmarkModelFitUBD(b *testing.B) {
	for _, tc := range []struct{ n, ubd int }{{60, 27}, {218, 105}} {
		d := sawtoothSeries(1, 1, tc.ubd, 1, tc.n, 0, 1)
		b.Run(fmt.Sprintf("n%d", tc.n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				ModelFitUBD(d, 1, 1, 4*tc.n)
			}
		})
	}
}
