package core

import (
	"fmt"
	"strings"
	"testing"

	"rrbus/internal/analytic"
	"rrbus/internal/isa"
	"rrbus/internal/sim"
)

// fakeRunner synthesizes observations from the analytic model: a platform
// with the given ubd, base injection time delta0 and per-nop cost. It lets
// the derivation logic be tested exhaustively without simulation cost.
type fakeRunner struct {
	cores      int
	ubd        int
	delta0     int
	deltaNop   float64
	util       float64
	requests   uint64
	baseCycles uint64
	// deriveErr, if set, is returned by MeasureDeltaNop.
	deriveErr error
}

func (f *fakeRunner) Cores() int { return f.cores }

func (f *fakeRunner) MeasureDeltaNop() (float64, error) {
	if f.deriveErr != nil {
		return 0, f.deriveErr
	}
	return f.deltaNop, nil
}

func (f *fakeRunner) RunContended(t isa.Op, k int) (Obs, error) {
	delta := f.delta0 + int(float64(k)*f.deltaNop+0.5)
	gamma := analytic.Gamma(delta, f.ubd)
	return Obs{
		Cycles:      f.baseCycles + uint64(k)*100 + f.requests*uint64(gamma),
		Requests:    f.requests,
		Utilization: f.util,
	}, nil
}

func (f *fakeRunner) RunIsolation(t isa.Op, k int) (Obs, error) {
	return Obs{Cycles: f.baseCycles + uint64(k)*100, Requests: f.requests, Utilization: 0.1}, nil
}

func newFake(ubd, delta0 int) *fakeRunner {
	return &fakeRunner{
		cores: 4, ubd: ubd, delta0: delta0, deltaNop: 1,
		util: 1.0, requests: 500, baseCycles: 100000,
	}
}

func TestDeriveRecoversUBD(t *testing.T) {
	for _, tc := range []struct{ ubd, delta0 int }{
		{27, 1}, {27, 4}, {6, 1}, {9, 2}, {45, 3}, {14, 7},
	} {
		r := newFake(tc.ubd, tc.delta0)
		res, err := Derive(r, Options{AutoExtend: true})
		if err != nil {
			t.Fatalf("ubd=%d δ0=%d: %v", tc.ubd, tc.delta0, err)
		}
		if res.UBDm != tc.ubd {
			t.Errorf("ubd=%d δ0=%d: derived %d", tc.ubd, tc.delta0, res.UBDm)
		}
		if !res.Confidence.UtilizationOK {
			t.Errorf("ubd=%d: utilization check failed unexpectedly", tc.ubd)
		}
		if res.Confidence.Score() != 1.0 {
			t.Errorf("ubd=%d: confidence %.2f, notes %v", tc.ubd, res.Confidence.Score(), res.Confidence.Notes)
		}
	}
}

func TestDeriveAutoExtends(t *testing.T) {
	// ubd = 45 with an initial KMax of 20 must auto-extend until two
	// full periods are observed.
	r := newFake(45, 1)
	res, err := Derive(r, Options{KMax: 20, AutoExtend: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.UBDm != 45 {
		t.Errorf("derived %d", res.UBDm)
	}
	if len(res.Slowdowns) < 2*45 {
		t.Errorf("sweep too short for two periods: %d", len(res.Slowdowns))
	}
}

func TestDeriveWithoutAutoExtendFailsOnShortSweep(t *testing.T) {
	r := newFake(45, 1)
	_, err := Derive(r, Options{KMax: 20, AutoExtend: false})
	if err == nil {
		t.Error("short sweep without auto-extend must fail")
	}
}

func TestDeriveRefusesSingleCore(t *testing.T) {
	r := newFake(27, 1)
	r.cores = 1
	if _, err := Derive(r, Options{}); err == nil {
		t.Error("single-core platform must be refused")
	}
}

func TestDeriveReportsLowUtilization(t *testing.T) {
	r := newFake(27, 1)
	r.util = 0.7
	res, err := Derive(r, Options{AutoExtend: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Confidence.UtilizationOK {
		t.Error("70% utilization must fail the confidence check")
	}
	if res.Confidence.Score() >= 1 {
		t.Error("score must drop")
	}
	found := false
	for _, n := range res.Confidence.Notes {
		if strings.Contains(n, "utilization") {
			found = true
		}
	}
	if !found {
		t.Errorf("missing utilization note: %v", res.Confidence.Notes)
	}
}

func TestDeriveDeltaNopError(t *testing.T) {
	r := newFake(27, 1)
	r.deriveErr = fmt.Errorf("no PMC access")
	if _, err := Derive(r, Options{}); err == nil || !strings.Contains(err.Error(), "δnop") {
		t.Errorf("got %v", err)
	}
}

func TestDeriveFlatSlowdownFails(t *testing.T) {
	// A time-composable platform (e.g. TDMA): contended == isolation.
	r := newFake(27, 1)
	r.requests = 0 // no contention term at all
	_, err := Derive(r, Options{AutoExtend: true, KLimit: 80})
	if err == nil {
		t.Error("flat slowdown must be refused")
	}
}

func TestDeriveDeltaNop2Aliasing(t *testing.T) {
	// δnop = 2, ubd = 27: period-based reading gives 54; the model fit
	// must override to 27 and the notes must say why.
	r := newFake(27, 1)
	r.deltaNop = 2
	res, err := Derive(r, Options{AutoExtend: true, KLimit: 160})
	if err != nil {
		t.Fatal(err)
	}
	if res.UBDm != 27 {
		t.Errorf("aliased derivation = %d, want 27", res.UBDm)
	}
	if res.Methods[MethodModelFit] != 27 {
		t.Errorf("model fit = %d", res.Methods[MethodModelFit])
	}
	// The period-based exact method reads 54 here.
	if res.Methods[MethodExact] != 54 {
		t.Errorf("exact period reading = %d, want the aliased 54", res.Methods[MethodExact])
	}
	noted := false
	for _, n := range res.Confidence.Notes {
		if strings.Contains(n, "alias") {
			noted = true
		}
	}
	if !noted {
		t.Errorf("aliasing must be noted: %v", res.Confidence.Notes)
	}
}

func TestDeriveDeltaNop3Divides(t *testing.T) {
	// δnop = 3 divides 27: the k-period is 9 and 9×3 = 27 reads
	// correctly even without the model fit.
	r := newFake(27, 1)
	r.deltaNop = 3
	res, err := Derive(r, Options{AutoExtend: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.UBDm != 27 {
		t.Errorf("derived %d, want 27", res.UBDm)
	}
}

func TestResultPadAndETB(t *testing.T) {
	res := &Result{UBDm: 27}
	if got := res.Pad(100); got != 2700 {
		t.Errorf("Pad = %d", got)
	}
	if got := res.ETB(5000, 100); got != 7700 {
		t.Errorf("ETB = %d", got)
	}
	empty := &Result{}
	if empty.Pad(100) != 0 || empty.ETB(5000, 100) != 5000 {
		t.Error("zero UBDm must pad nothing")
	}
}

func TestConfidenceScore(t *testing.T) {
	full := Confidence{UtilizationOK: true, MethodsAgree: true, PeriodsObserved: 3}
	if full.Score() != 1 {
		t.Errorf("full score = %v", full.Score())
	}
	none := Confidence{}
	if none.Score() != 0 {
		t.Errorf("empty score = %v", none.Score())
	}
	partial := Confidence{UtilizationOK: true, MethodsAgree: false, PeriodsObserved: 2}
	if s := partial.Score(); s <= 0.5 || s >= 1 {
		t.Errorf("partial score = %v", s)
	}
}

// --- End-to-end on the real simulator (the paper's §5.3 headline) ---

func TestDeriveOnSimulatorRef(t *testing.T) {
	r, err := NewSimRunner(sim.NGMPRef())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Derive(r, Options{AutoExtend: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.UBDm != 27 {
		t.Errorf("ref: derived %d, actual 27", res.UBDm)
	}
	if res.PeriodK != 27 {
		t.Errorf("ref: period %d", res.PeriodK)
	}
	if res.DeltaNop < 0.99 || res.DeltaNop > 1.01 {
		t.Errorf("ref: δnop = %.4f", res.DeltaNop)
	}
	if !res.Confidence.UtilizationOK || !res.Confidence.MethodsAgree {
		t.Errorf("ref: confidence %+v", res.Confidence)
	}
}

func TestDeriveOnSimulatorVar(t *testing.T) {
	r, err := NewSimRunner(sim.NGMPVar())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Derive(r, Options{AutoExtend: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.UBDm != 27 {
		t.Errorf("var: derived %d, actual 27 (injection time must not matter)", res.UBDm)
	}
}

func TestDeriveOnScaledGeometry(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// A different platform entirely: 6 cores, lbus = 5 → ubd = 25.
	cfg := sim.Scaled(sim.NGMPRef(), 6, 2, 3)
	r, err := NewSimRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Derive(r, Options{AutoExtend: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.UBDm != cfg.UBD() {
		t.Errorf("derived %d, actual %d", res.UBDm, cfg.UBD())
	}
}

func TestDeriveUnderWeightedRR(t *testing.T) {
	// MBBA-style weighted round-robin: extra consecutive slots are
	// useless to single-outstanding in-order cores (their next request
	// is never ready at the completion cycle, so the slot falls
	// through). Saturated WRR therefore degenerates to plain RR and the
	// methodology reads (Nc-1)*lbus regardless of the weights — which
	// is the correct per-request bound for these cores.
	for _, weights := range [][]int{{2, 1, 1, 1}, {1, 2, 1, 1}, {1, 3, 3, 3}} {
		cfg := sim.NGMPRef()
		cfg.Arbiter = sim.ArbiterWRR
		cfg.WRRWeights = weights
		r, err := NewSimRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Derive(r, Options{AutoExtend: true})
		if err != nil {
			t.Fatalf("weights %v: %v", weights, err)
		}
		if res.UBDm != 27 {
			t.Errorf("weights %v: derived %d, want 27", weights, res.UBDm)
		}
	}
}

func TestSimRunnerValidation(t *testing.T) {
	bad := sim.NGMPRef()
	bad.Cores = 0
	if _, err := NewSimRunner(bad); err == nil {
		t.Error("invalid config must fail")
	}
	r, err := NewSimRunner(sim.NGMPRef())
	if err != nil {
		t.Fatal(err)
	}
	if r.Cores() != 4 {
		t.Errorf("cores = %d", r.Cores())
	}
	if r.Config().Name != "ngmp-ref" {
		t.Error("config accessor")
	}
	dn, err := r.MeasureDeltaNop()
	if err != nil {
		t.Fatal(err)
	}
	if dn < 0.99 || dn > 1.05 {
		t.Errorf("δnop = %.4f, want ≈ 1 (loop overhead diluted)", dn)
	}
}

func TestSimRunnerObservations(t *testing.T) {
	r, err := NewSimRunner(sim.NGMPRef())
	if err != nil {
		t.Fatal(err)
	}
	cont, err := r.RunContended(isa.OpLoad, 0)
	if err != nil {
		t.Fatal(err)
	}
	isol, err := r.RunIsolation(isa.OpLoad, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cont.Cycles <= isol.Cycles {
		t.Error("contention must slow the rsk down")
	}
	if cont.Utilization < 0.99 {
		t.Errorf("contended utilization = %.3f", cont.Utilization)
	}
	if cont.Requests == 0 || isol.Requests == 0 {
		t.Error("request counts missing")
	}
	// The per-request slowdown is γ(δrsk) = 26 on ref.
	perReq := float64(cont.Cycles-isol.Cycles) / float64(cont.Requests)
	if perReq < 25.5 || perReq > 26.5 {
		t.Errorf("per-request slowdown = %.2f, want ≈ 26", perReq)
	}
}

// BenchmarkDeriveFromSeries times the detection half on a derive plan's
// series (k = 1..60, ubd = 27): every period detector plus the Eq. 2
// model fit, which dominates.
func BenchmarkDeriveFromSeries(b *testing.B) {
	d := sawtoothSeries(1, 1, 27, 1, 60, 0, 1)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := DeriveFromSeries(d, 1, 1, Options{KMin: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
