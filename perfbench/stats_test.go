package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"

	"rrbus"
	"rrbus/internal/dist"
	"rrbus/internal/scenario"
	"rrbus/internal/store"
)

func TestPercentileReportsSampleCountAndTail(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- { // unsorted input
		xs = append(xs, float64(i))
	}
	for _, c := range []struct {
		p    float64
		want float64
		ok   bool
	}{
		{50, 50, true},
		{90, 90, true},  // 10 samples beyond: just enough
		{91, 91, false}, // 9 beyond
		{100, 100, false},
	} {
		got := percentile(xs, c.p)
		if got.Value != c.want || got.Samples != 100 || got.OK != c.ok {
			t.Errorf("p%v = %+v, want value %v, 100 samples, ok %v", c.p, got, c.want, c.ok)
		}
	}
	if xs[0] != 100 {
		t.Errorf("percentile sorted its input in place")
	}
	if got := percentile(xs[:19], 50); got.OK {
		t.Errorf("p50 of 19 samples has %d beyond it, below the %d needed, but reported ok", 19-10, minTail)
	}
	if got := percentile(nil, 50); got.Samples != 0 || got.OK {
		t.Errorf("empty percentile = %+v", got)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		name string
		kids []interval
		want int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 40}}, 80},
		{"overlapping", []interval{{10, 30}, {20, 50}}, 60},
		{"nested", []interval{{10, 50}, {20, 30}}, 60},
		{"sticking out", []interval{{-10, 10}, {90, 120}}, 80},
		{"outside", []interval{{100, 150}, {-20, 0}}, 100},
		{"concurrent copies", []interval{{0, 100}, {0, 100}, {50, 60}}, 0},
		{"unsorted", []interval{{60, 70}, {5, 15}, {12, 20}}, 75},
	} {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSpanStatsLinksChildrenByParent(t *testing.T) {
	spans := []span{
		{Name: "plan", ID: 1, Start: 0, End: 10e6},
		{Name: "store.session", ID: 2, Parent: 1, Start: 1e6, End: 7e6},
		{Name: "store.get", ID: 3, Parent: 2, Start: 2e6, End: 4e6},
		{Name: "store.get", ID: 4, Parent: 2, Start: 3e6, End: 5e6},
		{Name: "report.document", ID: 5, Parent: 1, Start: 7e6, End: 9e6},
	}
	st := spanStats(spans)
	check := func(name string, count int, total, self float64) {
		t.Helper()
		s := st[name]
		if s == nil || s.Count != count || s.TotalMs != total || s.SelfMs != self {
			t.Errorf("%s = %+v, want count %d total %v self %v", name, s, count, total, self)
		}
	}
	check("plan", 1, 10, 2)
	check("store.session", 1, 6, 3)
	check("store.get", 2, 4, 4)
	check("report.document", 1, 2, 2)
}

const pprofTop = `File: perfbench
Type: cpu
Time: 2026-01-01 00:00:00 UTC
Duration: 6s, Total samples = 5s (83.33%)
Showing nodes accounting for 5s, 100% of 5s total
      flat  flat%   sum%        cum   cum%
     1.00s 20.00% 20.00%      2.00s 40.00%  rrbus/internal/sim.(*System).step
     0.50s 10.00% 30.00%      0.50s 10.00%  rrbus/internal/cache.(*Cache).Access
     0.40s  8.00% 38.00%      0.40s  8.00%  syscall.Syscall6
     0.30s  6.00% 44.00%      0.30s  6.00%  internal/runtime/syscall.Syscall6
     0.25s  5.00% 49.00%      0.25s  5.00%  runtime.scanobject
     0.25s  5.00% 54.00%      0.25s  5.00%  runtime.(*gcWork).tryGet
     0.20s  4.00% 58.00%      0.20s  4.00%  encoding/json.(*decodeState).object
     0.20s  4.00% 62.00%      0.20s  4.00%  rrbus/internal/exp.StreamShardCached[go.shape.struct { ID string "json:\"id\"" }].func1
     0.15s  3.00% 65.00%      0.15s  3.00%  runtime.mallocgc
     0.10s  2.00% 67.00%      0.10s  2.00%  main.(*tracer).begin.func1
     0.10s  2.00% 69.00%      0.10s  2.00%  rrbus/internal/store.(*Dir).Put
     0.05s  1.00% 70.00%      0.05s  1.00%  rrbus/internal/statehash.Add
`

func TestProfileSharesGroupsRowsByLayer(t *testing.T) {
	got, err := profileShares(pprofTop)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sim": 20, "cache": 10, "syscall": 14, "gc": 10, "json": 4,
		"other": 4 + 3 + 2, "store": 2, "statehash": 1,
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9 {
			t.Errorf("%s: %.2f%%, want %.2f%%", k, got[k], w)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"rrbus/internal/bus.(*Bus).Arbitrate":         "bus",
		"rrbus/internal/mem.(*Controller).Tick":       "mem",
		"rrbus/internal/core.ModelFitUBD":             "core",
		"rrbus/internal/analytic.Gamma":               "analytic",
		"rrbus/internal/serve.(*Server).handleDoc":    "serve",
		"rrbus/internal/dist.(*Queue).Ingest":         "dist",
		"rrbus/internal/exp.StreamShardCached[...]":   "other",
		"rrbus.DocumentFor":                           "other",
		"net/http.(*conn).serve":                      "other",
		"runtime.gcDrain":                             "gc",
		"runtime.memmove":                             "other",
		"runtime.futex":                               "syscall",
		"encoding/json.Marshal":                       "json",
		"rrbus/internal/scenario.Job.Hash":            "scenario",
		"rrbus/internal/report.(*HTMLBackend).Render": "report",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestPlanOutcome(t *testing.T) {
	const hash = "abc"
	mix := request{kind: "mix", key: "mix/seed7"}
	starveErr := `job "mix/003/tdma": sim: warmup exceeded 268435456 cycles (scua "rsk-nop-ld-k32" at 0/2 iters)`
	for _, c := range []struct {
		name    string
		r       request
		st      rrbus.PlanStatus
		starved bool
		failed  bool
	}{
		{"complete", mix, status(hash, rrbus.PlanComplete, ""), false, false},
		{"tdma starvation", mix, status(hash, rrbus.PlanFailed, starveErr), true, false},
		{"starvation outside a mix plan", request{kind: "fig7"}, status(hash, rrbus.PlanFailed, starveErr), false, true},
		{"other failure", mix, status(hash, rrbus.PlanFailed, "store: disk full"), false, true},
		{"interrupted", mix, status(hash, rrbus.PlanInterrupted, ""), false, true},
		{"hash mismatch", mix, status("def", rrbus.PlanComplete, ""), false, true},
	} {
		starved, err := planOutcome(c.r, c.st, hash)
		if starved != c.starved || (err != nil) != c.failed {
			t.Errorf("%s: starved %v err %v, want starved %v failed %v", c.name, starved, err, c.starved, c.failed)
		}
	}
}

func status(hash, s, err string) rrbus.PlanStatus {
	st := rrbus.PlanStatus{Status: s}
	st.Hash, st.Err = hash, err
	return st
}

func TestTallyCountsFailedAndStarvedPlans(t *testing.T) {
	ok := reqResult{r: request{kind: "paper", key: "fig2", format: "text"}, jobs: 1, doc: []byte("doc"), latMs: 5}
	cold := ok
	cold.r.key, cold.simulated, cold.latMs = "fig7a", 3, 50
	ended := reqResult{r: request{kind: "mix", key: "mix/seed2"}, err: errors.New("plan ended failed: store: disk full")}
	starved := reqResult{r: request{kind: "mix", key: "mix/seed7"}, starved: true}
	badDoc := ok
	badDoc.r.key = "fig3"
	out := &passOut{exact: map[string]int64{}}
	tally(out, []reqResult{ok, cold, ended, starved, badDoc}, func(res reqResult) error {
		if res.r.key == "fig3" {
			return errors.New("digest mismatch")
		}
		return nil
	})
	if want := (ops{Attempted: 5, Failed: 2, Starved: 1}); out.ops != want {
		t.Errorf("ops %+v, want %+v", out.ops, want)
	}
	if r := out.ops.failedRatio(); r != 3.0/5 {
		t.Errorf("failed ratio %v, want 3/5", r)
	}
	if out.plans != 2 || out.rows != 2 || len(out.warmMs) != 1 || len(out.coldMs) != 1 || len(out.docMs) != 2 {
		t.Errorf("delivered plans %d rows %d warm %v cold %v", out.plans, out.rows, out.warmMs, out.coldMs)
	}
	if len(out.defects) != 1 {
		t.Errorf("defects %v, want the starvation", out.defects)
	}
	if (ops{}).failedRatio() != 0 {
		t.Errorf("failed ratio of nothing attempted is not 0")
	}
}

// Starved plans and duplicate simulations are in failed_ratio but not in
// the result's failed; only failed checks are, and they make the output
// wrong.
func TestOutcomeKeepsKnownDefectsOutOfFailed(t *testing.T) {
	ph := &phase{passes: []*passOut{{ops: ops{Attempted: 10, Starved: 1, Duplicated: 2}, exact: map[string]int64{}}}}
	report := map[string]any{}
	res := outcome(report, ph)
	if !res.Correct || res.Attempted != 10 || res.Failed != 0 {
		t.Errorf("result %+v, want correct, 10 attempted, 0 failed", res)
	}
	if r := report["failed_ratio"]; r != 3.0/10 {
		t.Errorf("failed ratio %v, want 3/10", r)
	}
	res.fail(report, "doc_p90_ms has 50 samples, fewer than 10 beyond it")
	if res.Correct || res.Failed != 1 || len(report["errors"].([]string)) != 1 {
		t.Errorf("after a failed check: %+v, errors %v", res, report["errors"])
	}
}

func TestThinTails(t *testing.T) {
	xs := make([]float64, 50)
	got := thinTails(map[string]quantile{
		"doc_p50_ms": percentile(xs, 50), "doc_p90_ms": percentile(xs, 90), "cold_doc_p50_ms": percentile(nil, 50),
	})
	want := []string{
		"cold_doc_p50_ms has 0 samples, fewer than 10 beyond it",
		"doc_p90_ms has 50 samples, fewer than 10 beyond it",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("thin tails %q, want %q", got, want)
	}
}

// A job recorded three times is two duplicates, counted as such,
// and its work taken out of the counters twice, so they read as if it
// ran once. Past the allowance the output fails too; a job the store
// already held must not be recorded at all.
func TestCheckDuplicates(t *testing.T) {
	b := &bench{work: t.TempDir()}
	p, err := compilePlan(gen("fig2", "fig2", nil).Body)
	if err != nil {
		t.Fatal(err)
	}
	h := p.JobHashes()[0]
	work, err := b.jobWork(p.Jobs[0], h)
	if err != nil {
		t.Fatal(err)
	}
	if work["sim.exec_steps"] == 0 {
		t.Fatalf("one job's work %v has no steps", work)
	}
	missing := map[string]rrbus.Job{h: p.Jobs[0]}
	out := &passOut{exact: map[string]int64{"sim.jobs_simulated": 3, "serve.simulated_jobs": 3}}
	for k, v := range work {
		out.exact[k] = 3 * v
	}
	if err := b.checkDuplicates(out, missing, map[string]int{h: 3}); err != nil {
		t.Fatal(err)
	}
	if out.ops.Duplicated != 2 || out.ops.Failed != 0 || len(out.defects) != 1 {
		t.Errorf("ops %+v defects %v, want 2 duplicated, 0 failed", out.ops, out.defects)
	}
	for k, v := range work {
		if out.exact[k] != v {
			t.Errorf("%s = %d after the duplicates, want one job's %d", k, out.exact[k], v)
		}
	}
	if out.exact["sim.jobs_simulated"] != 1 || out.exact["serve.simulated_jobs"] != 1 {
		t.Errorf("jobs simulated %v, want 1", out.exact)
	}

	clean := &passOut{exact: map[string]int64{}}
	if err := b.checkDuplicates(clean, missing, map[string]int{h: 1}); err != nil || clean.ops != (ops{}) {
		t.Errorf("one record of a missing job: ops %+v err %v", clean.ops, err)
	}
	gross := &passOut{exact: map[string]int64{}}
	if err := b.checkDuplicates(gross, missing, map[string]int{h: dedupAllowance + 2}); err != nil {
		t.Fatal(err)
	}
	if gross.ops.Duplicated != dedupAllowance+1 || gross.ops.Failed != 1 {
		t.Errorf("past the allowance: ops %+v, want %d duplicated and 1 failed", gross.ops, dedupAllowance+1)
	}
	if err := b.checkDuplicates(&passOut{exact: map[string]int64{}}, map[string]rrbus.Job{}, map[string]int{h: 1}); err == nil {
		t.Errorf("a recorded job the store held is not an error")
	}
}

// The decorators must present every method of the bare store, or the
// session and server would type-assert differently under them.
func TestTimedStoreExposesEveryDirMethod(t *testing.T) {
	dir := reflect.TypeOf(&store.Dir{})
	for _, deco := range []reflect.Type{reflect.TypeOf(&timedStore{}), reflect.TypeOf(&putCounter{})} {
		for i := 0; i < dir.NumMethod(); i++ {
			m := dir.Method(i)
			tm, ok := deco.MethodByName(m.Name)
			if !ok {
				t.Errorf("%s lacks %s", deco, m.Name)
				continue
			}
			if tm.Type.NumIn() != m.Type.NumIn() || tm.Type.NumOut() != m.Type.NumOut() {
				t.Errorf("%s.%s has a different signature", deco, m.Name)
			}
		}
	}
	var s any = newTimedStore(&store.Dir{}, nil)
	for name, ok := range map[string]bool{
		"PlanRecorder":  implements[store.PlanRecorder](s),
		"Quarantiner":   implements[store.Quarantiner](s),
		"dist.Syncable": implements[dist.Syncable](s),
		"manifests": implements[interface {
			PlanInfo(string) store.PlanInfo
			PlanSpec(string) (*scenario.Plan, error)
			PlanInfos() ([]store.PlanInfo, error)
			Root() string
			Len() (int, error)
		}](s),
	} {
		if !ok {
			t.Errorf("timedStore does not implement %s", name)
		}
	}
}

func implements[I any](v any) bool {
	_, ok := v.(I)
	return ok
}

func TestTimedStoreRecordsMissToPut(t *testing.T) {
	d, err := store.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	ts := newTimedStore(d, tr)
	p, err := compilePlan(gen("fig2", "fig2", nil).Body)
	if err != nil {
		t.Fatal(err)
	}
	sess := &rrbus.Session{Store: ts, Workers: 1}
	if _, err := sess.RunAll(p); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunAll(p); err != nil {
		t.Fatal(err)
	}
	jobMs, hits, misses := ts.take()
	if len(jobMs) != 1 || hits != 1 || misses != 1 {
		t.Errorf("job intervals %v, hits %d, misses %d; want 1, 1, 1", jobMs, hits, misses)
	}
	if puts := ts.counts(); !reflect.DeepEqual(puts, map[string]int{p.JobHashes()[0]: 1}) {
		t.Errorf("put counts %v, want the one job once", puts)
	}
	st := spanStats(tr.snapshot())
	for _, name := range []string{"store.get", "store.put", "store.put_plan"} {
		if st[name] == nil {
			t.Errorf("no %s span", name)
		}
	}
}

func TestServeScriptShape(t *testing.T) {
	paper := make([]paperPlan, 0)
	for _, d := range paperPlans(defaultSeed) {
		paper = append(paper, paperPlan{planDef: d})
	}
	a := serveScript(1, paper, 10)
	b := serveScript(1, paper, 10)
	c := serveScript(2, paper, 10)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different scripts")
	}
	if reflect.DeepEqual(a, c) {
		t.Errorf("different seeds, same script")
	}
	count := func(s []request) map[string]int {
		n := map[string]int{}
		for _, r := range s {
			n[r.kind]++
			if r.kind == "mix" {
				n[r.key]++
			}
		}
		return n
	}
	na, nc := count(a), count(c)
	if len(a) != 8*80 || na["fig7"] != 2*80 || na["mix"] != mixPlans || na["paper"] != 6*80-mixPlans {
		t.Errorf("script of %d requests: %v", len(a), na)
	}
	if !reflect.DeepEqual(na, nc) {
		t.Errorf("seeds change the script's composition: %v vs %v", na, nc)
	}
	for _, secs := range []float64{0.1, 2.1, 7.5} { // odd and clamped block counts
		blocks := max(int(secs*blocksPerSecond+0.5), 2*mixPlans)
		if s := serveScript(3, paper, secs); len(s) != 8*blocks || count(s)["mix"] != mixPlans {
			t.Errorf("%vs: %d requests, %d mix; want %d, %d", secs, len(s), count(s)["mix"], 8*blocks, mixPlans)
		}
	}
	for m := 1; m <= mixPlans; m++ {
		if na[mixRequest(m, "").key] != 1 {
			t.Errorf("mix seed %d appears %d times", m, na[mixRequest(m, "").key])
		}
	}
}

func TestParseMetrics(t *testing.T) {
	m := parseMetrics([]byte("# HELP x y\n# TYPE x counter\nrrbus_jobs_simulated_total 42\nrrbus_sim_cycles_per_second 1.5e+06\nbad line here\n"))
	if m["rrbus_jobs_simulated_total"] != 42 || m["rrbus_sim_cycles_per_second"] != 1.5e6 || len(m) != 2 {
		t.Errorf("parsed %v", m)
	}
}

// BENCHMARK.json must list exactly the metrics the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		list  []struct{ Name, Unit string }
		units map[string]string
	}{{spec.EndToEnd, endToEndUnits}, {spec.PerLayer, perLayerUnits}} {
		if len(c.list) != len(c.units) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark prints %d", len(c.list), len(c.units))
		}
		for _, m := range c.list {
			if u, ok := c.units[m.Name]; !ok || u != m.Unit {
				t.Errorf("BENCHMARK.json metric %s (%s): benchmark has unit %q", m.Name, m.Unit, u)
			}
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", names, ours)
	}
}
