// Command perfbench is rrbus's end-to-end benchmark. It runs one named
// workload through the public pipeline — the rrbus facade, an in-process
// rrbus-serve (rrbus.NewServer) and in-process fleet workers
// (rrbus.NewWorker) — checks every document it gets against a reference
// regenerated in set-up, and prints one JSON result line last:
//
//	perfbench --workload paper-cold --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run is split into an untraced and a traced half and the
// result carries the per-layer metrics. The line before the result is a
// JSON report with everything else (sample counts, exact counters, the
// machine fingerprint, per-span self time). See NOTES.md; run.sh builds
// and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

var workloads = []*workload{paperCold, paperWarm, serveMixed, fleetReplay}

func main() {
	name := flag.String("workload", "", "workload to run: paper-cold, paper-warm, serve-mixed or fleet-replay")
	seed := flag.Uint64("seed", defaultSeed, "input seed (fig6a task sets, serve-mixed request order)")
	seconds := flag.Float64("seconds", 15, "measured seconds")
	trace := flag.Int("trace", 0, "1 = split the run into an untraced and a traced half and report per-layer metrics")
	work := flag.String("workdir", ".bench_build/work", "scratch directory for stores, traces and profiles")
	flag.Parse()
	var wl *workload
	for _, w := range workloads {
		if w.name == *name {
			wl = w
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", names())
		os.Exit(2)
	}
	dir, err := filepath.Abs(filepath.Join(*work, fmt.Sprintf("%s-%d", wl.name, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	nproc := runtime.NumCPU()
	b := &bench{
		seed: *seed, seconds: *seconds, work: dir, nproc: nproc, wl: wl,
		transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc},
	}
	report, result, err := b.run(*trace == 1)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.Encode(report) // stdout: a failed write shows as a missing result line
	enc.Encode(result)
}

func names() string {
	var s []string
	for _, w := range workloads {
		s = append(s, w.name)
	}
	return strings.Join(s, ", ")
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run sets up, measures and assembles the report and result.
func (b *bench) run(traced bool) (map[string]any, *result, error) {
	// setupS is each set-up's CPU time, setupWall its wall time. setup_s
	// is the median CPU time, which host steal does not stretch.
	var setupS, setupWall []float64
	for i := 0; i < setupRepeats; i++ {
		t0, cpu0 := time.Now(), cpuTime()
		if err := b.setup(i); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, (cpuTime() - cpu0).Seconds())
		setupWall = append(setupWall, time.Since(t0).Seconds())
	}
	// Set-up wrote and deleted thousands of store files; flush them now,
	// so their write-back does not land inside the measured window.
	syscall.Sync()
	report := map[string]any{
		"workload": b.wl.name, "seed": b.seed, "seconds": b.seconds, "trace": traced,
		"fingerprint": fingerprint(b.nproc), "setup_cpu_s": setupS, "setup_wall_s": setupWall,
		"reference_digests": b.ref,
	}
	if !traced {
		ph, err := b.measure(b.seconds, nil)
		if err != nil {
			return nil, nil, err
		}
		ph.verify()
		e2e, detail := endToEnd(setupS, ph)
		report["untraced"] = detail
		res := outcome(report, ph)
		// A percentile without enough samples beyond it is not a tail;
		// reporting it is a failed operation.
		for _, msg := range thinTails(detail["latency"].(map[string]quantile)) {
			res.fail(report, msg)
		}
		res.Metrics = e2e
		return report, res, nil
	}

	plain, err := b.measure(b.seconds/2, nil)
	if err != nil {
		return nil, nil, err
	}
	plain.verify()
	prof := filepath.Join(b.work, "cpu.pprof")
	f, err := os.Create(prof)
	if err != nil {
		return nil, nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, nil, err
	}
	tr := newTracer()
	ph, err := b.measure(b.seconds/2, tr)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	ph.verify()
	shares, err := profile(prof)
	if err != nil {
		return nil, nil, err
	}
	layer, detail := perLayer(plain, ph, shares)
	_, report["untraced"] = endToEnd(setupS, plain)
	report["traced"] = detail
	traces := filepath.Join(filepath.Dir(b.work), "traces")
	path := filepath.Join(traces, fmt.Sprintf("%s-seed%d.jsonl.gz", b.wl.name, b.seed))
	if err := os.MkdirAll(traces, 0o755); err != nil {
		return nil, nil, err
	}
	if err := tr.write(path); err != nil {
		return nil, nil, err
	}
	report["spans_file"] = path
	res := outcome(report, plain, ph)
	if msg := sameWork(plain, ph); msg != "" {
		res.fail(report, "traced run differs from untraced: "+msg)
	}
	res.Metrics = layer
	return report, res, nil
}

// outcome tallies operations and checks over the phases, and checks that
// every pass of a phase did identical deterministic work.
func outcome(report map[string]any, phases ...*phase) *result {
	var o ops
	errs, defects := []string{}, []string{}
	for _, ph := range phases {
		for _, p := range ph.passes {
			o.add(p.ops)
			errs = append(errs, p.errs...)
			defects = append(defects, p.defects...)
		}
		if msg := samePasses(ph); msg != "" {
			o.Failed++
			errs = append(errs, msg)
		}
	}
	report["ops"] = o
	report["failed_ratio"] = o.failedRatio()
	report["errors"] = errs
	report["defects"] = defects
	// Starved plans and duplicate simulations are known program defects
	// whose count depends on timing (duplicates) or is fixed by the plan
	// (starvation); they are in failed_ratio and ops, not in the result's
	// failed. Beyond dedupAllowance duplicates a pass has failed a check,
	// which is counted here.
	return &result{Correct: o.Failed == 0, Attempted: o.Attempted, Failed: o.Failed}
}

// fail records one failed check that is not a pass's.
func (r *result) fail(report map[string]any, msg string) {
	r.Correct = false
	r.Failed++
	report["errors"] = append(report["errors"].([]string), msg)
}

// samePasses reports the first pass whose exact counters differ from the
// phase's first pass.
func samePasses(ph *phase) string {
	for i, p := range ph.passes[1:] {
		if d := diffExact(ph.passes[0], p); d != "" {
			return fmt.Sprintf("pass %d of the %s phase did different work: %s", i+2, phaseName(ph), d)
		}
	}
	return ""
}

// sameWork compares the exact counters of the untraced and traced phases.
func sameWork(a, b *phase) string {
	return diffExact(a.passes[0], b.passes[0])
}

// diffExact lists the exact counters two passes disagree on.
func diffExact(p, q *passOut) string {
	a, b := p.exact, q.exact
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	var diffs []string
	for k := range keys {
		if a[k] != b[k] {
			diffs = append(diffs, fmt.Sprintf("%s %d vs %d", k, a[k], b[k]))
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs, ", ")
}

func phaseName(ph *phase) string {
	if ph.traced {
		return "traced"
	}
	return "untraced"
}

// profile runs `go tool pprof -top` on a CPU profile and groups the flat
// (self) column by layer.
func profile(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return profileShares(string(out))
}

// fingerprint identifies the machine a run's figures belong to.
func fingerprint(nproc int) map[string]any {
	fp := map[string]any{
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH, "nproc": nproc,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp["kernel"] = strings.TrimSpace(string(data))
	}
	return fp
}
