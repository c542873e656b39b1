package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"rrbus"
	"rrbus/internal/sim"
	"rrbus/internal/store"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// bench is one benchmark process: one workload at one seed.
type bench struct {
	seed    uint64
	seconds float64
	work    string // scratch directory inside the checkout
	nproc   int
	wl      *workload

	plans  []paperPlan
	ref    docSums // reference digests by plan key, from the last setup
	refDir string  // reference store the last setup filled

	// transport is the one HTTP transport every client and worker shares,
	// capped at nproc connections per host.
	transport *http.Transport
}

type paperPlan struct {
	planDef
	plan *rrbus.Plan
}

// workload is one named traffic mix.
type workload struct {
	name string
	// single marks a workload whose phase is one pass sized to the phase
	// budget, because its passes are not repeatable on one store.
	single bool
	// pass runs one unit of measured work.
	pass func(b *bench, env *phaseEnv, tr *tracer, budget time.Duration) (*passOut, error)
}

// phaseEnv is a phase's scaffolding: directories it removes at the end,
// the timing decorators of a traced phase, and the pass counter.
type phaseEnv struct {
	dirs    []string
	timed   []*timedStore
	passNum int
}

func (e *phaseEnv) cleanup() {
	for _, d := range e.dirs {
		os.RemoveAll(d)
	}
}

// open opens the store at dir, wrapped in a timing decorator when the
// phase is traced.
func (e *phaseEnv) open(dir string, tr *tracer) (rrbus.Store, *timedStore, error) {
	d, err := rrbus.OpenDirStore(dir)
	if err != nil {
		return nil, nil, err
	}
	if tr == nil {
		return d, nil, nil
	}
	ts := newTimedStore(d, tr)
	e.timed = append(e.timed, ts)
	return ts, ts, nil
}

// openCounted is open with every Put counted per job hash, traced or not.
func (e *phaseEnv) openCounted(dir string, tr *tracer) (rrbus.Store, *putCounter, error) {
	st, ts, err := e.open(dir, tr)
	if err != nil {
		return nil, nil, err
	}
	if ts != nil {
		return ts, ts.putCounter, nil
	}
	pc := newPutCounter(st.(*store.Dir))
	return pc, pc, nil
}

// passOut is what one pass delivered.
type passOut struct {
	wall   time.Duration
	cpu    time.Duration // process CPU time over the same stretch as wall
	plans  int           // plans whose documents were delivered
	rows   int           // result rows behind those documents
	docMs  []float64
	warmMs []float64 // serve: submit→doc of plans that simulated nothing
	coldMs []float64 // serve: submit→doc of plans that simulated
	ops    ops
	errs   []string
	exact  map[string]int64 // deterministic work counters
	layer  map[string]float64
	// defects are known program defects the pass ran into.
	defects []string
	// verify, when set, holds checks that run after the measured window
	// closes, so their reads and renders are not counted as the
	// program's time, memory or profile samples.
	verify func()
}

func (p *passOut) fail(format string, args ...any) {
	p.ops.Failed++
	if len(p.errs) < 8 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

// phase is a stretch of measured passes, untraced or traced.
type phase struct {
	traced  bool
	passes  []*passOut
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	gcs     uint32
	pauseNs uint64
	heapMax uint64
	rssMB   float64 // median over one-second windows of the window's peak RSS
	spans   []span
	timed   []*timedStore
}

// verify runs the checks the phase's passes left for after the measured
// window.
func (ph *phase) verify() {
	for _, p := range ph.passes {
		if p.verify != nil {
			p.verify()
			p.verify = nil
		}
	}
}

// setup builds the reference every pass is checked against: it compiles
// the paper plans, regenerates the whole paper cold into a fresh store,
// renders every plan in every format and checks the result (golden
// digests, the derived ubdm). A workload's passes then start from this
// store.
func (b *bench) setup(n int) error {
	plans := paperPlans(b.seed)
	b.plans = b.plans[:0]
	for _, d := range plans {
		p, err := compilePlan(d.Body)
		if err != nil {
			return fmt.Errorf("compile %s: %w", d.Key, err)
		}
		b.plans = append(b.plans, paperPlan{d, p})
	}
	dir := filepath.Join(b.work, fmt.Sprintf("ref-%d", n))
	st, err := rrbus.OpenDirStore(dir)
	if err != nil {
		return err
	}
	golden, err := loadGolden(b.seed)
	if err != nil {
		return err
	}
	ref := docSums{}
	for _, p := range b.plans {
		sess := &rrbus.Session{Store: st, Workers: b.nproc}
		results, err := sess.RunAll(p.plan)
		if err != nil {
			return fmt.Errorf("reference %s: %w", p.Key, err)
		}
		if isDerive(p.Key) {
			if err := checkDerive(p.plan, results); err != nil {
				return fmt.Errorf("reference %s: %w", p.Key, err)
			}
		}
		docs, err := renderAll(nil, 0, p.plan, results, nil)
		if err != nil {
			return fmt.Errorf("reference %s: %w", p.Key, err)
		}
		ref[p.Key] = map[string]string{}
		for i, f := range formats {
			sum := digest(docs[i])
			if g, ok := golden[p.Key][f]; ok && g != sum {
				return fmt.Errorf("reference %s (%s): document digest %.12s differs from golden %.12s", p.Key, f, sum, g)
			}
			ref[p.Key][f] = sum
		}
	}
	if b.refDir != "" {
		os.RemoveAll(b.refDir)
	}
	b.ref, b.refDir = ref, dir
	return nil
}

// renderAll builds a plan's document and renders it in every format,
// calling lat, when set, as each document is done.
func renderAll(tr *tracer, parent int64, p *rrbus.Plan, results []rrbus.Result, lat func()) ([][]byte, error) {
	_, end := tr.begin("report.document", parent, 0)
	doc, err := rrbus.DocumentFor(p, results)
	end()
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(formats))
	for i, f := range formats {
		backend, err := rrbus.BackendByName(f)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		_, end := tr.begin("report."+f, parent, 0)
		err = rrbus.RenderTo(&buf, doc, backend)
		end()
		if err != nil {
			return nil, err
		}
		out[i] = buf.Bytes()
		if lat != nil {
			lat()
		}
	}
	return out, nil
}

// checkDocs compares a plan's documents with the reference.
func (b *bench) checkDocs(out *passOut, key string, docs [][]byte) bool {
	for i, f := range formats {
		if got, want := digest(docs[i]), b.ref[key][f]; got != want {
			out.fail("%s (%s): document digest %.12s, reference %.12s", key, f, got, want)
			return false
		}
		out.exact["report.bytes"] += int64(len(docs[i]))
	}
	return true
}

// measure runs passes until the phase budget is spent and gathers the
// runtime figures around them.
func (b *bench) measure(seconds float64, tr *tracer) (*phase, error) {
	env := &phaseEnv{}
	defer env.cleanup()
	ph := &phase{traced: tr != nil}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	runtime.GC()
	stopSampler := sampleMemory(&ph.heapMax, &ph.rssMB)
	budget := time.Duration(seconds * float64(time.Second))
	for len(ph.passes) == 0 || (!b.wl.single && ph.wall < budget) {
		out, err := b.wl.pass(b, env, tr, budget-ph.wall)
		if err != nil {
			stopSampler()
			return nil, err
		}
		ph.passes = append(ph.passes, out)
		ph.wall += out.wall
		ph.cpu += out.cpu
		// Flush the files the pass wrote or deleted, so their write-back
		// does not land inside the next pass.
		syscall.Sync()
		env.passNum++
	}
	stopSampler()
	runtime.ReadMemStats(&ms1)
	ph.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	ph.gcs = ms1.NumGC - ms0.NumGC
	ph.pauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	if tr != nil {
		ph.spans = tr.snapshot()
		ph.timed = env.timed
	}
	return ph, nil
}

// sampleMemory records the largest live heap seen and the median over
// one-second windows of each window's peak resident set (VmHWM, reset at
// the start of every window), until the returned stop function is
// called; stop waits for the sampler to exit. A median of window peaks
// is steadier than one peak, which a single collection cycle can move.
func sampleMemory(heapMax *uint64, rssMB *float64) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		var peaks []float64
		var hmax uint64
		resetPeakRSS()
		window := time.Now()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > hmax {
				hmax = v
			}
			select {
			case <-done:
				peaks = append(peaks, peakRSSMB())
				*heapMax, *rssMB = hmax, median(peaks)
				return
			case <-t.C:
			}
			if time.Since(window) >= time.Second {
				peaks = append(peaks, peakRSSMB())
				resetPeakRSS()
				window = time.Now()
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so
// VmHWM covers the measured phase and not the set-up before it.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: VmHWM then spans the whole process
}

// peakRSSMB reads VmHWM from /proc/self/status, in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuTime is the CPU time the process has used so far, user and system.
// The kernel leaves out the time the host gave the virtual CPU to someone
// else (steal), so work per CPU-second does not move with the load of
// other tenants the way work per wall second does.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// execDelta returns the simulator's work counters accumulated since s0.
func execDelta(s0 sim.ExecStats) map[string]int64 {
	s := sim.ReadExecStats()
	return map[string]int64{
		"sim.exec_steps":          int64(s.Steps - s0.Steps),
		"sim.exec_cycles":         int64(s.Cycles - s0.Cycles),
		"sim.extrapolated_cycles": int64(s.Extrapolated - s0.Extrapolated),
		"sim.periods_leapt":       int64(s.PeriodsLeapt - s0.PeriodsLeapt),
	}
}

// copyDir copies a store directory tree (regular files only).
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
