package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rrbus"
	"rrbus/internal/sim"
)

// paperCold regenerates the whole paper into a fresh store every pass:
// the simulator's workload.
var paperCold = &workload{
	name: "paper-cold",
	pass: func(b *bench, env *phaseEnv, tr *tracer, _ time.Duration) (*passOut, error) {
		dir := filepath.Join(b.work, fmt.Sprintf("cold-%d-%d", boolInt(tr != nil), env.passNum))
		defer os.RemoveAll(dir)
		return b.paperPass(env, dir, tr)
	},
}

// paperWarm replays the same plans against the store set-up filled: the
// read and analysis workload. It must simulate nothing.
var paperWarm = &workload{
	name: "paper-warm",
	pass: func(b *bench, env *phaseEnv, tr *tracer, _ time.Duration) (*passOut, error) {
		out, err := b.paperPass(env, b.refDir, tr)
		if err == nil {
			assertNoSimulation(out)
		}
		return out, err
	},
}

// assertNoSimulation fails a pass that simulated anything.
func assertNoSimulation(out *passOut) {
	if n, s := out.exact["sim.jobs_simulated"], out.exact["sim.exec_steps"]; n != 0 || s != 0 {
		out.fail("simulated %d jobs (%d steps) on a workload that must simulate none", n, s)
	}
}

// paperPass runs every paper plan through a Session on the store at dir,
// then renders it in every format, as rrbus-figures does plan by plan.
// A document's latency runs from the start of the pass: how long a user
// who asked for the whole paper waits for that figure.
func (b *bench) paperPass(env *phaseEnv, dir string, tr *tracer) (*passOut, error) {
	out := &passOut{exact: map[string]int64{}}
	exec0 := sim.ReadExecStats()
	docs := make([][][]byte, len(b.plans))
	start, cpu0 := time.Now(), cpuTime()
	st, ts, err := env.open(dir, tr)
	if err != nil {
		return nil, err
	}
	for i, p := range b.plans {
		out.ops.Attempted++
		pid, endPlan := tr.begin("plan", 0, int64(i+1))
		_, endCompile := tr.begin("scenario.compile", pid, 0)
		plan, err := compilePlan(p.Body)
		endCompile()
		if err != nil {
			endPlan()
			out.fail("%s: compile: %v", p.Key, err)
			continue
		}
		sid, endSession := tr.begin("store.session", pid, 0)
		if ts != nil {
			ts.parent.Store(sid)
		}
		sess := &rrbus.Session{Store: st, Workers: b.nproc}
		res, err := sess.RunAll(plan)
		endSession()
		out.exact["sim.jobs_simulated"] += sess.Simulated()
		out.exact["store.hits"] += sess.StoreHits()
		if err != nil {
			endPlan()
			out.fail("%s: run: %v", p.Key, err)
			continue
		}
		d, err := renderAll(tr, pid, plan, res, func() {
			out.docMs = append(out.docMs, ms(time.Since(start)))
		})
		endPlan()
		if err != nil {
			out.fail("%s: render: %v", p.Key, err)
			continue
		}
		docs[i] = d
	}
	out.wall, out.cpu = time.Since(start), cpuTime()-cpu0
	for k, v := range execDelta(exec0) {
		out.exact[k] = v
	}
	// Checks run after the clock stops; a failed check fails its plan.
	// A derive plan's documents carry the derived ubdm and its confidence,
	// so matching the reference, which set-up checked with checkDerive,
	// checks the headline result too.
	for i, p := range b.plans {
		if docs[i] == nil {
			continue
		}
		if b.checkDocs(out, p.Key, docs[i]) {
			out.plans++
			out.rows += len(p.plan.Jobs)
		}
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}
