package main

// endToEndUnits are the metrics of an untraced run, as BENCHMARK.json
// lists them. Every workload reports every one; none can be 0. Times
// are on the process's CPU clock and document latencies are in the
// report line only: wall-clock figures follow the host's steal (see
// NOTES.md).
var endToEndUnits = map[string]string{
	"setup_s":         "s",
	"jobs_per_cpu_s":  "1/s",
	"plans_per_cpu_s": "1/s",
	"alloc_mb":        "MB",
	"peak_rss_mb":     "MB",
}

// perLayerUnits are the metrics of a traced run, as BENCHMARK.json lists
// them: the ones every workload can report. Counts are per pass (one
// regeneration of the paper, one serve script, one fleet sweep).
// Per-layer timings that only some workloads exercise (per-job simulate
// time, store put, render, HTTP endpoints, leases) are in the report
// line instead, where a workload without the layer simply omits them.
var perLayerUnits = map[string]string{
	"sim.jobs_simulated":      "count",
	"sim.exec_steps":          "count",
	"sim.exec_cycles":         "count",
	"sim.extrapolated_cycles": "count",
	"sim.periods_leapt":       "count",
	"sim.cycles_per_step":     "cycles/step",
	"sim.extrapolated_ratio":  "ratio",
	"store.get_calls":         "count",
	"store.get_busy_ms":       "ms",
	"store.get_p50_us":        "us",
	"store.hit_ratio":         "ratio",
	"store.put_calls":         "count",
	"scenario.compile_ms":     "ms",
	"report.bytes":            "count",
	"serve.simulated_jobs":    "count",
	"serve.store_hits":        "count",
	"serve.dedup_ratio":       "ratio",
	"serve.polls_per_plan":    "count",
	"dist.leases":             "count",
	"dist.empty_lease_ratio":  "ratio",
	"dist.rows_per_lease":     "count",
	"dist.ingested":           "count",
	"dist.requeued":           "count",
	"dist.rejected":           "count",
	"runtime.gc_cycles":       "count",
	"runtime.gc_pause_ms":     "ms",
	"runtime.heap_peak_mb":    "MB",
	"trace.overhead_ratio":    "ratio",
}

func init() {
	for _, l := range layers {
		perLayerUnits[l+".self_pct"] = "%"
	}
}

const mib = 1 << 20

// endToEnd computes a phase's end-to-end metrics and the detail behind
// them (per-pass wall and CPU times, document latencies with their
// sample counts, the warm/cold split of serve latencies).
func endToEnd(setupS []float64, ph *phase) (map[string]metric, map[string]any) {
	var rows, plans int
	var doc, warm, cold []float64
	for _, p := range ph.passes {
		rows += p.rows
		plans += p.plans
		doc = append(doc, p.docMs...)
		warm = append(warm, p.warmMs...)
		cold = append(cold, p.coldMs...)
	}
	wall, cpu := ph.wall.Seconds(), ph.cpu.Seconds()
	// Throughput is per CPU-second of the process and the median over
	// passes: a pass the host slowed moves neither (see NOTES.md).
	var passS, passCPU, jobRate, planRate []float64
	for _, p := range ph.passes {
		passS = append(passS, p.wall.Seconds())
		passCPU = append(passCPU, p.cpu.Seconds())
		jobRate = append(jobRate, float64(p.rows)/p.cpu.Seconds())
		planRate = append(planRate, float64(p.plans)/p.cpu.Seconds())
	}
	p50, p90 := percentile(doc, 50), percentile(doc, 90)
	v := map[string]float64{
		"setup_s":         median(setupS),
		"jobs_per_cpu_s":  median(jobRate),
		"plans_per_cpu_s": median(planRate),
		"alloc_mb":        float64(ph.alloc) / float64(len(ph.passes)) / mib,
		"peak_rss_mb":     ph.rssMB,
	}
	out := map[string]metric{}
	for k, u := range endToEndUnits {
		out[k] = metric{v[k], u}
	}
	latency := map[string]quantile{"doc_p50_ms": p50, "doc_p90_ms": p90}
	if len(warm)+len(cold) > 0 {
		latency["warm_doc_p50_ms"], latency["warm_doc_p90_ms"] = percentile(warm, 50), percentile(warm, 90)
		latency["cold_doc_p50_ms"], latency["cold_doc_p90_ms"] = percentile(cold, 50), percentile(cold, 90)
	}
	detail := map[string]any{
		"passes": len(ph.passes), "wall_s": wall, "cpu_s": cpu, "rows": rows, "plans": plans,
		"jobs_per_s": float64(rows) / wall, "plans_per_s": float64(plans) / wall,
		"pass_s": passS, "pass_cpu_s": passCPU, "latency": latency, "exact_per_pass": ph.passes[0].exact,
	}
	for k, m := range out {
		detail[k] = m.Value
	}
	return out, detail
}

// perLayer computes the traced phase's per-layer metrics. It returns the
// BENCHMARK.json set and, as detail, everything measured: the set plus
// the workload-specific timings and per-span self time.
func perLayer(plain, ph *phase, shares map[string]float64) (map[string]metric, map[string]any) {
	n := float64(len(ph.passes))
	exact := ph.passes[0].exact
	v := map[string]float64{}
	for k, x := range exact {
		v[k] = float64(x)
	}
	if s := v["sim.exec_steps"]; s > 0 {
		v["sim.cycles_per_step"] = v["sim.exec_cycles"] / s
	}
	if c := v["sim.exec_cycles"]; c > 0 {
		v["sim.extrapolated_ratio"] = v["sim.extrapolated_cycles"] / c
	}
	layer := map[string]float64{}
	for _, p := range ph.passes {
		for k, x := range p.layer {
			layer[k] += x / n
		}
	}
	for k, x := range layer {
		v[k] = x
	}

	stats := spanStats(ph.spans)
	perPass := func(name string) (count, totalMs float64) {
		if s := stats[name]; s != nil {
			return float64(s.Count) / n, s.TotalMs / n
		}
		return 0, 0
	}
	p50 := func(name string) float64 {
		if s := stats[name]; s != nil {
			return percentile(s.durs, 50).Value
		}
		return 0
	}
	v["store.get_calls"], v["store.get_busy_ms"] = perPass("store.get")
	v["store.get_p50_us"] = p50("store.get") * 1000
	v["store.put_calls"], _ = perPass("store.put")
	_, v["scenario.compile_ms"] = perPass("scenario.compile")

	var hits, misses int64
	var jobMs []float64
	for _, ts := range ph.timed {
		j, h, m := ts.take()
		jobMs, hits, misses = append(jobMs, j...), hits+h, misses+m
	}
	if hits+misses > 0 {
		v["store.hit_ratio"] = float64(hits) / float64(hits+misses)
	}

	leases, _ := perPass("dist.lease")
	v["dist.leases"] = leases
	if run := layer["dist.leases_run"]; leases > 0 {
		v["dist.empty_lease_ratio"] = (leases - run) / leases
		if run > 0 {
			v["dist.rows_per_lease"] = v["dist.ingested"] / run
		}
	}

	v["runtime.gc_cycles"] = float64(ph.gcs) / n
	v["runtime.gc_pause_ms"] = float64(ph.pauseNs) / 1e6 / n
	v["runtime.heap_peak_mb"] = float64(ph.heapMax) / mib
	for _, l := range layers {
		v[l+".self_pct"] = shares[l]
	}
	v["trace.overhead_ratio"] = (ph.wall.Seconds() / n) / (plain.wall.Seconds() / float64(len(plain.passes)))

	out := map[string]metric{}
	for k, u := range perLayerUnits {
		out[k] = metric{v[k], u}
	}

	// Timings of layers only some workloads exercise.
	detail := map[string]any{"passes": len(ph.passes), "wall_s": ph.wall.Seconds()}
	for k, m := range out {
		detail[k] = m.Value
	}
	if v["sim.jobs_simulated"] > 0 && len(jobMs) > 0 {
		busy := 0.0
		for _, d := range jobMs {
			busy += d
		}
		detail["sim.job_p50_ms"], detail["sim.job_p90_ms"] = percentile(jobMs, 50), percentile(jobMs, 90)
		detail["sim.busy_s"] = busy / 1000 / n
		detail["sim.simcycles_per_busy_s"] = v["sim.exec_cycles"] / (busy / 1000 / n)
	}
	for _, name := range []string{"report.document", "report.text", "report.html", "report.json"} {
		if stats[name] != nil {
			_, detail[name+"_ms"] = perPass(name)
		}
	}
	if stats["store.put"] != nil {
		_, detail["store.put_busy_ms"] = perPass("store.put")
		detail["store.put_p50_us"] = p50("store.put") * 1000
	}
	for _, name := range []string{"serve.submit", "serve.status", "serve.doc", "dist.lease", "dist.results"} {
		if s := stats[name]; s != nil {
			detail[name+"_p50_ms"] = percentile(s.durs, 50)
		}
	}
	detail["spans"] = stats
	return out, detail
}
