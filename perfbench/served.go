package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rrbus"
	"rrbus/internal/sim"
)

// pollEvery is the fixed interval a client polls a plan's status at.
const pollEvery = 5 * time.Millisecond

// client is one closed-loop HTTP client of rrbus-serve.
type client struct {
	hc   *http.Client
	base string
}

func (b *bench) client(base string, tr *tracer) *client {
	var rt http.RoundTripper = b.transport
	if tr != nil {
		rt = &timedTransport{base: b.transport, tr: tr}
	}
	return &client{hc: &http.Client{Transport: rt, Timeout: 120 * time.Second}, base: base}
}

func (c *client) do(ctx context.Context, method, path string, body []byte, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusConflict && want != http.StatusConflict {
		return nil, fmt.Errorf("%s %s: %w: %s", method, path, errConflict, strings.TrimSpace(string(data)))
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// post submits a plan body and returns the server's first status.
func (c *client) post(ctx context.Context, body []byte) (st rrbus.PlanStatus, err error) {
	data, err := c.do(ctx, http.MethodPost, "/v1/plans", body, http.StatusAccepted)
	if err != nil {
		return st, err
	}
	err = json.Unmarshal(data, &st)
	return st, err
}

// wait polls a plan's status until it stops running.
func (c *client) wait(ctx context.Context, st rrbus.PlanStatus) (_ rrbus.PlanStatus, polls int, err error) {
	for st.Status == rrbus.PlanQueued || st.Status == rrbus.PlanSimulating {
		time.Sleep(pollEvery)
		polls++
		if st, err = c.status(ctx, st.Hash); err != nil {
			return st, polls, err
		}
	}
	return st, polls, nil
}

func (c *client) status(ctx context.Context, hash string) (st rrbus.PlanStatus, err error) {
	data, err := c.do(ctx, http.MethodGet, "/v1/plans/"+hash, nil, http.StatusOK)
	if err != nil {
		return st, err
	}
	err = json.Unmarshal(data, &st)
	return st, err
}

// doc fetches a plan's document. A 409 means another client resubmitted
// the plan after it completed, so it is re-running warm; like any client
// following the 409's Retry-After, wait for it to complete and fetch again.
func (c *client) doc(ctx context.Context, hash, format string) (doc []byte, polls int, err error) {
	for attempt := 0; ; attempt++ {
		doc, err = c.do(ctx, http.MethodGet, "/v1/plans/"+hash+"/doc?format="+format, nil, http.StatusOK)
		if !errors.Is(err, errConflict) || attempt == 100 {
			return doc, polls, err
		}
		for {
			time.Sleep(pollEvery)
			polls++
			st, err := c.status(ctx, hash)
			if err != nil {
				return nil, polls, err
			}
			if st.Status != rrbus.PlanQueued && st.Status != rrbus.PlanSimulating {
				break
			}
		}
	}
}

// errConflict marks a 409 reply.
var errConflict = errors.New("409 Conflict")

// metrics scrapes /metrics into name → value (unlabelled series only).
func (c *client) metrics(ctx context.Context) (map[string]float64, error) {
	data, err := c.do(ctx, http.MethodGet, "/metrics", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	return parseMetrics(data), nil
}

func parseMetrics(data []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

// serveHTTP serves srv on a loopback port until stop, which shuts the
// listener down, drains the server and waits for both.
func serveHTTP(srv *rrbus.Server) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: srv}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return "http://" + ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		hs.Shutdown(ctx) // a straggling connection is closed by the timeout; nothing to report
		<-done
		srv.Drain()
	}, nil
}

// request is one step of a serve-mixed client's closed loop.
type request struct {
	kind   string // "paper", "fig7" or "mix"
	key    string
	body   []byte
	format string
}

// Serve-mixed script shape. The script is blocks of eight requests:
// three paper resubmits, a pair of fig7 sweeps submitted back to back so
// the two clients run them at once, and three more resubmits (the last
// replaced by a mix plan in mixPlans blocks spread over the script).
// blocksPerSecond sizes the script to the phase budget on a 2-core
// machine; the work in a script is fixed by its length, so a slower
// machine takes longer rather than doing less.
const (
	blocksPerSecond = 8.0
	mixPlans        = 8
)

// serveScript builds the request stream for a phase of the given length.
// The seed orders the paper resubmits (every plan × format pair once per
// cycle, so each cycle carries the same work) and the fig7 families.
// Each fig7 family (generator, iters) appears twice: first as kmax 40
// and kmax 60 at once — overlapping missing jobs, so store.Dedup has to
// hold one session back — then as kmax 20 and 50, which the store
// already holds. Mix plans take seeds 1…mixPlans in order for every
// benchmark seed, so each run carries the same TDMA starvation (seed 7
// starves; see NOTES.md) and the same time lost to it.
func serveScript(seed uint64, paper []paperPlan, seconds float64) []request {
	rng := rand.New(rand.NewSource(int64(seed)))
	blocks := int(seconds*blocksPerSecond + 0.5)
	if blocks < 2*mixPlans {
		blocks = 2 * mixPlans
	}
	families := (blocks + 1) / 2
	order := make([]int, 0, 2*families)
	for f := 0; f < families; f++ {
		order = append(order, f, f)
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	var warm []request
	nextWarm := func() request {
		if len(warm) == 0 {
			for _, p := range paper {
				for _, f := range formats {
					warm = append(warm, request{kind: "paper", key: p.Key, body: p.Body, format: f})
				}
			}
			rng.Shuffle(len(warm), func(i, j int) { warm[i], warm[j] = warm[j], warm[i] })
		}
		r := warm[0]
		warm = warm[1:]
		return r
	}
	fig7 := func(f, kmax int) request {
		g := "fig7a"
		if f%2 == 1 {
			g = "fig7b"
		}
		d := gen(fmt.Sprintf("%s/iters%d/kmax%d", g, 10+2*(f/2), kmax), g,
			rrbus.Params{"kmax": kmax, "iters": 10 + 2*(f/2)})
		return request{kind: "fig7", key: d.Key, body: d.Body, format: formats[rng.Intn(len(formats))]}
	}
	mixAt := map[int]int{}
	for j := 0; j < mixPlans; j++ {
		mixAt[(2*j+1)*blocks/(2*mixPlans)] = j + 1
	}
	seen := map[int]bool{}
	var script []request
	for blk, f := range order[:blocks] {
		script = append(script, nextWarm(), nextWarm(), nextWarm())
		if !seen[f] {
			script = append(script, fig7(f, 40), fig7(f, 60))
		} else {
			script = append(script, fig7(f, 20), fig7(f, 50))
		}
		seen[f] = true
		script = append(script, nextWarm(), nextWarm())
		if m, ok := mixAt[blk]; ok {
			script = append(script, mixRequest(m, formats[rng.Intn(len(formats))]))
		} else {
			script = append(script, nextWarm())
		}
	}
	return script
}

// mixRequest is the seeded mix plan at one stream position.
func mixRequest(seed int, format string) request {
	d := gen(fmt.Sprintf("mix/seed%d", seed), "mix", rrbus.Params{"count": 4, "seed": seed})
	return request{kind: "mix", key: d.Key, body: d.Body, format: format}
}

// reqResult is one completed request's outcome, merged after the loop.
type reqResult struct {
	r         request
	jobs      int
	simulated int64
	polls     int
	latMs     float64
	doc       []byte
	err       error
	starved   bool
	starveErr string
}

// closedLoop runs n clients over count requests; each client takes the
// next request only after its previous one completes. Results are in
// request order.
func closedLoop[T any](n, count int, do func(i int) T) []T {
	out := make([]T, count)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= count {
					return
				}
				out[i] = do(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// submission is a plan a client has posted: what it compiled locally (to
// know the hash the server must report) and the status the server
// answered with.
type submission struct {
	r    request
	rid  int64
	t0   time.Time
	hash string
	jobs int
	st   rrbus.PlanStatus
	err  error
}

// submit compiles a request's plan and posts it.
func submit(ctx context.Context, c *client, r request, rid int64, tr *tracer) submission {
	ctx = context.WithValue(ctx, reqKey{}, rid)
	s := submission{r: r, rid: rid, t0: time.Now()}
	_, end := tr.begin("scenario.compile", 0, rid)
	p, err := compilePlan(r.body)
	end()
	if err != nil {
		s.err = err
		return s
	}
	s.hash, s.jobs = p.Hash(), len(p.Jobs)
	s.st, s.err = c.post(ctx, r.body)
	return s
}

// finish polls a submitted plan until it stops running and fetches its
// document in each format asked for; latency runs from the submission.
func (s submission) finish(ctx context.Context, c *client, fmts []string) []reqResult {
	ctx = context.WithValue(ctx, reqKey{}, s.rid)
	base := reqResult{r: s.r, jobs: s.jobs, err: s.err}
	if base.err == nil {
		var st rrbus.PlanStatus
		st, base.polls, base.err = c.wait(ctx, s.st)
		base.simulated = st.Simulated
		if base.err == nil {
			base.starved, base.err = planOutcome(s.r, st, s.hash)
			if base.starved {
				base.starveErr = st.Err
			}
		}
	}
	if base.err != nil || base.starved {
		return []reqResult{base}
	}
	out := make([]reqResult, 0, len(fmts))
	for _, f := range fmts {
		res := base
		res.r.format = f
		var polls int
		res.doc, polls, res.err = c.doc(ctx, s.hash, f)
		res.polls += polls
		res.latMs = ms(time.Since(s.t0))
		out = append(out, res)
		base.polls = 0 // the status polls belong to the first document only
	}
	return out
}

func flatten[T any](xss [][]T) []T {
	var out []T
	for _, xs := range xss {
		out = append(out, xs...)
	}
	return out
}

// planOutcome judges a plan's final status: complete with the hash the
// client compiled is success; a mix plan failed by a TDMA job that ran
// out of cycles is the known starvation defect; anything else is a
// failed operation.
func planOutcome(r request, st rrbus.PlanStatus, hash string) (starved bool, err error) {
	switch {
	case st.Hash != hash:
		return false, fmt.Errorf("server reports plan hash %.12s, compiled %.12s", st.Hash, hash)
	case st.Status == rrbus.PlanFailed && r.kind == "mix" && tdmaStarved.MatchString(st.Err):
		return true, nil
	case st.Status != rrbus.PlanComplete:
		return false, fmt.Errorf("plan ended %s: %s", st.Status, st.Err)
	}
	return false, nil
}

// tdmaStarved matches the error of a TDMA mix job that ran to MaxCycles.
var tdmaStarved = regexp.MustCompile(`job "mix/\d+/tdma": sim: \w+ exceeded \d+ cycles`)

// serveMixed drives an in-process rrbus-serve in local mode.
var serveMixed = &workload{
	name:   "serve-mixed",
	single: true,
	pass:   servePass,
}

// dedupAllowance is how many duplicate simulations a serve-mixed pass may
// carry before its output is judged wrong. Each duplicate counts in
// failed_ratio either way (see the store.Dedup race in NOTES.md: 0 to 6
// per run were seen); beyond the allowance Dedup is taken to be broken: the
// fig7 pairs submitted together share about 3500 missing jobs at 15 s,
// which without it would be simulated twice.
const dedupAllowance = 16

func servePass(b *bench, env *phaseEnv, tr *tracer, budget time.Duration) (*passOut, error) {
	// The store directory outlives the pass: the checks read it after the
	// measured window and then remove it.
	dir := filepath.Join(b.work, fmt.Sprintf("serve-%d", boolInt(tr != nil)))
	if err := copyDir(b.refDir, dir); err != nil {
		return nil, err
	}
	script := serveScript(b.seed, b.plans, budget.Seconds())
	st, puts, err := env.openCounted(dir, tr)
	if err != nil {
		return nil, err
	}
	// nproc plans run at once, one simulation goroutine each: at most
	// nproc simulate, and overlapping plans can meet in store.Dedup.
	srv := rrbus.NewServer(st, rrbus.ServeOptions{Workers: 1, MaxActivePlans: b.nproc, Retry: rrbus.DefaultRetry})
	base, stop, err := serveHTTP(srv)
	if err != nil {
		return nil, err
	}
	defer stop()
	c := b.client(base, tr)
	defer b.transport.CloseIdleConnections()
	ctx := context.Background()
	m0, err := c.metrics(ctx)
	if err != nil {
		return nil, err
	}
	exec0 := sim.ReadExecStats()
	t0, cpu0 := time.Now(), cpuTime()
	results := flatten(closedLoop(b.nproc, len(script), func(i int) []reqResult {
		return submit(ctx, c, script[i], int64(i+1), tr).finish(ctx, c, []string{script[i].format})
	}))
	out := &passOut{wall: time.Since(t0), cpu: cpuTime() - cpu0, exact: execDelta(exec0), layer: map[string]float64{}}
	m1, err := c.metrics(ctx)
	if err != nil {
		return nil, err
	}
	out.exact["sim.jobs_simulated"] = int64(m1["rrbus_jobs_simulated_total"] - m0["rrbus_jobs_simulated_total"])
	out.exact["serve.simulated_jobs"] = out.exact["sim.jobs_simulated"]
	// Not exact: a resubmit that arrives while the same plan still runs
	// joins that run instead of reading the store again.
	out.layer["serve.store_hits"] = m1["rrbus_jobs_store_hits_total"] - m0["rrbus_jobs_store_hits_total"]
	polls := 0
	for _, res := range results {
		polls += res.polls
	}
	out.layer["serve.polls_per_plan"] = float64(polls) / float64(len(results))
	counts := puts.counts()
	out.verify = func() {
		defer os.RemoveAll(dir)
		if err := b.checkServed(out, dir, script, results, counts); err != nil {
			out.fail("serve checks: %v", err)
		}
	}
	return out, nil
}

// checkServed runs serve-mixed's checks on a bare store opened over the
// directory the server used. Paper resubmits must be warm and match the
// reference; fig7 and mix documents must match a local render of the
// rows the server recorded; no job may be simulated twice.
func (b *bench) checkServed(out *passOut, dir string, script []request, results []reqResult, puts map[string]int) error {
	st, err := rrbus.OpenDirStore(dir)
	if err != nil {
		return err
	}
	// Dedup: jobs simulated against the distinct job hashes the script's
	// plans were missing from the store at the start.
	have := map[string]bool{}
	for _, p := range b.plans {
		for _, h := range p.plan.JobHashes() {
			have[h] = true
		}
	}
	missing := map[string]rrbus.Job{}
	for _, r := range script {
		if r.kind == "paper" {
			continue
		}
		p, err := compilePlan(r.body)
		if err != nil {
			return err
		}
		for i, h := range p.JobHashes() {
			if !have[h] {
				missing[h] = p.Jobs[i]
			}
		}
	}
	out.exact["serve.missing_jobs"] = int64(len(missing))
	out.layer["serve.dedup_ratio"] = float64(out.exact["sim.jobs_simulated"]) / float64(len(missing))
	dupErr := b.checkDuplicates(out, missing, puts)
	tally(out, results, func(res reqResult) error {
		if res.r.kind != "paper" {
			return checkServedDoc(st, res)
		}
		if res.simulated != 0 {
			return fmt.Errorf("warm resubmit simulated %d jobs", res.simulated)
		}
		if got, want := digest(res.doc), b.ref[res.r.key][res.r.format]; got != want {
			return fmt.Errorf("served digest %.12s, reference %.12s", got, want)
		}
		return nil
	})
	return dupErr
}

// checkDuplicates finds jobs the server simulated more than once — a job
// missing from the store is recorded once, any other job never. Each
// duplicate counts in failed_ratio; more than dedupAllowance fail the
// pass's output as well. Each duplicate is then simulated alone once more
// to measure its work, which is taken out of the simulation counters, so
// they stay exact across passes and runs.
func (b *bench) checkDuplicates(out *passOut, missing map[string]rrbus.Job, puts map[string]int) error {
	extra := map[string]int{}
	dups := 0
	for h, n := range puts {
		if _, ok := missing[h]; ok {
			n--
		}
		if n > 0 {
			extra[h] = n
			dups += n
		}
	}
	if dups == 0 {
		return nil
	}
	msg := fmt.Sprintf("store.Dedup: %d duplicate simulations of %d distinct missing jobs", dups, len(missing))
	out.defects = append(out.defects, msg)
	out.ops.Duplicated += dups
	if dups > dedupAllowance {
		out.fail("%s, more than the %d the known race explains", msg, dedupAllowance)
	}
	for h, n := range extra {
		j, ok := missing[h]
		if !ok {
			return fmt.Errorf("job %.12s was simulated though the store held it", h)
		}
		work, err := b.jobWork(j, h)
		if err != nil {
			return err
		}
		for k, v := range work {
			out.exact[k] -= int64(n) * v
		}
		out.exact["sim.jobs_simulated"] -= int64(n)
		out.exact["serve.simulated_jobs"] -= int64(n)
	}
	return nil
}

// jobWork simulates one job alone into a scratch store and returns the
// simulator work it took.
func (b *bench) jobWork(j rrbus.Job, hash string) (map[string]int64, error) {
	p, err := rrbus.CompilePlan(&rrbus.PlanSpec{Jobs: []rrbus.Job{j}})
	if err != nil {
		return nil, err
	}
	if got := p.JobHashes()[0]; got != hash {
		return nil, fmt.Errorf("job %.12s recompiles to %.12s", hash, got)
	}
	dir := filepath.Join(b.work, "job-work")
	defer os.RemoveAll(dir)
	st, err := rrbus.OpenDirStore(dir)
	if err != nil {
		return nil, err
	}
	exec0 := sim.ReadExecStats()
	if _, err := (&rrbus.Session{Store: st, Workers: 1}).RunAll(p); err != nil {
		return nil, err
	}
	return execDelta(exec0), nil
}

// tally counts each request as one operation: a transport, status or
// output-check failure fails it, a TDMA starvation counts apart,
// and a delivered document adds its rows, bytes and latency.
func tally(out *passOut, results []reqResult, check func(reqResult) error) {
	for _, res := range results {
		out.ops.Attempted++
		if res.starved {
			out.ops.Starved++
			out.defects = append(out.defects, fmt.Sprintf("%s: TDMA starvation: %s", res.r.key, res.starveErr))
			continue
		}
		err := res.err
		if err == nil {
			err = check(res)
		}
		if err != nil {
			out.fail("%s (%s): %v", res.r.key, res.r.format, err)
			continue
		}
		out.plans++
		out.rows += res.jobs
		out.exact["report.bytes"] += int64(len(res.doc))
		out.docMs = append(out.docMs, res.latMs)
		if res.simulated == 0 {
			out.warmMs = append(out.warmMs, res.latMs)
		} else {
			out.coldMs = append(out.coldMs, res.latMs)
		}
	}
}

// checkServedDoc re-renders a served plan from the rows the server
// recorded, as rrbus-figures would from the same store, and compares.
func checkServedDoc(st rrbus.Store, res reqResult) error {
	p, err := compilePlan(res.r.body)
	if err != nil {
		return err
	}
	sess := &rrbus.Session{Store: st, Workers: 1}
	rows, err := sess.RunAll(p)
	if err != nil {
		return err
	}
	if sess.Simulated() != 0 {
		return fmt.Errorf("server recorded only %d of %d rows", sess.StoreHits(), len(p.Jobs))
	}
	doc, err := rrbus.DocumentFor(p, rows)
	if err != nil {
		return err
	}
	if !rrbus.HasRenderer(p.Generator()) {
		doc.Prepend(rrbus.HeadingBlock{Level: 1, Text: fmt.Sprintf("scenario %s: %d jobs", p.Name(), len(p.Jobs))})
	}
	backend, err := rrbus.BackendByName(res.r.format)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := rrbus.RenderTo(&buf, doc, backend); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), res.doc) {
		return errors.New("served document differs from a local render of the recorded rows")
	}
	return nil
}

// fleetReplay is a distribute-mode coordinator with nproc warm workers.
var fleetReplay = &workload{
	name: "fleet-replay",
	pass: fleetPass,
}

func fleetPass(b *bench, env *phaseEnv, tr *tracer, _ time.Duration) (*passOut, error) {
	// The workers' warm stores are copied once per phase.
	for i := len(env.dirs); i < b.nproc; i++ {
		dir := filepath.Join(b.work, fmt.Sprintf("worker-%d-%d", boolInt(tr != nil), i))
		env.dirs = append(env.dirs, dir)
		if err := copyDir(b.refDir, dir); err != nil {
			return nil, err
		}
	}
	dir := filepath.Join(b.work, fmt.Sprintf("coord-%d-%d", boolInt(tr != nil), env.passNum))
	defer os.RemoveAll(dir)
	st, _, err := env.open(dir, tr)
	if err != nil {
		return nil, err
	}
	srv := rrbus.NewServer(st, rrbus.ServeOptions{Distribute: true, Retry: rrbus.DefaultRetry})
	base, stop, err := serveHTTP(srv)
	if err != nil {
		return nil, err
	}
	defer stop()
	defer b.transport.CloseIdleConnections()
	c := b.client(base, tr)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	workers := make([]*rrbus.Worker, b.nproc)
	for i := range workers {
		wst, _, err := env.open(env.dirs[i], tr)
		if err != nil {
			cancel()
			wg.Wait()
			return nil, err
		}
		workers[i] = rrbus.NewWorker(base, rrbus.WorkerOptions{
			Name: fmt.Sprintf("bench-%d", i), Store: wst, Workers: 1,
			Poll: 5 * time.Millisecond, Retry: rrbus.DefaultRetry, Client: c.hc,
		})
		wg.Add(1)
		go func(w *rrbus.Worker) {
			defer wg.Done()
			w.Run(ctx) // returns ctx.Err() on the drain below
		}(workers[i])
	}
	stopWorkers := func() { cancel(); wg.Wait() }
	if err := awaitWorkers(ctx, c, b.nproc); err != nil {
		stopWorkers()
		return nil, err
	}

	reqs := make([]request, len(b.plans))
	for i, p := range b.plans {
		reqs[i] = request{kind: "paper", key: p.Key, body: p.Body}
	}
	exec0 := sim.ReadExecStats()
	t0, cpu0 := time.Now(), cpuTime()
	// One client takes the plans in turn, so each plan's latency is its
	// own trip through the fleet rather than its place behind another.
	results := flatten(closedLoop(1, len(reqs), func(i int) []reqResult {
		return submit(ctx, c, reqs[i], int64(i+1), tr).finish(ctx, c, formats)
	}))
	out := &passOut{wall: time.Since(t0), cpu: cpuTime() - cpu0, exact: execDelta(exec0), layer: map[string]float64{}}
	m, err := c.metrics(context.Background())
	stopWorkers()
	if err != nil {
		return nil, err
	}
	var leases int64
	for _, w := range workers {
		s := w.Summary()
		out.exact["sim.jobs_simulated"] += s.Simulated
		leases += s.Leases
	}
	out.exact["dist.ingested"] = int64(m["rrbus_dist_rows_ingested_total"])
	out.exact["dist.requeued"] = int64(m["rrbus_dist_jobs_requeued_total"])
	out.exact["dist.rejected"] = int64(m["rrbus_dist_rows_rejected_total"])
	out.layer["dist.leases_run"] = float64(leases)
	assertNoSimulation(out)
	if out.exact["dist.requeued"] != 0 || out.exact["dist.rejected"] != 0 {
		out.fail("dist requeued %d and rejected %d rows, want 0 and 0", out.exact["dist.requeued"], out.exact["dist.rejected"])
	}

	byKey := map[string][]reqResult{}
	polls := 0
	for _, res := range results {
		byKey[res.r.key] = append(byKey[res.r.key], res)
		polls += res.polls
	}
	out.layer["serve.polls_per_plan"] = float64(polls) / float64(len(reqs))
	for _, p := range b.plans {
		out.ops.Attempted++
		got := byKey[p.Key]
		if err := fleetDocsErr(b.ref[p.Key], got); err != nil {
			out.fail("%s: %v", p.Key, err)
			continue
		}
		for _, res := range got {
			out.exact["report.bytes"] += int64(len(res.doc))
			out.docMs = append(out.docMs, res.latMs)
		}
		out.plans++
		out.rows += len(p.plan.Jobs)
	}
	return out, nil
}

// fleetDocsErr checks one plan's fetched documents against the reference
// digests: all formats present, none failed, every byte equal.
func fleetDocsErr(ref map[string]string, got []reqResult) error {
	for _, res := range got {
		if res.err != nil {
			return res.err
		}
		if sum, want := digest(res.doc), ref[res.r.format]; sum != want {
			return fmt.Errorf("%s: served digest %.12s, reference %.12s", res.r.format, sum, want)
		}
	}
	if len(got) != len(formats) {
		return fmt.Errorf("%d of %d documents delivered", len(got), len(formats))
	}
	return nil
}

// awaitWorkers waits until the coordinator has seen n workers register.
func awaitWorkers(ctx context.Context, c *client, n int) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		m, err := c.metrics(ctx)
		if err == nil && int(m["rrbus_dist_workers"]) >= n {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("fewer than %d workers registered within 30s", n)
}
