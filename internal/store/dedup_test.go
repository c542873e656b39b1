package store_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rrbus/internal/exp"
	"rrbus/internal/scenario"
	"rrbus/internal/store"
)

// gateStore blocks every Get until the gate channel is closed — a
// deterministic way to freeze a session mid-lookup and observe its
// gauges.
type gateStore struct {
	store.Store
	gate chan struct{}
}

func (g *gateStore) Get(h string) (scenario.Result, bool, error) {
	<-g.gate
	return g.Store.Get(h)
}

// TestSessionGauges pins the QueueDepth/InFlight introspection contract:
// while a run is frozen in its lookups, in-flight equals the worker
// count and queue depth the rest of the jobs; after the run both gauges
// read 0 again.
func TestSessionGauges(t *testing.T) {
	// The engine-wide worker budget defaults to GOMAXPROCS; pin it to 2
	// so the test observes genuine two-worker concurrency on any runner.
	exp.SetWorkers(2)
	defer exp.SetWorkers(0)
	c := compileFig7(t, 6)
	gate := make(chan struct{})
	sess := &store.Session{Store: &gateStore{Store: store.NewMem(), gate: gate}, Workers: 2}
	if sess.QueueDepth() != 0 || sess.InFlight() != 0 {
		t.Fatalf("idle session reports queue=%d inflight=%d, want 0/0", sess.QueueDepth(), sess.InFlight())
	}

	errc := make(chan error, 1)
	go func() {
		_, err := sess.RunAll(c)
		errc <- err
	}()

	// Both workers park in Get; the gauges must converge on 2 in flight
	// and len(jobs)-2 queued.
	deadline := time.Now().Add(5 * time.Second)
	for {
		q, f := sess.QueueDepth(), sess.InFlight()
		if f == 2 && q == int64(len(c.Jobs)-2) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gauges never converged: queue=%d inflight=%d, want %d/2", q, f, len(c.Jobs)-2)
		}
		time.Sleep(time.Millisecond)
	}

	close(gate)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if q, f := sess.QueueDepth(), sess.InFlight(); q != 0 || f != 0 {
		t.Errorf("finished session reports queue=%d inflight=%d, want 0/0", q, f)
	}
	if got, want := sess.Simulated(), int64(len(c.Jobs)); got != want {
		t.Errorf("simulated %d, want %d", got, want)
	}
}

// TestDedupAtMostOnce is the server-side overlap guarantee: concurrent
// sessions running overlapping plans against one Dedup-guarded store
// simulate each missing job hash exactly once between them, no matter
// how the race falls.
func TestDedupAtMostOnce(t *testing.T) {
	fig, err := scenario.CompileGenerator("fig7", scenario.Params{"arch": "toy", "kmax": 6})
	if err != nil {
		t.Fatal(err)
	}
	der, err := scenario.CompileGenerator("derive", scenario.Params{"arch": "toy", "kmax": 6})
	if err != nil {
		t.Fatal(err)
	}
	// The derive plan re-measures the fig7 sweep's k range plus its own
	// δnop calibration job, so the union is one job larger.
	union := map[string]bool{}
	for _, h := range fig.JobHashes() {
		union[h] = true
	}
	for _, h := range der.JobHashes() {
		union[h] = true
	}
	if len(union) >= len(fig.Jobs)+len(der.Jobs) {
		t.Fatalf("plans do not overlap (union %d of %d+%d jobs) — the test needs contention", len(union), len(fig.Jobs), len(der.Jobs))
	}

	for round := 0; round < 3; round++ {
		under := store.NewMem()
		d := store.NewDedup()
		plans := []*scenario.Compiled{fig, der}
		sessions := make([]*store.Session, len(plans))
		var wg sync.WaitGroup
		errs := make([]error, len(plans))
		for k, c := range plans {
			view := d.Wrap(under)
			sessions[k] = &store.Session{Store: view, Workers: 2}
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[k] = sessions[k].RunAll(c)
				view.Close()
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		var simulated, hits int64
		for _, s := range sessions {
			simulated += s.Simulated()
			hits += s.StoreHits()
		}
		if got, want := simulated, int64(len(union)); got != want {
			t.Errorf("round %d: simulated %d jobs across sessions, want exactly the union %d", round, got, want)
		}
		if got, want := simulated+hits, int64(len(fig.Jobs)+len(der.Jobs)); got != want {
			t.Errorf("round %d: simulated %d + hits %d = %d, want every job accounted (%d)", round, simulated, hits, got, want)
		}
	}
}

// TestDedupAbandonedClaimWakesWaiter covers the failure path: a view
// that claimed a hash and then died (Close without Put) must wake its
// waiters, and a waiter then claims — and simulates — itself instead of
// hanging or silently skipping the job.
func TestDedupAbandonedClaimWakesWaiter(t *testing.T) {
	under := store.NewMem()
	d := store.NewDedup()
	a, b := d.Wrap(under), d.Wrap(under)

	if _, ok, err := a.Get("h1"); ok || err != nil {
		t.Fatalf("first Get = (%v, %v), want a claimed miss", ok, err)
	}
	// A duplicate miss on the claim owner must not deadlock: a plan can
	// list the same job twice.
	if _, ok, err := a.Get("h1"); ok || err != nil {
		t.Fatalf("owner re-Get = (%v, %v), want a miss", ok, err)
	}

	got := make(chan bool, 1)
	go func() {
		_, ok, _ := b.Get("h1")
		got <- ok
	}()
	select {
	case <-got:
		t.Fatal("waiter returned while the claim was still held")
	case <-time.After(50 * time.Millisecond):
	}

	a.Close() // abandoned run: claim released without a row
	select {
	case ok := <-got:
		if ok {
			t.Error("waiter saw a hit for a row that was never recorded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked after the owner closed")
	}

	// The waiter now owns the claim; its Put releases it and later views
	// hit.
	if err := b.Put("h1", scenario.Result{Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := d.Wrap(under).Get("h1"); !ok || err != nil {
		t.Fatalf("post-Put Get = (%v, %v), want a hit", ok, err)
	}
}

// blockPutStore stalls every Put until the gate closes and signals (once)
// when the first Put is entered — it holds a session "mid-simulation",
// after the work but before the row lands.
type blockPutStore struct {
	store.Store
	gate    chan struct{}
	entered chan struct{}
	once    sync.Once
}

func (b *blockPutStore) Put(h string, r scenario.Result) error {
	b.once.Do(func() { close(b.entered) })
	<-b.gate
	return b.Store.Put(h, r)
}

// TestDedupOwnerCloseMidSimulationReleasesWaiters is the drain story:
// the view that owns a claim is Close()d while its session is still
// mid-simulation (row not yet recorded) with several sessions blocked on
// the same hash. All waiters must wake, exactly one must re-claim and
// simulate, and the rest must be served from the store.
func TestDedupOwnerCloseMidSimulationReleasesWaiters(t *testing.T) {
	c, err := scenario.CompileGenerator("fig2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Jobs) != 1 {
		t.Fatalf("fig2 compiles to %d jobs, the test needs exactly 1", len(c.Jobs))
	}

	under := store.NewMem()
	d := store.NewDedup()
	gate := make(chan struct{})
	blocked := &blockPutStore{Store: under, gate: gate, entered: make(chan struct{})}
	ownerView := d.Wrap(blocked)
	owner := &store.Session{Store: ownerView}

	var ownerWg sync.WaitGroup
	ownerWg.Add(1)
	go func() {
		defer ownerWg.Done()
		owner.RunAll(c) // parks inside Put until the gate opens
	}()
	t.Cleanup(func() { close(gate); ownerWg.Wait() })

	select {
	case <-blocked.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("owner session never reached Put")
	}

	// Three sessions pile up on the claimed hash.
	const waiters = 3
	sessions := make([]*store.Session, waiters)
	views := make([]*store.DedupStore, waiters)
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := range sessions {
		views[i] = d.Wrap(under)
		sessions[i] = &store.Session{Store: views[i]}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = sessions[i].RunAll(c)
			views[i].Close()
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let them reach Get and block

	// The owner's run is drained mid-simulation: its claim is abandoned
	// with the row still unrecorded.
	ownerView.Close()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("waiters still blocked after the owner view closed")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	var simulated, hits int64
	for _, s := range sessions {
		simulated += s.Simulated()
		hits += s.StoreHits()
	}
	if simulated != 1 || hits != waiters-1 {
		t.Fatalf("waiters simulated %d / hit %d, want exactly one re-simulation and %d hits", simulated, hits, waiters-1)
	}
}

// hookGetStore runs hook once, on the first Get, after the underlying
// read and before its result is returned: it widens the window between a
// view reading the store and taking its claim.
type hookGetStore struct {
	store.Store
	fired atomic.Bool
	hook  func()
}

func (h *hookGetStore) Get(hash string) (scenario.Result, bool, error) {
	r, ok, err := h.Store.Get(hash)
	if h.fired.CompareAndSwap(false, true) {
		h.hook()
	}
	return r, ok, err
}

// TestDedupClaimAfterOwnerRelease is the claim race: a reader has read a
// miss but not yet claimed the hash when the owner records the row and
// releases its claim. The reader must see the recorded row, not claim
// the hash and simulate the job again.
func TestDedupClaimAfterOwnerRelease(t *testing.T) {
	c, err := scenario.CompileGenerator("fig2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Jobs) != 1 {
		t.Fatalf("fig2 compiles to %d jobs, the test needs exactly 1", len(c.Jobs))
	}
	d := store.NewDedup()
	under := &hookGetStore{Store: store.NewMem()}
	owner := &store.Session{Store: d.Wrap(under), Workers: 1}
	reader := &store.Session{Store: d.Wrap(under), Workers: 1}
	// The reader's first Get fires the hook: the owner's whole run —
	// claim, simulate, Put, release — lands inside the reader's window.
	under.hook = func() {
		if _, err := owner.RunAll(c); err != nil {
			t.Error(err)
		}
	}
	if _, err := reader.RunAll(c); err != nil {
		t.Fatal(err)
	}
	if got := owner.Simulated() + reader.Simulated(); got != 1 {
		t.Errorf("job simulated %d times (owner %d, reader %d), want once",
			got, owner.Simulated(), reader.Simulated())
	}
	if got := reader.StoreHits(); got != 1 {
		t.Errorf("reader store hits = %d, want 1", got)
	}
}
