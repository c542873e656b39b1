// Store walkthrough: the Plan→Run→Store→Render pipeline end to end —
// measure a sweep once into a content-addressed results store, re-run it
// warm (zero simulations), reuse the recorded rows from a *different*
// plan whose jobs overlap, render every artifact from recorded rows
// alone — then break things on purpose: kill a sweep mid-flight and
// resume it warm, and corrupt a recorded entry and watch the session
// quarantine and heal it.
//
// Run with:
//
//	go run ./examples/store
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"rrbus"
)

// killingStore wraps a Store and cancels a context after serving a fixed
// number of lookups — a deterministic stand-in for hitting Ctrl-C in the
// middle of a sweep (the CLIs wire the same cancellation to SIGINT via
// rrbus.SignalContext).
type killingStore struct {
	rrbus.Store
	after  int
	cancel context.CancelFunc
}

func (k *killingStore) Get(jobHash string) (rrbus.Result, bool, error) {
	if k.after--; k.after < 0 {
		k.cancel()
	}
	return k.Store.Get(jobHash)
}

func main() {
	// A content-addressed results store: one integrity-checked entry
	// per recorded job, keyed by the job's content hash, shareable
	// across runs, processes and machines. (The CLIs open the same kind
	// of store with -store <dir>.)
	dir := filepath.Join(os.TempDir(), "rrbus-store-example")
	defer os.RemoveAll(dir)
	store, err := rrbus.OpenDirStore(dir)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Plan: compile the paper's central experiment — the Fig. 7
	// rsk-nop slowdown sweep — into a content-addressed job list.
	plan, err := rrbus.GeneratorPlan("fig7", rrbus.Params{"arch": "toy", "kmax": 14})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan %s: %d jobs, hash %.12s…\n", plan.Name(), len(plan.Jobs), plan.Hash())

	// 2. Run, cold: every job simulates; fresh rows stream into the
	// store as they are emitted.
	cold := &rrbus.Session{Store: store}
	results, err := cold.RunAll(plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cold run:  %2d simulated, %2d served from store\n", cold.Simulated(), cold.StoreHits())

	// 3. Run, warm: the same plan again. Every job's hash is already
	// recorded, so nothing simulates — and because renderers consume
	// only recorded rows, the output is byte-identical.
	warm := &rrbus.Session{Store: store}
	warmResults, err := warm.RunAll(plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm run:  %2d simulated, %2d served from store\n", warm.Simulated(), warm.StoreHits())

	coldText, err := rrbus.Render(plan, results)
	if err != nil {
		log.Fatal(err)
	}
	warmText, err := rrbus.Render(plan, warmResults)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("render byte-identical: %v\n\n", coldText == warmText)

	// 4. Cross-plan reuse: a derivation sweep over the same k range is
	// a *different* plan (different generator, different job IDs), but
	// its per-k jobs measure the same scenarios — same content hashes —
	// so only the δnop calibration job actually simulates.
	derive, err := rrbus.GeneratorPlan("derive", rrbus.Params{"arch": "toy", "kmax": 14})
	if err != nil {
		log.Fatal(err)
	}
	overlap := &rrbus.Session{Store: store}
	deriveResults, err := overlap.RunAll(derive)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("derive run: %2d simulated, %2d served from store (only the δnop calibration is new)\n",
		overlap.Simulated(), overlap.StoreHits())

	// 5. Render: the full bound derivation, rebuilt from recorded rows —
	// 14 of which were measured by a different plan.
	d, err := rrbus.DeriveFromResults(derive, deriveResults)
	if err != nil {
		log.Fatal(err)
	}
	if d.Err != nil {
		log.Fatal(d.Err)
	}
	fmt.Printf("derived ubdm = %d cycles (actual ubd = %d) — from the store, not the simulator\n",
		d.Res.UBDm, d.Cfg.UBD())

	// 6. Kill and resume: cancel a cold sweep partway through. The
	// session drains gracefully — no new jobs launch, in-flight jobs
	// finish, and every completed row is already recorded — so the error
	// is context.Canceled, not lost work. Re-running the same plan
	// resumes warm: only the unfinished jobs simulate.
	dir2 := filepath.Join(os.TempDir(), "rrbus-store-example-resume")
	defer os.RemoveAll(dir2)
	store2, err := rrbus.OpenDirStore(dir2)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed := &rrbus.Session{
		Store:   &killingStore{Store: store2, after: 6, cancel: cancel},
		Workers: 1, // serial, so the "kill" lands at a deterministic row
	}
	if _, err := killed.RunAllContext(ctx, plan); !errors.Is(err, context.Canceled) {
		log.Fatalf("expected context.Canceled, got %v", err)
	}
	fmt.Printf("\nkilled run: %2d simulated before the interrupt, all of them recorded\n", killed.Simulated())
	resumed := &rrbus.Session{Store: store2}
	if _, err := resumed.RunAll(plan); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed:    %2d served from store, %2d simulated — only the unfinished jobs\n",
		resumed.StoreHits(), resumed.Simulated())

	// 7. Corruption heals: flip a byte inside a recorded row. Rows are
	// records — one line each — appended to the row logs under rows/;
	// the byte is flipped in place, as a bad disk would. The next
	// session that reads the row sees the integrity-checksum mismatch,
	// quarantines the record (its bytes go to quarantine/<hash>.json
	// with a .reason note, and the record is blanked in its log),
	// re-simulates the row as if it were a miss, and appends the fresh
	// result — the sweep completes as if nothing happened. (rrbus-store
	// repair heals a whole directory offline the same way; rrbus-store
	// gc lists and drops the quarantined debris.)
	hash := plan.JobHashes()[0]
	if err := flipByteInRecord(dir2, hash); err != nil {
		log.Fatal(err)
	}
	healer := &rrbus.Session{Store: store2, Retry: rrbus.DefaultRetry}
	if _, err := healer.RunAll(plan); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("healed:     %2d corrupt entry quarantined, %2d re-simulated, %2d served from store\n",
		healer.Quarantined(), healer.Repaired(), healer.StoreHits())
	qs, err := store2.Quarantined()
	if err != nil {
		log.Fatal(err)
	}
	for _, q := range qs {
		fmt.Printf("quarantine: %.12s… healed=%v\n", q.Hash, q.Healed)
	}
}

// flipByteInRecord flips one bit in the middle of the record stored
// under hash, in whichever row log holds it.
func flipByteInRecord(dir, hash string) error {
	logs, err := filepath.Glob(filepath.Join(dir, "rows", "*.log"))
	if err != nil {
		return err
	}
	for _, path := range logs {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		at := bytes.Index(data, []byte(`"hash":"`+hash+`"`))
		if at < 0 {
			continue
		}
		end := at + bytes.IndexByte(data[at:], '\n')
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		mid := (at + end) / 2
		_, err = f.WriteAt([]byte{data[mid] ^ 1}, int64(mid))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}
	return fmt.Errorf("no record of %s under %s", hash, dir)
}
