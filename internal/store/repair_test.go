package store_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"rrbus/internal/store"
)

// TestRepairHealsStore is the store-wide acceptance test: a store with a
// corrupted record, a deleted record and a record whose hash field was
// altered is made whole by one repair pass — damage quarantined, missing rows re-simulated from
// the plan manifests, verify clean, warm re-runs hitting everything.
func TestRepairHealsStore(t *testing.T) {
	root := filepath.Join(t.TempDir(), "results")
	d, err := store.OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	c := compileFig7(t, 6)
	_, cleanText, _ := runAll(t, d, c)

	recs := logRecords(t, root)
	if len(recs) < 3 {
		t.Fatalf("need 3 records to damage, have %d", len(recs))
	}
	// Alter the third record's hash field (it now claims a hash it was
	// not recorded for), bit-flip the first record's row, and delete the
	// second record's line, moving every record after it.
	at := bytes.Index(recs[2].line, []byte(`"hash":"`)) + len(`"hash":"`)
	altered := bytes.Clone(recs[2].line)
	altered[at] ^= 0x01
	rewriteRecord(t, recs[2], altered)
	corrupt(t, root)
	cutRecord(t, recs[1])

	rep, err := d.Repair(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("repair left issues: %+v unrepairable=%v", rep.Issues, rep.Unrepairable)
	}
	if rep.Quarantined != 2 {
		t.Errorf("quarantined %d records, want 2 (corrupt + altered hash)", rep.Quarantined)
	}
	if rep.PlansReplayed != 1 {
		t.Errorf("replayed %d plans, want 1", rep.PlansReplayed)
	}
	if rep.Resimulated != 3 {
		t.Errorf("re-simulated %d rows, want 3 (corrupt + deleted + altered hash)", rep.Resimulated)
	}

	audit, err := d.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !audit.OK() {
		t.Errorf("store does not verify after repair: %+v", audit.Issues)
	}

	// The healed store serves everything: no simulations, identical text.
	_, healedText, warm := runAll(t, d, c)
	if warm.Simulated() != 0 {
		t.Errorf("post-repair run simulated %d jobs, want 0", warm.Simulated())
	}
	if healedText != cleanText {
		t.Error("post-repair render differs from the clean run")
	}

	// gc bookkeeping: both quarantined records are listed with a reason
	// and removable. The bit-flipped row's hash is healed; the altered
	// record is filed under the hash it claims, which no job has.
	qs, err := d.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 {
		t.Fatalf("quarantine lists %d entries, want 2: %+v", len(qs), qs)
	}
	healed := 0
	for _, q := range qs {
		if q.Healed {
			healed++
		}
		if q.Reason == "" {
			t.Errorf("quarantined %s has no recorded reason", q.Hash)
		}
		if err := d.RemoveQuarantined(q.Hash); err != nil {
			t.Fatal(err)
		}
	}
	if healed != 1 {
		t.Errorf("%d quarantined records marked healed after repair, want 1: %+v", healed, qs)
	}
	if qs, _ = d.Quarantined(); len(qs) != 0 {
		t.Errorf("quarantine not empty after gc: %+v", qs)
	}
}

// TestRepairUnrepairableWithoutSpec checks the pre-resilience manifest
// path: a manifest that never recorded its spec cannot re-derive a
// missing row, and repair must say so instead of pretending the store is
// whole.
func TestRepairUnrepairableWithoutSpec(t *testing.T) {
	root := filepath.Join(t.TempDir(), "results")
	d, err := store.OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	c := compileFig7(t, 3)
	runAll(t, d, c)

	// Strip the recorded spec, simulating a manifest from before the
	// resilience layer.
	mpath := filepath.Join(root, "plans", c.Hash()+".json")
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "spec")
	stripped, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mpath, stripped, 0o644); err != nil {
		t.Fatal(err)
	}

	cutRecord(t, logRecords(t, root)[0])

	rep, err := d.Repair(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("repair claims a store with an underivable missing row is whole")
	}
	if len(rep.Unrepairable) != 1 {
		t.Errorf("unrepairable = %v, want exactly the lost hash", rep.Unrepairable)
	}
	if rep.PlansReplayed != 0 || rep.Resimulated != 0 {
		t.Errorf("repair replayed %d plans / %d rows with nothing to replay from", rep.PlansReplayed, rep.Resimulated)
	}
}
