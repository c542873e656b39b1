package store_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rrbus/internal/exp"
	"rrbus/internal/report"
	"rrbus/internal/scenario"
	"rrbus/internal/store"
)

// compileFig7 compiles a small toy-platform fig7 sweep (the canonical
// shardable job list).
func compileFig7(t *testing.T, kmax int) *scenario.Compiled {
	t.Helper()
	c, err := scenario.CompileGenerator("fig7", scenario.Params{"arch": "toy", "kmax": kmax})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runAll runs a plan through a session backed by st and returns the
// results plus the rendered figure text.
func runAll(t *testing.T, st store.Store, c *scenario.Compiled) ([]scenario.Result, string, *store.Session) {
	t.Helper()
	sess := &store.Session{Store: st}
	results, err := sess.RunAll(c)
	if err != nil {
		t.Fatal(err)
	}
	text, err := report.Render(c.Generator(), c.Jobs, results)
	if err != nil {
		t.Fatal(err)
	}
	return results, text, sess
}

// jsonlOf streams a plan through a store-backed session into JSONL bytes.
func jsonlOf(t *testing.T, st store.Store, c *scenario.Compiled) ([]byte, *store.Session) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "out.jsonl")
	sess := &store.Session{Store: st}
	if err := sess.RunToFile(c, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, sess
}

// TestStoreHitMissByteIdentical is the pipeline's core property: a cold
// run (all misses), a warm run (all hits) and a storeless run of the
// same plan render byte-identical figure text and emit byte-identical
// JSONL rows — and the warm run performs zero simulations.
func TestStoreHitMissByteIdentical(t *testing.T) {
	for _, impl := range []struct {
		name string
		open func(t *testing.T) store.Store
	}{
		{"mem", func(t *testing.T) store.Store { return store.NewMem() }},
		{"dir", func(t *testing.T) store.Store {
			d, err := store.OpenDir(filepath.Join(t.TempDir(), "results"))
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
	} {
		t.Run(impl.name, func(t *testing.T) {
			c := compileFig7(t, 6)
			st := impl.open(t)

			_, baseText, _ := runAll(t, nil, c)

			_, coldText, cold := runAll(t, st, c)
			if got, want := cold.Simulated(), int64(len(c.Jobs)); got != want {
				t.Errorf("cold run simulated %d jobs, want %d", got, want)
			}
			if cold.StoreHits() != 0 {
				t.Errorf("cold run reported %d hits", cold.StoreHits())
			}
			if coldText != baseText {
				t.Error("cold store-backed render differs from storeless render")
			}

			_, warmText, warm := runAll(t, st, c)
			if warm.Simulated() != 0 {
				t.Errorf("warm run simulated %d jobs, want 0", warm.Simulated())
			}
			if got, want := warm.StoreHits(), int64(len(c.Jobs)); got != want {
				t.Errorf("warm run hit %d jobs, want %d", got, want)
			}
			if warmText != coldText {
				t.Error("store-hit render differs from store-miss render")
			}

			coldRows, _ := jsonlOf(t, nil, c)
			warmRows, warmSess := jsonlOf(t, st, c)
			if warmSess.Simulated() != 0 {
				t.Errorf("warm JSONL run simulated %d jobs", warmSess.Simulated())
			}
			if !bytes.Equal(coldRows, warmRows) {
				t.Error("store-served JSONL differs from fresh JSONL")
			}
		})
	}
}

// TestOverlapReuse checks cross-plan reuse — the property the store is
// designed around: a derivation sweep whose k jobs overlap an earlier
// fig7 sweep simulates only the δnop calibration, and its derivation
// output is byte-identical to a cold derivation.
func TestOverlapReuse(t *testing.T) {
	st := store.NewMem()
	fig7 := compileFig7(t, 8)
	if _, _, sess := runAll(t, st, fig7); sess.Simulated() != int64(len(fig7.Jobs)) {
		t.Fatalf("fig7 fill simulated %d jobs", sess.Simulated())
	}

	derive, err := scenario.CompileGenerator("derive", scenario.Params{"arch": "toy", "kmax": 8})
	if err != nil {
		t.Fatal(err)
	}
	_, warmText, warm := runAll(t, st, derive)
	if warm.Simulated() != 1 {
		t.Errorf("overlapping derivation simulated %d jobs, want 1 (the δnop calibration)", warm.Simulated())
	}
	if got, want := warm.StoreHits(), int64(len(derive.Jobs)-1); got != want {
		t.Errorf("overlapping derivation hit %d jobs, want %d", got, want)
	}

	_, coldText, _ := runAll(t, nil, derive)
	if warmText != coldText {
		t.Error("store-overlapped derivation differs from cold derivation")
	}
}

// TestSessionRelabelsStoredRows checks that a row recorded under one
// plan is served under another plan's job ID (stored rows are
// content-addressed and carry no labeling).
func TestSessionRelabelsStoredRows(t *testing.T) {
	st := store.NewMem()
	fig7 := compileFig7(t, 3)
	runAll(t, st, fig7)

	r, ok, err := st.Get(fig7.JobHashes()[0])
	if err != nil || !ok {
		t.Fatalf("stored row missing: ok=%v err=%v", ok, err)
	}
	if r.ID != "" {
		t.Errorf("stored row carries ID %q; the store must strip labeling", r.ID)
	}

	derive, err := scenario.CompileGenerator("derive", scenario.Params{"arch": "toy", "kmax": 3})
	if err != nil {
		t.Fatal(err)
	}
	results, _, _ := runAll(t, st, derive)
	if got := results[1].ID; got != derive.Jobs[1].ID {
		t.Errorf("served row ID = %q, want the requesting plan's %q", got, derive.Jobs[1].ID)
	}
}

// corrupt flips one bit inside the row bytes of the first record in the
// store's logs, in place, and returns the record as it was.
func corrupt(t *testing.T, root string) logRecord {
	t.Helper()
	r := logRecords(t, root)[0]
	i := bytes.Index(r.line, []byte(`"cycles"`))
	if i < 0 {
		t.Fatal("record has no cycles field")
	}
	flipInRecord(t, r, i+9) // a bit inside the recorded value
	return r
}

// TestCorruptionHeals checks both halves of the integrity contract. At
// the store layer a bit-flipped entry is a typed CorruptError — never a
// silent miss (re-simulating without a trace) and never a hit (deriving
// a wrong bound from damaged bytes). At the session layer that same
// corruption self-heals: the entry is quarantined, the job re-simulated,
// the output byte-identical to an undamaged run, and the store verifies
// clean afterwards.
func TestCorruptionHeals(t *testing.T) {
	root := filepath.Join(t.TempDir(), "results")
	d, err := store.OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	c := compileFig7(t, 4)
	_, cleanText, _ := runAll(t, d, c)
	corrupt(t, root)

	hit := false
	for _, h := range c.JobHashes() {
		if _, _, err := d.Get(h); err != nil {
			if !store.IsCorrupt(err) || !strings.Contains(err.Error(), "integrity") {
				t.Errorf("corruption error is not a CorruptError naming integrity: %v", err)
			}
			hit = true
		}
	}
	if !hit {
		t.Fatal("no Get reported the corrupted entry")
	}

	_, healedText, sess := runAll(t, d, c)
	if healedText != cleanText {
		t.Error("healed run renders differently from the clean run")
	}
	if sess.Quarantined() != 1 || sess.Repaired() != 1 {
		t.Errorf("healing run quarantined %d / repaired %d entries, want 1/1",
			sess.Quarantined(), sess.Repaired())
	}
	if sess.Simulated() != 1 {
		t.Errorf("healing run simulated %d jobs, want just the damaged one", sess.Simulated())
	}
	if got, want := sess.StoreHits(), int64(len(c.Jobs)-1); got != want {
		t.Errorf("healing run hit %d jobs, want %d", got, want)
	}

	// The store is whole again: verify passes and the quarantine records
	// the damaged entry as healed.
	rep, err := d.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("store does not verify after healing: %+v", rep.Issues)
	}
	qs, err := d.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 1 || !qs[0].Healed || !strings.Contains(qs[0].Reason, "integrity") {
		t.Errorf("quarantine listing = %+v, want one healed entry with an integrity reason", qs)
	}

	// Without a Quarantiner the same corruption must still be fatal —
	// healing is a capability of the store, not a license to ignore
	// damage.
	corrupt(t, root)
	strict := &store.Session{Store: noQuarantine{d}}
	if _, err := strict.RunAll(c); err == nil || !strings.Contains(err.Error(), "integrity") {
		t.Fatalf("session served a corrupted store without quarantine support: err=%v", err)
	}
	if !strings.Contains(err2str(strict, c), "hash ") {
		t.Error("store error does not name the job content hash")
	}
}

// noQuarantine hides a Dir's Quarantiner implementation.
type noQuarantine struct{ d *store.Dir }

func (n noQuarantine) Get(h string) (scenario.Result, bool, error) { return n.d.Get(h) }
func (n noQuarantine) Put(h string, r scenario.Result) error       { return n.d.Put(h, r) }

// err2str re-runs the plan and formats the error (empty if none) — used
// to assert the job-ID + content-hash error wrapping.
func err2str(s *store.Session, c *scenario.Compiled) string {
	_, err := s.RunAll(c)
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestDirStoreSchemaReject checks that entries written by a newer build
// are refused instead of mis-read.
func TestDirStoreSchemaReject(t *testing.T) {
	root := filepath.Join(t.TempDir(), "results")
	d, err := store.OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	c := compileFig7(t, 2)
	runAll(t, d, c)

	// Rewrite one record in place claiming a future schema.
	r := logRecords(t, root)[0]
	newer := bytes.Replace(r.line, []byte(`{"schema":1,`), []byte(`{"schema":9,`), 1)
	if bytes.Equal(newer, r.line) {
		t.Fatal("record schema field not found")
	}
	rewriteRecord(t, r, newer)

	found := false
	for _, h := range c.JobHashes() {
		if _, _, err := d.Get(h); err != nil {
			if !strings.Contains(err.Error(), "schema") {
				t.Errorf("future-schema error: %v", err)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("future-schema entry was accepted")
	}
}

// TestDirStorePlanManifests checks the plan index: every plan a session
// runs is recorded under its plan hash.
func TestDirStorePlanManifests(t *testing.T) {
	d, err := store.OpenDir(filepath.Join(t.TempDir(), "results"))
	if err != nil {
		t.Fatal(err)
	}
	c := compileFig7(t, 2)
	runAll(t, d, c)
	plans, err := d.Plans()
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 || plans[0] != c.Hash() {
		t.Fatalf("plans = %v, want [%s]", plans, c.Hash())
	}
	n, err := d.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(c.Jobs) {
		t.Errorf("store holds %d rows, want %d", n, len(c.Jobs))
	}
}

// TestPutPlanSkipsIdenticalManifest checks that recording a plan again
// leaves its manifest file alone (same file, no temp debris), while a
// damaged or missing manifest is rewritten to the right bytes.
func TestPutPlanSkipsIdenticalManifest(t *testing.T) {
	root := filepath.Join(t.TempDir(), "results")
	d, err := store.OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	c := compileFig7(t, 2)
	path := filepath.Join(root, "plans", c.Hash()+".json")
	if err := d.PutPlan(c); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PutPlan(c); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Error("an identical manifest was rewritten")
	}
	tmps, err := filepath.Glob(filepath.Join(root, "plans", ".tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}

	damaged := bytes.Replace(want, []byte(c.Hash()), []byte(strings.Repeat("0", len(c.Hash()))), 1)
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := d.PutPlan(c); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Errorf("damaged manifest not restored (err %v):\n%s", err, got)
	}

	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := d.PutPlan(c); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Errorf("missing manifest not rewritten (err %v):\n%s", err, got)
	}
}

// TestSessionRunAllRefusesShard checks RunAll's partial-series guard: a
// sharded session must stream to a sink, not collect a series with rows
// missing by construction.
func TestSessionRunAllRefusesShard(t *testing.T) {
	c := compileFig7(t, 4)
	sess := &store.Session{Shard: exp.Shard{Index: 0, Count: 2}}
	if _, err := sess.RunAll(c); err == nil {
		t.Fatal("sharded RunAll did not refuse")
	}
}
