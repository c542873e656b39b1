package store_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rrbus/internal/store"
)

// buildStore fills a fresh Dir store with a small recorded fig7 plan
// and returns the store and its root.
func buildStore(t *testing.T) (*store.Dir, string) {
	t.Helper()
	root := filepath.Join(t.TempDir(), "st")
	d, err := store.OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	c := compileFig7(t, 3)
	if _, _, sess := runAll(t, d, c); sess.Simulated() != 3 {
		t.Fatalf("cold fill simulated %d", sess.Simulated())
	}
	return d, root
}

// TestPlanInfos pins the ls data: the recorded plan manifest reports
// its identity, job count and full row coverage — and loses coverage
// when a row's record disappears from its log.
func TestPlanInfos(t *testing.T) {
	d, root := buildStore(t)
	infos, err := d.PlanInfos()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("plans = %d, want 1", len(infos))
	}
	p := infos[0]
	if p.Generator != "fig7" || p.Jobs != 3 || p.Present != 3 || p.Err != "" {
		t.Errorf("plan info %+v", p)
	}
	cutRecord(t, logRecords(t, root)[0])
	infos, err = d.PlanInfos()
	if err != nil {
		t.Fatal(err)
	}
	if infos[0].Present != 2 {
		t.Errorf("coverage after removal: present = %d, want 2", infos[0].Present)
	}
}

// TestListingsSeeRemovalsByAnotherHandle: a long-lived handle's
// listings drop a row another handle removed or quarantined, although
// the long-lived handle never reads that row — what rrbus-serve's
// /v1/store/hashes must report for push/pull to move the exact delta.
func TestListingsSeeRemovalsByAnotherHandle(t *testing.T) {
	d, root := buildStore(t)
	hashes, err := d.JobHashes()
	if err != nil || len(hashes) != 3 {
		t.Fatalf("hashes = %v, %v", hashes, err)
	}
	other, err := store.OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := other.RemoveJob(hashes[0]); err != nil {
		t.Fatal(err)
	}
	if err := other.Quarantine(hashes[1], "test"); err != nil {
		t.Fatal(err)
	}
	got, err := d.JobHashes()
	if err != nil || len(got) != 1 || got[0] != hashes[2] {
		t.Errorf("JobHashes after removal = %v, %v; want [%s]", got, err, hashes[2])
	}
	if n, err := d.Len(); err != nil || n != 1 {
		t.Errorf("Len after removal = %d, %v; want 1", n, err)
	}
	infos, err := d.PlanInfos()
	if err != nil || len(infos) != 1 || infos[0].Present != 1 {
		t.Errorf("PlanInfos after removal = %+v, %v; want present 1", infos, err)
	}
	qs, err := d.Quarantined()
	if err != nil || len(qs) != 1 || qs[0].Hash != hashes[1] || qs[0].Healed {
		t.Errorf("Quarantined = %+v, %v; want %s unhealed", qs, err, hashes[1])
	}
	if _, ok, err := d.Get(hashes[0]); ok || err != nil {
		t.Errorf("Get of a removed row = %v, %v; want a miss", ok, err)
	}
}

// TestVerifyClean: a freshly recorded store verifies with zero issues.
func TestVerifyClean(t *testing.T) {
	d, _ := buildStore(t)
	rep, err := d.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Jobs != 3 || rep.Plans != 1 {
		t.Errorf("clean store audit: %+v", rep)
	}
}

// TestVerifyDetectsCorruption is the acceptance criterion: an
// intentionally corrupted row surfaces as a checksum issue.
func TestVerifyDetectsCorruption(t *testing.T) {
	d, root := buildStore(t)
	// Flip one byte inside the row payload.
	r := logRecords(t, root)[0]
	idx := bytes.Index(r.line, []byte(`"cycles"`))
	if idx < 0 {
		t.Fatalf("record has no cycles field: %s", r.line)
	}
	flipInRecord(t, r, idx+1)
	rep, err := d.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 1 {
		t.Fatalf("issues = %+v, want exactly the corrupted entry", rep.Issues)
	}
	if !strings.Contains(rep.Issues[0].Err, "integrity") {
		t.Errorf("issue does not name integrity: %+v", rep.Issues[0])
	}
	if !strings.HasPrefix(rep.Issues[0].Path, "rows"+string(os.PathSeparator)) {
		t.Errorf("issue path is not store-relative: %q", rep.Issues[0].Path)
	}
}

// TestVerifyDetectsAlteredHashAndStray: a record whose hash field was
// altered — so it is indexed under a hash it was not recorded for —
// fails verification, and a leftover temp file under rows/ surfaces as
// a stray.
func TestVerifyDetectsAlteredHashAndStray(t *testing.T) {
	d, root := buildStore(t)
	r := logRecords(t, root)[0]
	at := bytes.Index(r.line, []byte(`"hash":"`)) + len(`"hash":"`)
	line := bytes.Clone(r.line)
	if line[at] == '0' {
		line[at] = '1'
	} else {
		line[at] = '0'
	}
	rewriteRecord(t, r, line)
	if err := os.WriteFile(filepath.Join(root, "rows", ".tmp-leftover"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := d.Verify()
	if err != nil {
		t.Fatal(err)
	}
	var altered, stray bool
	for _, is := range rep.Issues {
		if strings.Contains(is.Err, "checksum mismatch") && strings.HasSuffix(is.Path, "@0") {
			altered = true
		}
		if strings.Contains(is.Err, "stray") {
			stray = true
		}
	}
	if !altered || !stray || len(rep.Issues) != 2 {
		t.Errorf("issues = %+v, want one checksum mismatch + one stray", rep.Issues)
	}
}

// TestVerifyDetectsBadManifest: a future-schema plan manifest is an
// issue, not a silent skip.
func TestVerifyDetectsBadManifest(t *testing.T) {
	d, root := buildStore(t)
	plans, err := d.Plans()
	if err != nil || len(plans) != 1 {
		t.Fatalf("plans: %v %v", plans, err)
	}
	path := filepath.Join(root, "plans", plans[0]+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutated := strings.Replace(string(data), `"schema": 1`, `"schema": 99`, 1)
	if mutated == string(data) {
		t.Fatalf("manifest has no schema field to mutate:\n%s", data)
	}
	if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := d.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 1 || !strings.Contains(rep.Issues[0].Err, "newer") {
		t.Errorf("issues = %+v, want the future-schema manifest", rep.Issues)
	}
	// ls degrades gracefully: the broken manifest is reported per-plan.
	infos, err := d.PlanInfos()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Err == "" {
		t.Errorf("plan infos = %+v, want the manifest error surfaced", infos)
	}
}
