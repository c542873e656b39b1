package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"rrbus/internal/scenario"
)

// testHash is a distinct job content hash per i.
func testHash(i int) string {
	sum := sha256.Sum256([]byte("row " + strconv.Itoa(i)))
	return hex.EncodeToString(sum[:])
}

// testRow is a row of about the size a paper job records (~3 KB).
func testRow(i int) scenario.Result {
	hist := make([]uint64, 300)
	for j := range hist {
		hist[j] = uint64((i*31 + j*7) % 1000)
	}
	return scenario.Result{
		Platform: "ref", Cores: 4, Cycles: uint64(100000 + i), TotalCycles: uint64(150000 + i),
		Iters: 100, Requests: 4000, MaxGamma: 27, AvgGamma: 13.5, Utilization: 0.98,
		GammaHist: hist, ContendersHist: []uint64{1, 2, 3, uint64(i)},
	}
}

func openTest(t testing.TB, root string) *Dir {
	t.Helper()
	d, err := OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func fillTest(t testing.TB, d *Dir, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := d.Put(testHash(i), testRow(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// countFiles counts the regular files under root.
func countFiles(t *testing.T, root string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(root, func(_ string, de fs.DirEntry, err error) error {
		if err == nil && de.Type().IsRegular() {
			n++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func logNames(t *testing.T, root string) []string {
	t.Helper()
	logs, err := filepath.Glob(filepath.Join(root, rowsDirName, "*"+logSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return logs
}

// TestPutCreatesNoFilePerRow pins what the row logs are for: a Put
// appends to a log instead of creating a file, and a second writer that
// opens the root after the first closed appends to the same log.
func TestPutCreatesNoFilePerRow(t *testing.T) {
	root := t.TempDir()
	d, err := OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	fillTest(t, d, 0, 1)
	one := countFiles(t, root)
	fillTest(t, d, 1, 500)
	if got := countFiles(t, root); got != one {
		t.Fatalf("%d files after 500 Puts, %d after 1", got, one)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := openTest(t, root)
	fillTest(t, d2, 500, 510)
	if logs := logNames(t, root); len(logs) != 1 {
		t.Fatalf("two sequential writers left logs %v, want one", logs)
	}
	if n, err := d2.Len(); err != nil || n != 510 {
		t.Fatalf("Len = %d, %v; want 510", n, err)
	}
	for _, i := range []int{0, 499, 509} {
		got, ok, err := d2.Get(testHash(i))
		if err != nil || !ok || !reflect.DeepEqual(got, normalize(testRow(i))) {
			t.Fatalf("Get(row %d) = %v, %v", i, ok, err)
		}
	}
}

// TestConcurrentWritersUseTheirOwnLogs: two open writer handles never
// append to one log, and each sees the other's rows at its next miss.
func TestConcurrentWritersUseTheirOwnLogs(t *testing.T) {
	root := t.TempDir()
	a, b := openTest(t, root), openTest(t, root)
	fillTest(t, a, 0, 3)
	fillTest(t, b, 3, 6)
	if logs := logNames(t, root); len(logs) != 2 {
		t.Fatalf("two live writers share logs %v", logs)
	}
	for i := 0; i < 6; i++ {
		for _, d := range []*Dir{a, b} {
			if _, ok, err := d.Get(testHash(i)); !ok || err != nil {
				t.Fatalf("row %d not visible to a handle: %v %v", i, ok, err)
			}
		}
	}
	// A row removed by one handle is a miss for the other once it reads
	// the blanked record.
	if err := a.RemoveJob(testHash(4)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := b.Get(testHash(4)); ok || err != nil {
		t.Fatalf("removed row still served by the other handle: %v %v", ok, err)
	}
}

// TestDirConcurrentPutGet: one handle's Puts and Gets from several
// goroutines, while a second handle reads the same rows through its
// misses and rescans.
func TestDirConcurrentPutGet(t *testing.T) {
	root := t.TempDir()
	a, b := openTest(t, root), openTest(t, root)
	const writers, each = 4, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * each; i < (w+1)*each; i++ {
				if err := a.Put(testHash(i), testRow(i)); err != nil {
					t.Error(err)
					return
				}
				if _, ok, err := a.Get(testHash(i)); !ok || err != nil {
					t.Errorf("own row %d: %v %v", i, ok, err)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writers*each; i++ {
			if _, _, err := b.Get(testHash(i)); err != nil {
				t.Errorf("reader: row %d: %v", i, err)
			}
		}
	}()
	wg.Wait()
	for i := 0; i < writers*each; i++ {
		if _, ok, err := b.Get(testHash(i)); !ok || err != nil {
			t.Fatalf("row %d not visible to the second handle: %v %v", i, ok, err)
		}
	}
	if n, err := b.Len(); err != nil || n != writers*each {
		t.Fatalf("Len = %d, %v", n, err)
	}
}

// TestLenCountsLiveHashes: Len is the number of distinct live hashes,
// equal to len(JobHashes()), on a store holding a torn tail, a blanked
// record, the same hash in two logs and a stray file.
func TestLenCountsLiveHashes(t *testing.T) {
	root := t.TempDir()
	d := openTest(t, root)
	fillTest(t, d, 0, 3)
	if err := d.RemoveJob(testHash(1)); err != nil {
		t.Fatal(err)
	}
	var second []byte
	for _, i := range []int{0, 3} { // row 0 again: the same hash in two logs
		rec, err := marshalEntry(testHash(i), testRow(i))
		if err != nil {
			t.Fatal(err)
		}
		second = append(second, rec...)
	}
	torn, _ := marshalEntry(testHash(4), testRow(4))
	second = append(second, torn[:len(torn)/2]...)
	if err := os.WriteFile(filepath.Join(root, rowsDirName, "7.log"), second, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, rowsDirName, "notes.txt"), []byte("stray\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]*Dir{"open handle": d, "fresh handle": openTest(t, root)} {
		n, err := h.Len()
		if err != nil {
			t.Fatal(err)
		}
		hashes, err := h.JobHashes()
		if err != nil {
			t.Fatal(err)
		}
		want := []string{testHash(0), testHash(2), testHash(3)}
		if n != len(hashes) || !sameSet(hashes, want) {
			t.Errorf("%s: Len = %d, JobHashes = %v; want %d live hashes", name, n, hashes, len(want))
		}
	}
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	in := map[string]bool{}
	for _, s := range a {
		in[s] = true
	}
	for _, s := range b {
		if !in[s] {
			return false
		}
	}
	return true
}

// TestTornTailIsCutByTheNextWriter: a crashed writer's half record is
// never indexed, verify reports it, and the next writer to take the log
// cuts it before appending.
func TestTornTailIsCutByTheNextWriter(t *testing.T) {
	root := t.TempDir()
	d, err := OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	fillTest(t, d, 0, 2)
	d.Close()
	log := logNames(t, root)[0]
	rec, _ := marshalEntry(testHash(2), testRow(2))
	f, err := os.OpenFile(log, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(rec[:len(rec)-1]) // everything but the newline
	f.Close()

	d = openTest(t, root)
	if _, ok, err := d.Get(testHash(2)); ok || err != nil {
		t.Fatalf("torn record served: %v %v", ok, err)
	}
	if rep, err := d.Verify(); err != nil || len(rep.Issues) != 1 || !strings.Contains(rep.Issues[0].Err, "torn") {
		t.Fatalf("verify = %+v, %v; want the torn tail", rep, err)
	}
	fillTest(t, d, 3, 4)
	if rep, err := d.Verify(); err != nil || !rep.OK() || rep.Jobs != 3 {
		t.Fatalf("verify after the next append = %+v, %v", rep, err)
	}
	if len(logNames(t, root)) != 1 {
		t.Fatal("the next writer did not take the crashed writer's log")
	}
}

// TestCompactAndReclaimRewriteLogs: both give back the space of blanked
// records, keep every live row readable through the same handle and a
// fresh one, and Compact refuses a log a live writer holds.
func TestCompactAndReclaimRewriteLogs(t *testing.T) {
	root := t.TempDir()
	d := openTest(t, root)
	fillTest(t, d, 0, 10)
	for _, i := range []int{2, 5} {
		if err := d.RemoveJob(testHash(i)); err != nil {
			t.Fatal(err)
		}
	}
	other := openTest(t, root)
	fillTest(t, other, 10, 11) // a live writer holding a second log
	if _, err := d.Compact(false); err == nil || !strings.Contains(err.Error(), "live writer") {
		t.Fatalf("compact with a live writer: %v", err)
	}
	freed, err := d.Reclaim()
	if err != nil {
		t.Fatal(err)
	}
	var blanked int64
	for _, i := range []int{2, 5} {
		rec, _ := marshalEntry(testHash(i), testRow(i))
		blanked += int64(len(rec))
	}
	if freed != blanked {
		t.Errorf("reclaim freed %d bytes, want the two blanked records' %d", freed, blanked)
	}
	other.Close()
	if _, err := d.Compact(false); err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Dir{d, openTest(t, root)} {
		for i := 0; i < 11; i++ {
			_, ok, err := h.Get(testHash(i))
			if err != nil || ok != (i != 2 && i != 5) {
				t.Fatalf("row %d after rewrite: %v %v", i, ok, err)
			}
		}
	}
	if rep, err := d.Verify(); err != nil || !rep.OK() || rep.Jobs != 9 {
		t.Fatalf("verify after rewrite = %+v, %v", rep, err)
	}
}

// TestRewritesDoNotAccumulateDescriptors: a long-lived reader whose log
// another handle keeps rewriting holds one descriptor per log, not one
// per rewrite it has seen.
func TestRewritesDoNotAccumulateDescriptors(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd:", err)
		}
		return len(ents)
	}
	root := t.TempDir()
	w := openTest(t, root)
	fillTest(t, w, 0, 30)
	w.Close()
	reader, gc := openTest(t, root), openTest(t, root)
	if _, ok, err := reader.Get(testHash(0)); !ok || err != nil {
		t.Fatalf("get: %v %v", ok, err)
	}
	before := fds()
	for i := 1; i < 30; i++ {
		if err := gc.RemoveJob(testHash(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := gc.Reclaim(); err != nil {
			t.Fatal(err)
		}
		if n, err := reader.Len(); err != nil || n != 30-i {
			t.Fatalf("reader Len after %d removals = %d, %v", i, n, err)
		}
	}
	if after := fds(); after > before+2 {
		t.Errorf("open descriptors grew from %d to %d over 29 rewrites", before, after)
	}
}

// TestImportLegacyLayout: a store in the one-file-per-row layout is
// imported once on open — valid entries appended, a corrupt and a
// misfiled one quarantined, debris removed — after which jobs/ is gone
// and the logs are the one read path.
func TestImportLegacyLayout(t *testing.T) {
	root := t.TempDir()
	legacy := func(h string) string { return filepath.Join(root, "jobs", h[:2], h+".json") }
	write := func(path string, data []byte) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		rec, _ := marshalEntry(testHash(i), testRow(i))
		write(legacy(testHash(i)), rec)
	}
	bad, _ := marshalEntry(testHash(3), testRow(3))
	bad[bytes.Index(bad, []byte(`"cycles":`))+9] ^= 1
	write(legacy(testHash(3)), bad)
	misfiled, _ := marshalEntry(testHash(4), testRow(4))
	write(filepath.Join(root, "jobs", "zz", testHash(4)+".json"), misfiled)
	write(filepath.Join(root, "jobs", ".tmp-123"), []byte("half"))

	d := openTest(t, root)
	if _, err := os.Stat(filepath.Join(root, "jobs")); !os.IsNotExist(err) {
		t.Fatalf("jobs/ survived the import: %v", err)
	}
	for i := 0; i < 5; i++ {
		got, ok, err := d.Get(testHash(i))
		if err != nil || ok != (i < 3) || (ok && !reflect.DeepEqual(got, normalize(testRow(i)))) {
			t.Fatalf("row %d after import: %v %v", i, ok, err)
		}
	}
	qs, err := d.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	reasons := map[string]string{}
	for _, q := range qs {
		reasons[q.Hash] = q.Reason
	}
	if !strings.Contains(reasons[testHash(3)], "integrity") || !strings.Contains(reasons[testHash(4)], "misfiled") || len(qs) != 2 {
		t.Fatalf("quarantine after import = %+v", qs)
	}
	if rep, err := d.Verify(); err != nil || !rep.OK() || rep.Jobs != 3 {
		t.Fatalf("verify after import = %+v, %v", rep, err)
	}
	d.Close()
	d = openTest(t, root)
	if n, err := d.Len(); err != nil || n != 3 {
		t.Fatalf("reopened store holds %d rows, %v; want 3", n, err)
	}
}

// BenchmarkDirPut records rows into a fresh store.
func BenchmarkDirPut(b *testing.B) {
	d := openTest(b, b.TempDir())
	rows := make([]scenario.Result, 64)
	for i := range rows {
		rows[i] = testRow(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Put(testHash(i), rows[i%len(rows)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDirGet reads rows through a warm handle.
func BenchmarkDirGet(b *testing.B) {
	d := openTest(b, b.TempDir())
	fillTest(b, d, 0, 2000)
	hashes := make([]string, 2000)
	for i := range hashes {
		hashes[i] = testHash(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := d.Get(hashes[i%len(hashes)]); !ok || err != nil {
			b.Fatal(ok, err)
		}
	}
}

// BenchmarkOpenDirFirstGet opens a 2000-row store and reads one row:
// the index build a fresh handle pays once.
func BenchmarkOpenDirFirstGet(b *testing.B) {
	root := b.TempDir()
	w := openTest(b, root)
	fillTest(b, w, 0, 2000)
	w.Close()
	h := testHash(1999)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := OpenDir(root)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok, err := d.Get(h); !ok || err != nil {
			b.Fatal(ok, err)
		}
		d.Close()
	}
}
