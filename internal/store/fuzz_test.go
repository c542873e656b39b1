package store

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzRowLog treats arbitrary bytes as a row log under a fresh root — the
// store's trust boundary on disk. Nothing may panic; Len and JobHashes
// agree; every listed hash comes from a complete line's envelope prefix
// (bytes after the last newline are never indexed) and Gets either a row
// whose checksum verifies, a CorruptError, or the refusal of a record
// from a newer schema; and verify and repair run through it.
func FuzzRowLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, log []byte) {
		root := t.TempDir()
		if err := os.MkdirAll(filepath.Join(root, rowsDirName), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, rowsDirName, "0.log"), log, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDir(root)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()

		complete := map[string]bool{}
		lines := log[:bytes.LastIndexByte(log, '\n')+1]
		for len(lines) > 0 {
			i := bytes.IndexByte(lines, '\n')
			if k, ok := envelopeKey(lines[:i]); ok {
				complete[k.String()] = true
			}
			lines = lines[i+1:]
		}
		hashes, err := d.JobHashes()
		if err != nil {
			t.Fatal(err)
		}
		n, err := d.Len()
		if err != nil || n != len(hashes) || n != len(complete) {
			t.Fatalf("Len = %d (%v), JobHashes has %d, complete lines name %d hashes", n, err, len(hashes), len(complete))
		}
		for _, h := range hashes {
			if !complete[h] {
				t.Fatalf("%s is indexed but no complete line names it", h)
			}
			_, ok, err := d.Get(h)
			switch {
			case err == nil && ok:
			case IsCorrupt(err):
			case err != nil && strings.Contains(err.Error(), "schema"):
			default:
				t.Fatalf("Get(%s) = %v, %v; want a verified row or a CorruptError", h, ok, err)
			}
		}
		if _, err := d.Verify(); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Repair(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		if rep, err := d.Verify(); err != nil || len(rep.Issues) != countSchemaIssues(rep) {
			t.Fatalf("verify after repair = %+v, %v", rep, err)
		}
	})
}

// countSchemaIssues counts the issues repair leaves standing on purpose:
// records from a newer schema.
func countSchemaIssues(rep *AuditReport) int {
	n := 0
	for _, is := range rep.Issues {
		if strings.Contains(is.Err, "schema") {
			n++
		}
	}
	return n
}
