package store_test

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// logRecord is one non-blank line of a row log, as the tests damage it.
type logRecord struct {
	path string
	off  int64
	line []byte // newline included
}

// logRecords lists the non-blank lines of every row log under root, in
// log order.
func logRecords(t *testing.T, root string) []logRecord {
	t.Helper()
	logs, err := filepath.Glob(filepath.Join(root, "rows", "*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(logs)
	var out []logRecord
	for _, p := range logs {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); {
			i := bytes.IndexByte(data[off:], '\n')
			if i < 0 {
				break
			}
			line := data[off : off+i+1]
			if len(bytes.TrimLeft(line, " ")) > 1 {
				out = append(out, logRecord{p, int64(off), line})
			}
			off += i + 1
		}
	}
	if len(out) == 0 {
		t.Fatalf("no records under %s", root)
	}
	return out
}

// rewriteRecord overwrites a record in place with bytes of the same
// length, as a bit flip on disk would.
func rewriteRecord(t *testing.T, r logRecord, line []byte) {
	t.Helper()
	if len(line) != len(r.line) {
		t.Fatalf("rewrite changes the record length %d → %d", len(r.line), len(line))
	}
	f, err := os.OpenFile(r.path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(line, r.off); err != nil {
		t.Fatal(err)
	}
}

// flipInRecord flips the low bit of the byte at offset i of a record.
func flipInRecord(t *testing.T, r logRecord, i int) {
	t.Helper()
	line := bytes.Clone(r.line)
	line[i] ^= 0x01
	rewriteRecord(t, r, line)
}

// cutRecord deletes a record's line from its log, moving every later
// record — what deleting the line in an editor does.
func cutRecord(t *testing.T, r logRecord) {
	t.Helper()
	data, err := os.ReadFile(r.path)
	if err != nil {
		t.Fatal(err)
	}
	data = append(data[:r.off:r.off], data[r.off+int64(len(r.line)):]...)
	if err := os.WriteFile(r.path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
