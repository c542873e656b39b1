package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// importLegacy moves a store written in the earlier layout — one entry
// file per row at jobs/<hh>/<hash>.json — into the row logs, once. Each
// entry is verified as Get verifies a record: a valid one is appended, a
// corrupt or misfiled one is quarantined with its reason, and every file
// is removed as it is handled, temp-file debris included. The jobs/
// directory goes last, so the next open finds nothing to import.
// Concurrent importers of one root take turns on a lock of jobs/ itself.
func (d *Dir) importLegacy() error {
	jobs := filepath.Join(d.root, "jobs")
	dir, err := os.Open(jobs)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer dir.Close()
	if err := lockWait(dir); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var files []string
	err = filepath.WalkDir(jobs, func(path string, de fs.DirEntry, err error) error {
		if errors.Is(err, fs.ErrNotExist) {
			return nil // an importer before us finished
		}
		if err == nil && !de.IsDir() {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("store: import %s: %w", jobs, err)
	}
	for _, path := range files {
		if err := d.importEntry(jobs, path); err != nil {
			return fmt.Errorf("store: import %s: %w", path, err)
		}
	}
	if err := os.RemoveAll(jobs); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// importEntry moves one file of the earlier layout into the logs or the
// quarantine, then removes it.
func (d *Dir) importEntry(jobs, path string) error {
	hash, isEntry := strings.CutSuffix(filepath.Base(path), ".json")
	if !isEntry || hash == "" || strings.HasPrefix(hash, ".tmp-") {
		return removeIfExists(path) // temp-file debris or a stray
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	rel, _ := filepath.Rel(filepath.Dir(jobs), path)
	prefix := hash
	if len(prefix) > 2 {
		prefix = prefix[:2]
	}
	k, ok := keyOf(hash)
	switch {
	case filepath.Join(jobs, prefix, hash+".json") != path:
		err = d.writeQuarantine(hash, data, "misfiled entry: found at "+rel)
	case !ok:
		err = d.writeQuarantine(hash, data, fmt.Sprintf("entry %s is not filed under a job content hash", rel))
	default:
		line, verr := legacyRecord(hash, k, data)
		if IsCorrupt(verr) {
			err = d.writeQuarantine(hash, data, verr.Error())
		} else if line != nil {
			err = d.append(k, line)
		} else {
			// An entry from a newer build that cannot be one log line:
			// neither ours to drop nor to rewrite.
			return verr
		}
	}
	if err != nil {
		return err
	}
	return removeIfExists(path)
}

// legacyRecord verifies an entry of the earlier layout and returns it as
// one log record. An entry from a newer build keeps its bytes (and keeps
// failing Get the way it did) when they already are one record.
func legacyRecord(hash string, k key, data []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err != nil {
		return nil, &CorruptError{Hash: hash, Reason: fmt.Sprintf("entry does not parse: %v", err)}
	}
	line := append(buf.Bytes(), '\n')
	_, err := decodeEntry(hash, line)
	switch {
	case IsCorrupt(err):
		return nil, err
	case !isRecordOf(line, k) && err == nil:
		return nil, &CorruptError{Hash: hash, Reason: "entry envelope does not start with its schema and hash"}
	case !isRecordOf(line, k):
		return nil, err
	}
	return line, nil
}

func removeIfExists(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}
