package store

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// The space-reclamation half of store ops, exposed by `rrbus-store gc`
// and `rrbus-store compact`. Both operate on what the manifests say:
// gc drops rows no recorded plan references (debris of deleted plans,
// aborted sweeps, or rows pushed from elsewhere and never adopted), and
// compact strips the bounded trace windows out of trace-bearing rows —
// the one unbounded-size field a row carries — while preserving every
// derived quantity, so bounds and tables still render identically and
// only the fig2/fig5-style timelines lose their event detail.

// Unreferenced lists the stored row hashes that no plan manifest
// references, in lexical order. An unreadable manifest keeps its rows
// referenced (conservative: damage to the index must not mark the data
// collectible).
func (d *Dir) Unreferenced() ([]string, error) {
	hashes, err := d.JobHashes()
	if err != nil {
		return nil, err
	}
	plans, err := d.Plans()
	if err != nil {
		return nil, err
	}
	referenced := make(map[string]bool)
	for _, ph := range plans {
		m, err := d.readManifest(ph)
		if err != nil {
			// Cannot tell what this plan references; treat everything as
			// referenced rather than collect rows an audit would miss.
			return nil, fmt.Errorf("store: plan %s: unreadable manifest blocks gc (run repair first): %w", ph, err)
		}
		for _, jh := range m.Jobs {
			referenced[jh] = true
		}
	}
	var out []string
	for _, h := range hashes {
		if !referenced[h] {
			out = append(out, h)
		}
	}
	sort.Strings(out)
	return out, nil
}

// CompactReport is the outcome of a Compact pass.
type CompactReport struct {
	// Scanned counts every row examined; Compacted those that carried a
	// trace window and were rewritten without it (or would be, on a dry
	// run).
	Scanned   int `json:"scanned"`
	Compacted int `json:"compacted"`
	// TraceEvents is the total number of trace events stripped.
	TraceEvents int `json:"trace_events"`
	// BytesSaved is how many bytes the stripped records shrank by, the
	// same figure for a dry run and a real one.
	BytesSaved int64 `json:"bytes_saved"`
}

// Compact strips the bounded trace windows from trace-bearing rows,
// rewriting each record with every non-trace field intact — cycles,
// slowdowns, histograms, PMCs and derived bounds all survive, so every
// renderer except the event timelines produces identical bytes from a
// compacted store. The logs are rewritten whole, which also gives back
// the space of blanked records; a log a live writer holds fails the
// pass. With dryRun the store is not touched and the report says what a
// real pass would do. Corrupt records fail the pass before anything is
// rewritten (run repair first); compaction must never launder damage
// into a fresh-looking rewrite.
func (d *Dir) Compact(dryRun bool) (*CompactReport, error) {
	hashes, err := d.JobHashes()
	if err != nil {
		return nil, err
	}
	rep := &CompactReport{}
	for _, h := range hashes {
		r, ok, err := d.Get(h)
		if err != nil {
			return rep, fmt.Errorf("store: compact %s: %w (run repair first)", h, err)
		}
		if !ok {
			continue // vanished mid-walk (concurrent gc)
		}
		rep.Scanned++
		if len(r.Trace) == 0 {
			continue
		}
		k, _ := keyOf(h)
		d.mu.RLock()
		at, _ := d.idx.get(k)
		stored := int64(at.n)
		d.mu.RUnlock()
		rep.TraceEvents += len(r.Trace)
		r.Trace = nil
		row, err := marshalEntry(h, r)
		if err != nil {
			return rep, err
		}
		rep.BytesSaved += stored - int64(len(row))
		rep.Compacted++
	}
	if dryRun {
		return rep, nil
	}
	_, err = d.rewriteLogs(func(k key, rec []byte) ([]byte, error) {
		h := k.String()
		r, err := decodeEntry(h, rec)
		if err != nil {
			return nil, fmt.Errorf("store: compact %s: %w (run repair first)", h, err)
		}
		if len(r.Trace) == 0 {
			return rec, nil
		}
		r.Trace = nil
		return marshalEntry(h, r)
	}, false)
	return rep, err
}

// Reclaim gives back the space of removed and quarantined rows: every
// log no live writer holds is rewritten without its blanked records,
// superseded copies and torn last line. It returns the bytes freed. A
// log line without a readable envelope fails the pass (run repair
// first).
func (d *Dir) Reclaim() (int64, error) {
	return d.rewriteLogs(func(_ key, rec []byte) ([]byte, error) { return rec, nil }, true)
}

// rewriteLogs rewrites the row logs, keeping only the record the index
// serves for each hash, passed through edit. It first takes the lock of
// every log — a log a live writer holds is skipped with skipHeld and
// fails the pass, before anything is rewritten, without — then rewrites
// each into a temp file renamed over it, so a reader holding the old
// file keeps reading the old bytes. The handle gives up its own log
// first. It returns the bytes freed.
func (d *Dir) rewriteLogs(edit func(key, []byte) ([]byte, error), skipHeld bool) (int64, error) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if err := d.releaseWriter(); err != nil {
		return 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := d.refreshLocked(); err != nil {
		return 0, err
	}
	locked := make([]*os.File, len(d.logs))
	defer func() {
		for _, f := range locked {
			if f != nil {
				f.Close() // drops the lock, after the rename
			}
		}
	}()
	for li, l := range d.logs {
		f, err := os.OpenFile(d.logPath(l.name), os.O_RDWR, 0)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return 0, Transient(err)
		}
		ok, err := d.lockCurrent(f, l.name)
		if err != nil || !ok {
			f.Close()
			if err != nil {
				return 0, Transient(err)
			}
			if skipHeld {
				continue
			}
			return 0, fmt.Errorf("store: rows/%s is held by a live writer; run this when no sweep writes to the store", l.name)
		}
		locked[li] = f
	}
	var saved int64
	for li, f := range locked {
		if f == nil {
			continue
		}
		n, err := d.rewriteLogLocked(li, f, edit)
		saved += n
		if err != nil {
			return saved, err
		}
	}
	return saved, nil
}

// rewriteLogLocked rewrites log li, whose lock lf holds; see
// rewriteLogs. It returns the bytes freed.
func (d *Dir) rewriteLogLocked(li int, lf *os.File, edit func(key, []byte) ([]byte, error)) (int64, error) {
	l := d.logs[li]
	path := d.logPath(l.name)
	if err := d.reopenIfReplacedLocked(li); err != nil {
		return 0, err
	}
	if _, err := d.scanLocked(li); err != nil {
		return 0, Transient(err)
	}

	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return 0, Transient(err)
	}
	defer os.Remove(tmp.Name()) // a no-op once renamed
	defer tmp.Close()
	w := bufio.NewWriterSize(tmp, scanBufSize)
	type placed struct {
		k  key
		at loc
	}
	var (
		written int64
		kept    []placed
		changed bool
		ferr    error
	)
	end, size, err := scanLines(lf, 0, func(off, n int64, head []byte) {
		if ferr != nil {
			return
		}
		rec := make([]byte, n)
		if _, err := lf.ReadAt(rec, off); err != nil {
			ferr = Transient(err)
			return
		}
		k, ok := envelopeKey(head)
		if !ok {
			if !isBlank(rec) {
				ferr = fmt.Errorf("store: unreadable record at %s (run repair first)", logLine{log: l.name, off: off}.path())
			}
			changed = true
			return
		}
		if at, _ := d.idx.get(k); at != (loc{off: off, n: uint32(n), log: uint32(li)}) {
			changed = true // a superseded copy
			return
		}
		next, err := edit(k, rec)
		if err != nil {
			ferr = err
			return
		}
		changed = changed || !bytes.Equal(next, rec)
		at, ok := locOf(li, written, int64(len(next)))
		if !ok {
			ferr = fmt.Errorf("store: compact %s: record of %d bytes", k, len(next))
			return
		}
		kept = append(kept, placed{k, at})
		if _, err := w.Write(next); err != nil {
			ferr = Transient(err)
		}
		written += int64(len(next))
	})
	if err == nil {
		err = ferr
	}
	if err != nil {
		return 0, err
	}
	if !changed && size == end {
		return 0, nil
	}
	// The same mode a log is created with; CreateTemp makes 0600.
	if err := w.Flush(); err != nil {
		return 0, Transient(err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		return 0, Transient(err)
	}
	if err := tmp.Close(); err != nil {
		return 0, Transient(err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, Transient(err)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, Transient(err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, Transient(err)
	}
	l.f.Close() // no read is using it: reads hold d.mu
	l.f, l.fi = f, fi
	d.dropLogLocked(li)
	for _, p := range kept {
		d.indexLocked(p.k, p.at)
	}
	d.idx.flush()
	l.end = written
	return size - written, nil
}
