package store

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"rrbus/internal/scenario"
)

// The row logs behind Dir. Every writing handle appends whole records —
// the envelope bytes marshalEntry builds, one line each — to a log under
// <root>/rows/ that it holds an exclusive advisory lock on, so no two
// writers ever append to the same file and a Put costs one write(2), not
// an inode. Readers find rows through an in-memory index (hash → log,
// offset, length) built by scanning the logs through fixed-size
// buffers, and read a row with one pread(2). A miss rescans only the
// bytes appended since the last scan; the listings rebuild the index
// from every log's start (see resync), because only a full read sees a
// record another handle blanked.
//
// Offsets never move under a live reader: removal and quarantine blank a
// record in place (spaces of the same length, ending in a newline), and
// only Compact and Reclaim, which hold the lock of every log they
// rewrite, replace a log — by renaming a rewritten copy over it, so a
// reader that still has the old file open keeps reading the old bytes
// until its next refresh notices the new file.

const (
	rowsDirName = "rows"
	logSuffix   = ".log"
	// scanBufSize is the size of the buffers logs are scanned through.
	scanBufSize = 64 << 10
	// headMax bounds the bytes of each line the scanner keeps: the
	// envelope prefix `{"schema":N,"hash":"<64 hex>"` fits with room.
	headMax = 128
)

// key is a job content hash in binary: the index key.
type key [32]byte

// keyOf decodes a job content hash — 64 lowercase hex digits, the form
// scenario.Job.Hash produces. Anything else is not a hash a Dir can
// hold.
func keyOf[S string | []byte](hash S) (key, bool) {
	var k key
	if len(hash) != 64 {
		return k, false
	}
	for i := 0; i < 32; i++ {
		hi, ok1 := unhex(hash[2*i])
		lo, ok2 := unhex(hash[2*i+1])
		if !ok1 || !ok2 {
			return k, false
		}
		k[i] = hi<<4 | lo
	}
	return k, true
}

func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

func (k key) String() string { return hex.EncodeToString(k[:]) }

// envelopeKey reads the job hash from a record's fixed envelope prefix,
// `{"schema":N,"hash":"<64 hex>"`. It never looks past the prefix, so a
// hash-like string inside the row cannot index a record.
func envelopeKey(b []byte) (key, bool) {
	rest, ok := bytes.CutPrefix(b, []byte(`{"schema":`))
	if !ok {
		return key{}, false
	}
	i := 0
	for i < len(rest) && i < 10 && '0' <= rest[i] && rest[i] <= '9' {
		i++
	}
	if i == 0 {
		return key{}, false
	}
	rest, ok = bytes.CutPrefix(rest[i:], []byte(`,"hash":"`))
	if !ok || len(rest) < 65 || rest[64] != '"' {
		return key{}, false
	}
	return keyOf(rest[:64])
}

// isRecordOf reports whether data is one whole record filed under k.
func isRecordOf(data []byte, k key) bool {
	if len(data) == 0 || data[len(data)-1] != '\n' {
		return false
	}
	got, ok := envelopeKey(data)
	return ok && got == k
}

// isBlank reports whether a line is a blanked record: spaces, then the
// newline.
func isBlank(line []byte) bool {
	if len(line) == 0 || line[len(line)-1] != '\n' {
		return false
	}
	for _, c := range line[:len(line)-1] {
		if c != ' ' {
			return false
		}
	}
	return true
}

// scanBufs holds the fixed-size buffers logs are scanned with, shared by
// every handle in the process.
var scanBufs = sync.Pool{New: func() any { return new([scanBufSize]byte) }}

// scanLines reads f from offset from to its end through one fixed-size
// buffer and calls fn for every complete line with its offset, its
// length (newline included) and its first headMax bytes. It returns the
// offset just past the last newline and the size read up to; the bytes
// between them are a torn last line and are never passed to fn.
func scanLines(f io.ReaderAt, from int64, fn func(off, n int64, head []byte)) (end, size int64, err error) {
	pb := scanBufs.Get().(*[scanBufSize]byte)
	defer scanBufs.Put(pb)
	buf := pb[:]
	var head [headMax]byte
	hn := 0
	start, base := from, from
	for {
		n, rerr := f.ReadAt(buf, base)
		for p := 0; p < n; {
			i := bytes.IndexByte(buf[p:n], '\n')
			stop := n
			if i >= 0 {
				stop = p + i
			}
			if hn < headMax {
				hn += copy(head[hn:], buf[p:stop])
			}
			if i < 0 {
				break
			}
			lineEnd := base + int64(stop) + 1
			fn(start, lineEnd-start, head[:hn])
			start, hn = lineEnd, 0
			p = stop + 1
		}
		base += int64(n)
		if errors.Is(rerr, io.EOF) {
			return start, base, nil
		}
		if rerr != nil {
			return start, base, rerr
		}
	}
}

// loc is where one record lives: at what offset, how many bytes
// including its newline, in which log (an index into Dir.logs). A zero
// length marks no record.
type loc struct {
	off int64
	n   uint32
	log uint32
}

// locOf builds a loc; a line too long for one is not indexed.
func locOf(li int, off, n int64) (loc, bool) {
	if n <= 0 || n > math.MaxUint32 {
		return loc{}, false
	}
	return loc{off: off, n: uint32(n), log: uint32(li)}, true
}

// rowLog is one log file as a handle sees it.
type rowLog struct {
	name string // file name under rows/
	f    *os.File
	fi   os.FileInfo // identity of the open file, to notice a replaced log
	end  int64       // offset just past the last line indexed
	own  bool        // this handle holds the log's lock and appends to it
}

// logNumber parses a log file name, "<n>.log".
func logNumber(name string) (int, bool) {
	s, ok := strings.CutSuffix(name, logSuffix)
	if !ok || s == "" {
		return 0, false
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 || strconv.Itoa(n) != s {
		return 0, false
	}
	return n, true
}

// listLogs returns the log file names under rows/ in numeric order.
func (d *Dir) listLogs() ([]string, error) {
	dir, err := os.Open(filepath.Join(d.root, rowsDirName))
	if err != nil {
		return nil, err
	}
	names, err := dir.Readdirnames(-1)
	dir.Close()
	if err != nil {
		return nil, err
	}
	out := names[:0]
	for _, n := range names {
		if _, ok := logNumber(n); ok {
			out = append(out, n)
		}
	}
	sortLogNames(out)
	return out, nil
}

// sortLogNames orders log file names by number.
func sortLogNames(names []string) {
	sort.Slice(names, func(i, j int) bool {
		a, _ := logNumber(names[i])
		b, _ := logNumber(names[j])
		return a < b
	})
}

func (d *Dir) logPath(name string) string { return filepath.Join(d.root, rowsDirName, name) }

// refresh brings the index up to date with every log: it reads only the
// bytes appended since the last scan, opens logs it has not seen, and
// rescans a log that was replaced by a rewrite.
func (d *Dir) refresh() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, err := d.refreshLocked()
	return err
}

// resync rebuilds the index from every log, each read from its start.
// A refresh reads only appended bytes, so it cannot see a record another
// handle or process blanked (RemoveJob, Quarantine, repair, gc) or a
// line edited out of a log; the listings — Len, JobHashes, PlanInfo,
// Quarantined — resync first, so they report what the logs hold now.
func (d *Dir) resync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.idx = index{}
	d.dups = nil
	for _, l := range d.logs {
		l.end = 0
	}
	_, err := d.refreshLocked()
	return err
}

// refreshLocked is refresh; it returns the log names it found.
func (d *Dir) refreshLocked() ([]string, error) {
	names, err := d.listLogs()
	if err != nil {
		return nil, Transient(err)
	}
	for _, name := range names {
		li, known := d.byName[name]
		switch {
		case !known:
			f, err := os.Open(d.logPath(name))
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			if err != nil {
				return nil, Transient(err)
			}
			fi, err := f.Stat()
			if err != nil {
				f.Close()
				return nil, Transient(err)
			}
			li = len(d.logs)
			d.logs = append(d.logs, &rowLog{name: name, f: f, fi: fi})
			d.byName[name] = li
		case d.logs[li].own:
			if d.logs[li].end > 0 {
				continue // every byte of it came through this handle's Put
			}
			// Dropped after a read found its bytes moved: rescan it.
		default:
			if err := d.reopenIfReplacedLocked(li); err != nil {
				return nil, err
			}
		}
		if _, err := d.scanLocked(li); err != nil {
			return nil, Transient(err)
		}
	}
	return names, nil
}

// reopenIfReplacedLocked notices a log that a rewrite renamed over the
// file this handle has open, and switches to the new file, dropping
// every index entry into the old one.
func (d *Dir) reopenIfReplacedLocked(li int) error {
	l := d.logs[li]
	fi, err := os.Stat(d.logPath(l.name))
	if err != nil || os.SameFile(fi, l.fi) {
		return nil // gone or unchanged: keep serving the file we have
	}
	f, err := os.Open(d.logPath(l.name))
	if err != nil {
		return Transient(err)
	}
	if fi, err = f.Stat(); err != nil {
		f.Close()
		return Transient(err)
	}
	l.f.Close() // no read is using it: reads hold d.mu
	l.f, l.fi = f, fi
	d.dropLogLocked(li)
	return nil
}

// scanLocked indexes the complete lines of log li past its indexed end
// and returns the size it read up to.
func (d *Dir) scanLocked(li int) (int64, error) {
	l := d.logs[li]
	lines := 0
	end, size, err := scanLines(l.f, l.end, func(off, n int64, head []byte) {
		if k, ok := envelopeKey(head); ok {
			if at, ok := locOf(li, off, n); ok {
				d.indexLocked(k, at)
			}
		}
		lines++
	})
	l.end = end
	if lines >= mergeMin {
		d.idx.flush() // a bulk scan: leave the index exactly sized
	}
	return size, err
}

// indexLocked points k at a record, remembering the copy it supersedes
// (two writers that both missed, or a re-Put) so removal can blank every
// copy.
func (d *Dir) indexLocked(k key, at loc) {
	if old, ok := d.idx.set(k, at); ok && old != at {
		if d.dups == nil {
			d.dups = map[key][]loc{}
		}
		d.dups[k] = append(d.dups[k], old)
	}
}

// dropLogLocked forgets everything indexed in log li, so the next scan
// reads it from the start.
func (d *Dir) dropLogLocked(li int) {
	d.idx.dropLog(li)
	for k, locs := range d.dups {
		kept := locs[:0]
		for _, at := range locs {
			if int(at.log) != li {
				kept = append(kept, at)
			}
		}
		if len(kept) == 0 {
			delete(d.dups, k)
		} else {
			d.dups[k] = kept
		}
	}
	d.logs[li].end = 0
}

// forgetLocked drops the record at from the index. The newest older copy
// of the same hash, if any, takes its place.
func (d *Dir) forgetLocked(k key, at loc) {
	locs := d.dups[k]
	if cur, ok := d.idx.get(k); ok && cur == at {
		d.idx.del(k)
		if len(locs) > 0 {
			d.idx.set(k, locs[len(locs)-1])
			locs = locs[:len(locs)-1]
		}
	} else if i := slices.Index(locs, at); i >= 0 {
		locs = slices.Delete(locs, i, i+1)
	}
	if len(locs) == 0 {
		delete(d.dups, k)
	} else {
		d.dups[k] = locs
	}
}

// has reports whether k is indexed, without a refresh.
func (d *Dir) has(k key) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.idx.get(k)
	return ok
}

// read looks k up and reads the bytes where its record should be. It
// holds d.mu across the pread, so a descriptor is never closed under a
// read.
func (d *Dir) read(k key) (data []byte, at loc, ok bool, err error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if at, ok = d.idx.get(k); !ok {
		return nil, loc{}, false, nil
	}
	data = make([]byte, at.n)
	n, err := d.logs[at.log].f.ReadAt(data, at.off)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, loc{}, false, Transient(err)
	}
	return data[:n], at, true, nil
}

// record returns the bytes of k's record and where they are. A miss
// rescans the logs once before it is reported; so does a record that is
// no longer where the index says (blanked, or its log edited or
// replaced under this handle).
func (d *Dir) record(k key) ([]byte, loc, bool, error) {
	refreshed := false
	for tries := 0; tries < 8; tries++ {
		data, at, ok, err := d.read(k)
		if err != nil {
			return nil, loc{}, false, err
		}
		if !ok {
			if refreshed {
				return nil, loc{}, false, nil
			}
			if err := d.refresh(); err != nil {
				return nil, loc{}, false, err
			}
			refreshed = true
			continue
		}
		if len(data) == int(at.n) && isRecordOf(data, k) {
			return data, at, true, nil
		}
		d.mu.Lock()
		d.forgetLocked(k, at)
		if !isBlank(data) {
			// Not the record and not a blank: the log's bytes moved
			// (edited or truncated in place). Index it afresh.
			d.dropLogLocked(int(at.log))
			refreshed = false
		}
		d.mu.Unlock()
	}
	return nil, loc{}, false, Transient(fmt.Errorf("row %s kept changing while being read", k))
}

// Get implements Store, verifying the record's integrity before trusting
// it: the envelope must parse, carry a readable schema, name the hash it
// is filed under, and its checksum must match the stored row bytes.
// Verification failures are CorruptErrors (quarantinable, re-derivable);
// I/O failures are TransientErrors (retryable); schema-from-the-future
// is neither — see the taxonomy in errors.go. A row another handle or
// process appended since this handle last looked is found by the rescan
// a miss triggers.
func (d *Dir) Get(jobHash string) (scenario.Result, bool, error) {
	k, ok := keyOf(jobHash)
	if !ok {
		return scenario.Result{}, false, nil
	}
	data, _, ok, err := d.record(k)
	if err != nil || !ok {
		return scenario.Result{}, false, err
	}
	r, err := decodeEntry(jobHash, data)
	if err != nil {
		return scenario.Result{}, false, err
	}
	return r, true, nil
}

// Put implements Store: one append of the record to this handle's log.
// The first Put of a handle takes the lock of the first log no other
// writer holds — cutting a torn last line a crashed writer left — or
// creates a new log when every log is held. Only job content hashes (64
// lowercase hex digits) can be stored.
func (d *Dir) Put(jobHash string, r scenario.Result) error {
	k, ok := keyOf(jobHash)
	if !ok {
		return fmt.Errorf("store: %q is not a job content hash (64 lowercase hex digits)", jobHash)
	}
	data, err := marshalEntry(jobHash, r)
	if err != nil {
		return err
	}
	return d.append(k, data)
}

// append writes one whole record to this handle's log and indexes it.
func (d *Dir) append(k key, data []byte) error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if d.w < 0 {
		if err := d.acquire(); err != nil {
			return err
		}
	}
	d.mu.RLock()
	l := d.logs[d.w]
	d.mu.RUnlock()
	if n, err := l.f.Write(data); err != nil {
		// Never leave a torn record behind: the next append would
		// merge into it.
		if pos, serr := l.f.Seek(0, io.SeekEnd); serr == nil && n > 0 {
			l.f.Truncate(pos - int64(n))
		}
		return Transient(err)
	}
	// The file position after an append is the end of the log, wherever
	// that is: the offset stays right even if the log was edited by
	// hand under this handle.
	end, err := l.f.Seek(0, io.SeekCurrent)
	if err != nil {
		return Transient(err)
	}
	off := end - int64(len(data))
	d.mu.Lock()
	if at, ok := locOf(d.w, off, int64(len(data))); ok {
		d.indexLocked(k, at)
	}
	if l.end == off {
		l.end = end
	}
	d.mu.Unlock()
	return nil
}

// acquire makes this handle a writer: it locks the first existing log
// no one else holds, or creates the next one. Callers hold d.wmu.
func (d *Dir) acquire() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	names, err := d.refreshLocked()
	if err != nil {
		return err
	}
	for _, name := range names {
		if ok, err := d.takeLocked(name, 0); ok || err != nil {
			return err
		}
	}
	next := 0
	if len(names) > 0 {
		n, _ := logNumber(names[len(names)-1])
		next = n + 1
	}
	for ; ; next++ {
		// A name another writer just created is taken: try the next.
		if ok, err := d.takeLocked(strconv.Itoa(next)+logSuffix, os.O_CREATE|os.O_EXCL); ok || err != nil {
			return err
		}
	}
}

// takeLocked opens rows/name for appending with the extra open flags
// and, if no one else holds it, locks it and makes it this handle's log.
// It reports false when the log is held, gone, or (with O_EXCL) exists.
func (d *Dir) takeLocked(name string, flags int) (bool, error) {
	f, err := os.OpenFile(d.logPath(name), os.O_RDWR|os.O_APPEND|flags, 0o644)
	if errors.Is(err, fs.ErrNotExist) || errors.Is(err, fs.ErrExist) {
		return false, nil
	}
	if err != nil {
		return false, Transient(err)
	}
	if ok, err := d.lockCurrent(f, name); err != nil || !ok {
		f.Close()
		if err != nil {
			return false, Transient(err)
		}
		return false, nil
	}
	return true, d.adoptLocked(name, f)
}

// lockCurrent tries to lock f, the file opened at rows/name, and checks
// that it is still the file at that name: a rewrite may have renamed a
// new log over it between the open and the lock, and a lock on the old
// file guards nothing.
func (d *Dir) lockCurrent(f *os.File, name string) (bool, error) {
	ok, err := tryLock(f)
	if err != nil || !ok {
		return false, err
	}
	fi, err := f.Stat()
	if err != nil {
		return false, err
	}
	cur, err := os.Stat(d.logPath(name))
	if err != nil || !os.SameFile(fi, cur) {
		return false, nil
	}
	return true, nil
}

// adoptLocked makes the locked file f at rows/name this handle's log:
// indexes whatever it holds that the handle has not seen and cuts a
// torn last line, the debris of a writer that crashed mid-append.
func (d *Dir) adoptLocked(name string, f *os.File) error {
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return Transient(err)
	}
	li, known := d.byName[name]
	if !known {
		li = len(d.logs)
		d.logs = append(d.logs, &rowLog{name: name})
		d.byName[name] = li
	}
	l := d.logs[li]
	if l.f != nil {
		l.f.Close() // no read is using it: reads hold d.mu
	}
	if l.fi == nil || !os.SameFile(l.fi, fi) {
		d.dropLogLocked(li)
	}
	l.f, l.fi, l.own = f, fi, true
	size, err := d.scanLocked(li)
	if err == nil && size > l.end {
		err = f.Truncate(l.end)
	}
	if err != nil {
		l.own = false
		return Transient(err)
	}
	d.w = li
	return nil
}

// releaseWriter gives up this handle's log lock; the next Put takes a
// log again. Reads go on through a plain descriptor of the same file.
// Callers hold d.wmu.
func (d *Dir) releaseWriter() error {
	if d.w < 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	l := d.logs[d.w]
	f, err := os.Open(d.logPath(l.name))
	if err != nil {
		return Transient(err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return Transient(err)
	}
	if !os.SameFile(fi, l.fi) {
		d.dropLogLocked(d.w)
	}
	w := l.f
	l.f, l.fi, l.own = f, fi, false
	d.w = -1
	return w.Close() // drops the lock
}

// Close releases the handle's files and its log lock, so another writer
// can append to that log. The handle stays usable: the next call opens
// and scans the logs again.
func (d *Dir) Close() error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, l := range d.logs {
		keep(l.f.Close())
	}
	d.logs, d.dups = nil, nil
	d.byName = map[string]int{}
	d.idx = index{}
	d.w = -1
	return first
}

// blankAt overwrites the line data at offset off of rows/name with
// spaces ending in a newline — the in-place removal that keeps every
// other offset where it was — if those bytes are still there.
func (d *Dir) blankAt(name string, off int64, data []byte) error {
	f, err := os.OpenFile(d.logPath(name), os.O_RDWR, 0)
	if err != nil {
		return Transient(err)
	}
	defer f.Close()
	cur := make([]byte, len(data))
	if n, err := f.ReadAt(cur, off); n != len(cur) || !bytes.Equal(cur, data) {
		if err != nil && !errors.Is(err, io.EOF) {
			return Transient(err)
		}
		return nil // already blanked or rewritten
	}
	blank := bytes.Repeat([]byte{' '}, len(data))
	blank[len(blank)-1] = '\n'
	if _, err := f.WriteAt(blank, off); err != nil {
		return Transient(err)
	}
	return nil
}

// drop blanks k's record at and forgets it.
func (d *Dir) drop(k key, at loc, data []byte) error {
	d.mu.RLock()
	name := d.logs[at.log].name
	d.mu.RUnlock()
	if err := d.blankAt(name, at.off, data); err != nil {
		return err
	}
	d.mu.Lock()
	d.forgetLocked(k, at)
	d.mu.Unlock()
	return nil
}

// RemoveJob drops one stored row by blanking its record — every copy of
// it this handle knows of — in place. Removing an absent row is not an
// error (gc races with concurrent writers by design). The space comes
// back when Reclaim or Compact rewrites the log.
func (d *Dir) RemoveJob(jobHash string) error {
	k, ok := keyOf(jobHash)
	if !ok {
		return nil
	}
	for {
		data, at, ok, err := d.record(k)
		if err != nil || !ok {
			return err
		}
		if err := d.drop(k, at, data); err != nil {
			return err
		}
	}
}

// Len reports the number of distinct row hashes the logs hold, after a
// resync.
func (d *Dir) Len() (int, error) {
	if err := d.resync(); err != nil {
		return 0, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.idx.len(), nil
}

// JobHashes lists every stored row hash in lexical order, after a resync
// — the store's side of a push/pull delta diff and the list gc and
// compact iterate.
func (d *Dir) JobHashes() ([]string, error) {
	if err := d.resync(); err != nil {
		return nil, err
	}
	d.mu.RLock()
	out := make([]string, 0, d.idx.len())
	d.idx.each(func(k key, _ loc) { out = append(out, k.String()) })
	d.mu.RUnlock()
	sort.Strings(out)
	return out, nil
}

// present reports whether a row is stored under each of hashes, as of
// the last resync.
func (d *Dir) present(hashes []string) []bool {
	out := make([]bool, len(hashes))
	for i, h := range hashes {
		if k, ok := keyOf(h); ok {
			out[i] = d.has(k)
		}
	}
	return out
}
