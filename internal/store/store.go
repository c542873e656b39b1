// Package store is the content-addressed results store of the
// Plan→Run→Store→Render pipeline: recorded scenario.Result rows keyed by
// the content hash of the job that measured them (scenario.Job.Hash),
// plus per-plan manifests keyed by the plan hash.
//
// The store is what turns measurements from a transient byproduct into
// the asset the methodology is built around ("measure once, derive
// bounds with confidence"): a Session consults it before simulating, so
// a repeated sweep — or a different plan whose jobs overlap a previous
// one, like a derivation sweep over a k range a figure already measured —
// simulates only the delta while rendering byte-identical output.
//
// Two implementations ship: Mem (per-process, for pipelines and tests)
// and Dir (a directory of append-only row logs of integrity-checked
// records, shareable across runs, processes and machines; see Dir for
// the layout). Both are content-addressed: a stored row's ID is cleared
// on Put — labeling belongs to the plan replaying the row, not to the
// measurement — and callers relabel on Get.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"rrbus/internal/scenario"
)

// Store holds recorded measurement rows keyed by job content hash.
type Store interface {
	// Get returns the row recorded under a job hash. A missing entry is
	// (zero, false, nil); a present-but-unreadable entry (corruption,
	// incompatible schema) is an error — serving a damaged row as a miss
	// would silently re-simulate, and serving it as a hit would derive a
	// wrong bound.
	Get(jobHash string) (scenario.Result, bool, error)
	// Put records a row under a job hash, clearing its ID first (the
	// store is content-addressed; see the package comment). Recording
	// the same hash again overwrites — rows are deterministic functions
	// of the job, so any honest writer stores the same bytes.
	Put(jobHash string, r scenario.Result) error
}

// PlanRecorder is optionally implemented by stores that additionally
// index plans: a manifest per plan hash, recording which job hashes the
// plan expands to. Sessions record every plan they run, so a store
// doubles as an audit log of the sweeps that filled it.
type PlanRecorder interface {
	PutPlan(c *scenario.Compiled) error
}

// normalize strips the labeling and pins the schema of a row about to be
// stored.
func normalize(r scenario.Result) scenario.Result {
	r.ID = ""
	if r.Schema == 0 {
		r.Schema = scenario.ResultSchema
	}
	return r
}

// NormalizeRow returns the content-addressed form of a row: ID cleared,
// schema pinned — exactly what Put records. The distribution layer
// marshals this form on the wire so the checksum a worker computes is the
// checksum the coordinator's store verifies.
func NormalizeRow(r scenario.Result) scenario.Result { return normalize(r) }

// SumRow is the integrity checksum the store records alongside a row:
// sha256 over the job hash and the row's canonical JSON bytes. Exported
// for the distribution layer, which sends rows over the wire with the
// same checksum so ingest can verify them before recording.
func SumRow(jobHash string, row []byte) string { return sumOf(jobHash, row) }

// Mem is an in-process Store: a map guarded by a mutex. The zero value
// is not usable; call NewMem.
type Mem struct {
	mu          sync.RWMutex
	rows        map[string]scenario.Result
	quarantined map[string]string
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{rows: map[string]scenario.Result{}} }

// Get implements Store.
func (m *Mem) Get(jobHash string) (scenario.Result, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	r, ok := m.rows[jobHash]
	return r, ok, nil
}

// Put implements Store. The row's slices (histograms, trace) are stored
// by reference; callers must not mutate them after Put.
func (m *Mem) Put(jobHash string, r scenario.Result) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rows[jobHash] = normalize(r)
	return nil
}

// Len reports the number of stored rows.
func (m *Mem) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.rows)
}

// JobHashes lists the stored row hashes in lexical order — the store's
// side of a push/pull delta diff.
func (m *Mem) JobHashes() ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.rows))
	for h := range m.rows {
		out = append(out, h)
	}
	sort.Strings(out)
	return out, nil
}

// entry is the on-disk envelope of one stored row — one line of a row
// log: the row bytes plus enough redundancy to verify them on read. Sum
// covers the job hash and the row bytes together, so a bit flip anywhere
// — the row, the sum, or the hash the record is indexed under — fails
// verification.
type entry struct {
	Schema int             `json:"schema"`
	Hash   string          `json:"hash"`
	Sum    string          `json:"sum"`
	Result json.RawMessage `json:"result"`
}

// planManifest is the on-disk record of one plan: its identity, the job
// hashes it expands to in job order, and — since the resilience layer —
// the declarative spec it was compiled from, so `rrbus-store repair` can
// recompile the plan and re-simulate any job whose row was quarantined
// or lost. Manifests written before the spec was recorded stay readable
// (Spec is simply nil) but their missing rows are not re-derivable.
type planManifest struct {
	Schema    int            `json:"schema"`
	Name      string         `json:"name,omitempty"`
	Generator string         `json:"generator,omitempty"`
	Hash      string         `json:"hash"`
	Jobs      []string       `json:"jobs"`
	Spec      *scenario.Plan `json:"spec,omitempty"`
}

// sumOf is the integrity checksum of a stored row: sha256 over the job
// hash and the row's canonical bytes.
func sumOf(jobHash string, row []byte) string {
	h := sha256.New()
	h.Write([]byte(jobHash))
	h.Write([]byte{'\n'})
	h.Write(row)
	return hex.EncodeToString(h.Sum(nil))
}

// Dir is a directory-backed Store:
//
//	<root>/rows/<n>.log              append-only row logs, one record a line
//	<root>/plans/<hash>.json         one manifest per recorded plan
//	<root>/quarantine/<hash>.json    records set aside by self-healing
//	<root>/quarantine/<hash>.reason  why each was quarantined
//
// A record is the entry envelope {"schema","hash","sum","result"} on one
// line. A Put appends one record to the log its handle holds the lock
// of; the number of logs grows with the number of concurrent writers,
// not with the number of rows. A Get looks the hash up in an in-memory
// index and reads the record with one pread. Rows another handle or
// process appended become visible at this handle's next miss, which
// rescans only the bytes appended since its last scan; the listings
// (Len, JobHashes, PlanInfo, Quarantined) rebuild the index from every
// log first, so they also see rows other handles removed. RemoveJob and
// Quarantine blank a record in place, so no offset moves under a live
// reader; Compact and Reclaim give the space back by rewriting logs.
// Concurrent sessions — even separate processes sharding one sweep — can
// share a root; at worst two writers race to append the identical row.
//
// A handle holds open files and, once it has written, its log's lock
// until Close. Opening a root in the earlier layout, one file per row at
// jobs/<hh>/<hash>.json, imports it once: valid entries are appended to
// a log, corrupt or misfiled ones are quarantined.
type Dir struct {
	root string

	// mu guards the index and the handle's view of the logs; reads hold
	// it across their pread, so a replaced descriptor can be closed at
	// once.
	mu     sync.RWMutex
	logs   []*rowLog
	byName map[string]int
	idx    index
	dups   map[key][]loc // older copies of indexed hashes

	// wmu serializes appends; w is the index of this handle's log in
	// logs, -1 until the first Put.
	wmu sync.Mutex
	w   int
}

// staleTmpAge is how old a leftover writeAtomic temp file must be before
// OpenDir sweeps it. A crash mid-write strands a `.tmp-*` file forever;
// a live concurrent writer's temp file exists for milliseconds. The age
// gate separates the two, so opening a store shared with an active
// session never yanks a file out from under its rename.
const staleTmpAge = 10 * time.Minute

// OpenDir opens (creating if needed) a directory store rooted at root,
// sweeping any stale temp files a crashed writer left behind (see
// staleTmpAge) so `verify` stays clean after an unclean shutdown, and
// importing a store written in the earlier one-file-per-row layout.
func OpenDir(root string) (*Dir, error) {
	for _, sub := range []string{rowsDirName, "plans"} {
		if err := os.MkdirAll(filepath.Join(root, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	d := &Dir{root: root, byName: map[string]int{}, w: -1}
	if err := d.sweepStaleTmp(); err != nil {
		return nil, err
	}
	if err := d.importLegacy(); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// sweepStaleTmp removes `.tmp-*` files older than staleTmpAge anywhere
// under the store root — the debris of a writeAtomic or a log rewrite
// interrupted before its rename.
func (d *Dir) sweepStaleTmp() error {
	cutoff := time.Now().Add(-staleTmpAge)
	return filepath.WalkDir(d.root, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			// A directory vanishing mid-walk (concurrent gc) is not worth
			// failing an open over.
			return nil
		}
		if de.IsDir() || !strings.HasPrefix(de.Name(), ".tmp-") {
			return nil
		}
		info, err := de.Info()
		if err != nil || info.ModTime().After(cutoff) {
			return nil
		}
		// Best-effort: a racing sweep may have removed it first.
		os.Remove(path)
		return nil
	})
}

// Root returns the store's directory.
func (d *Dir) Root() string { return d.root }

// marshalEntry builds the record Put appends for a row: the entry
// envelope and a trailing newline.
func marshalEntry(jobHash string, r scenario.Result) ([]byte, error) {
	row, err := json.Marshal(normalize(r))
	if err != nil {
		return nil, fmt.Errorf("store: marshal row %s: %w", jobHash, err)
	}
	e := entry{
		Schema: scenario.ResultSchema,
		Hash:   jobHash,
		Sum:    sumOf(jobHash, row),
		Result: row,
	}
	data, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("store: marshal entry %s: %w", jobHash, err)
	}
	return append(data, '\n'), nil
}

// decodeEntry verifies one stored record and decodes its row: the
// envelope must parse, carry a readable schema, name jobHash, and its
// checksum must match the row bytes.
func decodeEntry(jobHash string, data []byte) (scenario.Result, error) {
	var r scenario.Result
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		return r, &CorruptError{Hash: jobHash, Reason: fmt.Sprintf("entry does not parse: %v", err)}
	}
	if e.Schema > scenario.ResultSchema {
		return r, fmt.Errorf("store: %s: entry schema %d but this build reads <= %d — store written by a newer version?",
			jobHash, e.Schema, scenario.ResultSchema)
	}
	if e.Hash != jobHash {
		return r, &CorruptError{Hash: jobHash, Reason: fmt.Sprintf("entry claims hash %s", e.Hash)}
	}
	if got := sumOf(jobHash, e.Result); got != e.Sum {
		return r, &CorruptError{Hash: jobHash,
			Reason: fmt.Sprintf("checksum mismatch (stored %s, computed %s) — corrupted entry", e.Sum, got)}
	}
	if err := json.Unmarshal(e.Result, &r); err != nil {
		return r, &CorruptError{Hash: jobHash, Reason: fmt.Sprintf("row does not parse: %v", err)}
	}
	return r, checkRowSchema(jobHash, r)
}

func checkRowSchema(jobHash string, r scenario.Result) error {
	if r.Schema > scenario.ResultSchema {
		return fmt.Errorf("store: %s: row schema %d but this build reads <= %d", jobHash, r.Schema, scenario.ResultSchema)
	}
	return nil
}

// PutPlan implements PlanRecorder. The manifest records the plan's
// declarative spec alongside its job hashes, which is what lets repair
// re-simulate a quarantined or missing row from the plans that
// reference it. The manifest file is named by the plan hash, so a re-run
// of a recorded plan finds exactly these bytes there already; identical
// manifests are not rewritten. A missing or damaged one is.
func (d *Dir) PutPlan(c *scenario.Compiled) error {
	m := planManifest{
		Schema:    scenario.ResultSchema,
		Name:      c.Name(),
		Generator: c.Generator(),
		Hash:      c.Hash(),
		Jobs:      c.JobHashes(),
		Spec:      c.Spec,
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: marshal plan %s: %w", c.Hash(), err)
	}
	data = append(data, '\n')
	path := filepath.Join(d.root, "plans", c.Hash()+".json")
	if old, err := os.ReadFile(path); err == nil && bytes.Equal(old, data) {
		return nil
	}
	return d.writeAtomic(path, data)
}

// Plans lists the plan hashes recorded in the store, in lexical order.
func (d *Dir) Plans() ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(d.root, "plans"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []string
	for _, e := range ents {
		if name, ok := strings.CutSuffix(e.Name(), ".json"); ok && name != "" {
			out = append(out, name)
		}
	}
	return out, nil
}

// writeAtomic writes data to path via a temp file in the same directory
// plus a rename, so readers never observe a half-written entry. Failures
// are TransientErrors: nothing recorded is damaged (the rename either
// happened or it did not), so the write is safely retryable.
func (d *Dir) writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Transient(err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return Transient(err)
	}
	// CreateTemp creates 0600; the store is documented as shareable
	// across users and processes, so widen to the usual 0644. fchmod
	// ignores the process umask, so entries are always 0644.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return Transient(err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return Transient(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return Transient(err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return Transient(err)
	}
	return nil
}
