package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"rrbus/internal/scenario"
)

// The audit half of the store: read-only tooling over the directory
// layout (rows/<n>.log row logs, plans/<hash>.json manifests) that
// cmd/rrbus-store exposes as `ls` and `verify`. An archived store
// is only as trustworthy as its last audit — a recorded row that no
// longer verifies must surface before a Session silently serves the
// sweep it belongs to.

// PlanInfo summarizes one recorded plan manifest for auditing: identity,
// job count and how many of its job hashes currently have a recorded
// row (the store's hit coverage for a re-run of that plan).
type PlanInfo struct {
	Hash      string `json:"hash"`
	Name      string `json:"name,omitempty"`
	Generator string `json:"generator,omitempty"`
	// Jobs is the manifest's job count; Present is how many of those job
	// hashes have a row in the logs right now.
	Jobs    int `json:"jobs"`
	Present int `json:"present"`
	// Err reports an unreadable manifest ("" = healthy); ls keeps
	// listing the rest of the store around it.
	Err string `json:"error,omitempty"`
}

// PlanInfos summarizes every recorded plan manifest, in lexical hash
// order.
func (d *Dir) PlanInfos() ([]PlanInfo, error) {
	hashes, err := d.Plans()
	if err != nil {
		return nil, err
	}
	if err := d.resync(); err != nil {
		return nil, err
	}
	infos := make([]PlanInfo, 0, len(hashes))
	for _, h := range hashes {
		infos = append(infos, d.planInfo(h))
	}
	return infos, nil
}

// PlanInfo summarizes one recorded plan manifest. An unreadable or
// missing manifest is reported in the Err field, not as an error return,
// matching how PlanInfos keeps listing a store around damage.
func (d *Dir) PlanInfo(planHash string) PlanInfo {
	if err := d.resync(); err != nil {
		return PlanInfo{Hash: planHash, Err: err.Error()}
	}
	return d.planInfo(planHash)
}

// planInfo is PlanInfo over the index as the last resync left it.
func (d *Dir) planInfo(planHash string) PlanInfo {
	info := PlanInfo{Hash: planHash}
	m, err := d.readManifest(planHash)
	if err != nil {
		info.Err = err.Error()
		return info
	}
	info.Name = m.Name
	info.Generator = m.Generator
	info.Jobs = len(m.Jobs)
	for _, ok := range d.present(m.Jobs) {
		if ok {
			info.Present++
		}
	}
	return info
}

// PlanSpec returns the declarative spec a recorded plan manifest carries
// — what lets a reader recompile the plan and serve its rows without the
// original scenario file. Manifests recorded before specs existed return
// an error naming the gap.
func (d *Dir) PlanSpec(planHash string) (*scenario.Plan, error) {
	m, err := d.readManifest(planHash)
	if err != nil {
		return nil, err
	}
	if m.Spec == nil {
		return nil, fmt.Errorf("store: plan %s: manifest records no spec (written before specs were recorded)", planHash)
	}
	return m.Spec, nil
}

// readManifest reads and validates one plan manifest.
func (d *Dir) readManifest(planHash string) (*planManifest, error) {
	data, err := os.ReadFile(filepath.Join(d.root, "plans", planHash+".json"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var m planManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: plan %s: manifest does not parse: %v", planHash, err)
	}
	if m.Schema > scenario.ResultSchema {
		return nil, fmt.Errorf("store: plan %s: manifest schema %d but this build reads <= %d — store written by a newer version?",
			planHash, m.Schema, scenario.ResultSchema)
	}
	if m.Hash != planHash {
		return nil, fmt.Errorf("store: plan %s: manifest claims hash %s", planHash, m.Hash)
	}
	return &m, nil
}

// Issue is one verification failure.
type Issue struct {
	// Path is the offending file, relative to the store root; a record
	// is named by its log and byte offset, rows/<n>.log@<offset>.
	Path string `json:"path"`
	Err  string `json:"error"`
}

// AuditReport is the outcome of a full store verification.
type AuditReport struct {
	// Jobs and Plans count the records and manifests checked (healthy or
	// not); Issues lists every failure in path order.
	Jobs   int     `json:"jobs"`
	Plans  int     `json:"plans"`
	Issues []Issue `json:"issues,omitempty"`
}

// OK reports whether the audit found no issues.
func (r *AuditReport) OK() bool { return len(r.Issues) == 0 }

// logLine is one complete, non-blank line of a row log.
type logLine struct {
	log  string // file name under rows/
	off  int64
	data []byte // the line, newline included
	k    key
	ok   bool // false: the line has no readable envelope prefix
}

func (ln logLine) path() string {
	return filepath.Join(rowsDirName, ln.log) + "@" + strconv.FormatInt(ln.off, 10)
}

// rowFiles lists rows/: the logs in numeric order, and every other
// entry.
func (d *Dir) rowFiles() (logs, strays []string, err error) {
	ents, err := os.ReadDir(filepath.Join(d.root, rowsDirName))
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range ents {
		if _, ok := logNumber(e.Name()); ok && e.Type().IsRegular() {
			logs = append(logs, e.Name())
		} else {
			strays = append(strays, e.Name())
		}
	}
	sortLogNames(logs)
	return logs, strays, nil
}

// walkLogs reads the named logs from the start, independently of the
// handle's index, and calls line for every complete non-blank line and
// torn for a log whose last line has no newline.
func (d *Dir) walkLogs(logs []string, line func(logLine) error, torn func(log string, end, size int64) error) error {
	for _, name := range logs {
		f, err := os.Open(d.logPath(name))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		var ferr error
		end, size, err := scanLines(f, 0, func(off, n int64, head []byte) {
			if ferr != nil {
				return
			}
			data := make([]byte, n)
			if _, err := f.ReadAt(data, off); err != nil {
				ferr = fmt.Errorf("store: %w", err)
				return
			}
			if isBlank(data) {
				return
			}
			k, ok := envelopeKey(head)
			ferr = line(logLine{log: name, off: off, data: data, k: k, ok: ok})
		})
		f.Close()
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if ferr != nil {
			return ferr
		}
		if size > end {
			if err := torn(name, end, size); err != nil {
				return err
			}
		}
	}
	return nil
}

// Verify reads every row log and plan manifest in the store, re-checking
// integrity checksums and schema versions: every record must parse,
// name its hash in its envelope prefix, carry a readable schema, and its
// stored checksum must match the row bytes. Blanked records are skipped.
// Lines without an envelope, a torn last line and stray files under
// rows/ (including leftover temp files) are reported too — verify
// audits archives at rest, not stores mid-write.
func (d *Dir) Verify() (*AuditReport, error) {
	rep := &AuditReport{}
	logs, strays, err := d.rowFiles()
	if err != nil {
		return nil, err
	}
	for _, s := range strays {
		rep.Issues = append(rep.Issues, Issue{Path: filepath.Join(rowsDirName, s), Err: "stray file (not a <n>.log row log)"})
	}
	err = d.walkLogs(logs, func(ln logLine) error {
		if !ln.ok {
			rep.Issues = append(rep.Issues, Issue{Path: ln.path(), Err: "unreadable record: no {\"schema\":N,\"hash\":\"<hash>\" envelope"})
			return nil
		}
		rep.Jobs++
		if _, err := decodeEntry(ln.k.String(), ln.data); err != nil {
			rep.Issues = append(rep.Issues, Issue{Path: ln.path(), Err: err.Error()})
		}
		return nil
	}, func(log string, end, size int64) error {
		rep.Issues = append(rep.Issues, Issue{Path: logLine{log: log, off: end}.path(),
			Err: fmt.Sprintf("torn last line (%d bytes without a newline): a writer stopped mid-append", size-end)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(filepath.Join(d.root, "plans"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range ents {
		rel := filepath.Join("plans", e.Name())
		if e.IsDir() {
			rep.Issues = append(rep.Issues, Issue{Path: rel, Err: "stray directory under plans/"})
			continue
		}
		h, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok || h == "" {
			rep.Issues = append(rep.Issues, Issue{Path: rel, Err: "stray file (not a <hash>.json manifest)"})
			continue
		}
		rep.Plans++
		if _, err := d.readManifest(h); err != nil {
			rep.Issues = append(rep.Issues, Issue{Path: rel, Err: err.Error()})
		}
	}
	return rep, nil
}
