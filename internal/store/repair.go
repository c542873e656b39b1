package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"rrbus/internal/exp"
	"rrbus/internal/scenario"
)

// Store-wide repair: where a Session heals the records it happens to
// touch, Repair heals everything at once — quarantine every damaged
// record, then replay every plan manifest that recorded its spec so the
// rows the quarantine (or an earlier crash) left missing are simulated
// back into place. cmd/rrbus-store exposes this as the `repair` verb.

// RepairReport is the outcome of a store-wide repair pass.
type RepairReport struct {
	// Scanned counts the records examined; Quarantined how many of them
	// were damaged and moved to quarantine/.
	Scanned     int `json:"scanned"`
	Quarantined int `json:"quarantined"`
	// PlansReplayed counts the manifests whose recorded spec was
	// recompiled and re-run; Resimulated the rows those replays had to
	// simulate (quarantined above, or missing before repair started).
	PlansReplayed int   `json:"plans_replayed"`
	Resimulated   int64 `json:"resimulated"`
	// Unrepairable lists job hashes that are referenced by a manifest and
	// missing, but whose manifest predates spec recording — there is
	// nothing to re-simulate them from.
	Unrepairable []string `json:"unrepairable,omitempty"`
	// Issues lists problems repair could not fix (unreadable manifests,
	// entries from a newer schema, stray files).
	Issues []Issue `json:"issues,omitempty"`
}

// OK reports whether the repair left the store whole: nothing
// unrepairable and no outstanding issues.
func (r *RepairReport) OK() bool { return len(r.Unrepairable) == 0 && len(r.Issues) == 0 }

// Repair heals the whole store in two passes. First every record in
// every row log is re-verified the way Get would, and damaged records —
// corrupt, or without a readable envelope — are quarantined; a torn last
// line no live writer holds is cut. Then every plan manifest that
// recorded its spec is recompiled and replayed through a Session against
// this store, so each missing row (just quarantined, or lost earlier) is
// re-simulated and recorded; intact rows are served as hits and cost
// nothing. Records written by a newer schema are reported, never
// quarantined. Cancelling ctx drains the in-flight replay and returns
// the report so far along with ctx.Err().
func (d *Dir) Repair(ctx context.Context, workers int) (*RepairReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rep := &RepairReport{}
	healthy, err := d.repairEntries(rep)
	if err != nil {
		return rep, err
	}
	if err := d.replayPlans(ctx, workers, healthy, rep); err != nil {
		return rep, err
	}
	return rep, nil
}

// repairEntries is the quarantine pass over every record of every log.
// It returns the hashes that kept a record, read from the logs
// themselves rather than from the handle's index, which does not see
// what was edited out of a log under it.
func (d *Dir) repairEntries(rep *RepairReport) (map[key]bool, error) {
	logs, strays, err := d.rowFiles()
	if err != nil {
		return nil, err
	}
	healthy := map[key]bool{}
	for _, s := range strays {
		rep.Issues = append(rep.Issues, Issue{Path: filepath.Join(rowsDirName, s), Err: "stray file (not a <n>.log row log)"})
	}
	err = d.walkLogs(logs, func(ln logLine) error {
		rep.Scanned++
		if !ln.ok {
			// No hash to file it under: name it by its own checksum.
			sum := sha256.Sum256(ln.data)
			if err := d.quarantineLine(ln, hex.EncodeToString(sum[:]), "unreadable record at "+ln.path()); err != nil {
				return err
			}
			rep.Quarantined++
			return nil
		}
		_, err := decodeEntry(ln.k.String(), ln.data)
		if IsCorrupt(err) {
			if err := d.quarantineLine(ln, ln.k.String(), err.Error()); err != nil {
				return err
			}
			rep.Quarantined++
			return nil
		}
		if err != nil {
			// Transient or schema-from-a-newer-build: not safe to
			// quarantine, surface instead.
			rep.Issues = append(rep.Issues, Issue{Path: ln.path(), Err: err.Error()})
		}
		healthy[ln.k] = true
		return nil
	}, d.cutTorn)
	return healthy, err
}

// quarantineLine sets one damaged log line aside under name and blanks
// it.
func (d *Dir) quarantineLine(ln logLine, name, reason string) error {
	if err := d.writeQuarantine(name, ln.data, reason); err != nil {
		return err
	}
	if err := d.blankAt(ln.log, ln.off, ln.data); err != nil {
		return err
	}
	if ln.ok {
		d.mu.Lock()
		if li, ok := d.byName[ln.log]; ok {
			if at, ok := locOf(li, ln.off, int64(len(ln.data))); ok {
				d.forgetLocked(ln.k, at)
			}
		}
		d.mu.Unlock()
	}
	return nil
}

// cutTorn cuts the torn last line of a log no live writer holds — what
// the next writer to take the log would do first.
func (d *Dir) cutTorn(log string, _, _ int64) error {
	f, err := os.OpenFile(d.logPath(log), os.O_RDWR, 0)
	if err != nil {
		return Transient(err)
	}
	defer f.Close()
	if ok, err := d.lockCurrent(f, log); err != nil || !ok {
		return err // held: the tail may be its writer's
	}
	// Under the lock, so nothing appends while the end is found again.
	end, size, err := scanLines(f, 0, func(int64, int64, []byte) {})
	if err == nil && size > end {
		err = f.Truncate(end)
	}
	if err != nil {
		return Transient(err)
	}
	return nil
}

// replayPlans is the re-simulation pass: manifests with recorded specs
// are recompiled and re-run against the store.
func (d *Dir) replayPlans(ctx context.Context, workers int, healthy map[key]bool, rep *RepairReport) error {
	hashes, err := d.Plans()
	if err != nil {
		return err
	}
	discard := exp.SinkFunc[scenario.Result](func(int, scenario.Result) error { return nil })
	for _, h := range hashes {
		m, err := d.readManifest(h)
		if err != nil {
			rep.Issues = append(rep.Issues, Issue{Path: filepath.Join("plans", h+".json"), Err: err.Error()})
			continue
		}
		var missing []string
		for _, jh := range m.Jobs {
			if k, ok := keyOf(jh); !ok || !healthy[k] {
				missing = append(missing, jh)
			}
		}
		if len(missing) == 0 {
			continue
		}
		if m.Spec == nil {
			// Pre-resilience manifest: the job hashes are known but not
			// the jobs, so the rows cannot be re-derived.
			rep.Unrepairable = append(rep.Unrepairable, missing...)
			continue
		}
		c, err := scenario.Compile(m.Spec)
		if err != nil {
			rep.Issues = append(rep.Issues, Issue{Path: filepath.Join("plans", h+".json"),
				Err: fmt.Sprintf("store: plan %s: recorded spec does not compile: %v", h, err)})
			continue
		}
		if c.Hash() != h {
			rep.Issues = append(rep.Issues, Issue{Path: filepath.Join("plans", h+".json"),
				Err: fmt.Sprintf("store: plan %s: recorded spec compiles to %s — manifest is inconsistent", h, c.Hash())})
			continue
		}
		sess := &Session{Store: d, Workers: workers}
		if err := sess.RunContext(ctx, c, discard); err != nil {
			rep.Resimulated += sess.Simulated()
			return err
		}
		rep.PlansReplayed++
		rep.Resimulated += sess.Simulated()
	}
	return nil
}
