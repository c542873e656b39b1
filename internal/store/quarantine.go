package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The quarantine half of self-healing. A stored record that fails
// verification is evidence — of a bad disk, a truncated copy, a buggy
// writer — so it is set aside rather than deleted: its bytes go to
// quarantine/<hash>.json, a quarantine/<hash>.reason file records why,
// and the record is blanked in its log. The row itself is reproducible
// (it is a deterministic function of its job), so the Session that hit
// the corruption re-simulates the job and records a fresh row, healing
// the store in place. `rrbus-store gc` lists the quarantined debris and
// can drop entries whose hash has a healthy row again.

// Quarantiner is optionally implemented by stores that can set a damaged
// entry aside instead of serving it. Session uses it to self-heal: a
// CorruptError from Get quarantines the entry, and the job re-simulates
// as a plain store miss.
type Quarantiner interface {
	// Quarantine moves the entry recorded under jobHash out of service,
	// keeping the damaged bytes (and the reason) for forensics. It is
	// idempotent: quarantining an absent entry is not an error.
	Quarantine(jobHash, reason string) error
}

// Quarantine implements Quarantiner: the record's bytes are copied to
// quarantine/<hash>.json, the reason is recorded next to them, and the
// record is blanked in its log.
func (d *Dir) Quarantine(jobHash, reason string) error {
	k, ok := keyOf(jobHash)
	if !ok {
		return nil // nothing can be stored under it
	}
	data, at, found, err := d.record(k)
	if err != nil {
		return err
	}
	if !found {
		return d.writeQuarantine(jobHash, nil, reason)
	}
	if err := d.writeQuarantine(jobHash, data, reason); err != nil {
		return err
	}
	return d.drop(k, at, data)
}

// writeQuarantine records damaged bytes (when there are any) and the
// reason under quarantine/.
func (d *Dir) writeQuarantine(name string, data []byte, reason string) error {
	qdir := filepath.Join(d.root, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return Transient(err)
	}
	if data != nil {
		if err := d.writeAtomic(filepath.Join(qdir, name+".json"), data); err != nil {
			return err
		}
	}
	return d.writeAtomic(filepath.Join(qdir, name+".reason"), []byte(reason+"\n"))
}

// QuarantineInfo describes one quarantined entry for gc listings.
type QuarantineInfo struct {
	Hash   string `json:"hash"`
	Reason string `json:"reason,omitempty"`
	// Healed reports whether the store holds a healthy row for this hash
	// again (a Session or repair re-simulated it), which makes the
	// quarantined file pure debris — safe for gc to drop.
	Healed bool `json:"healed"`
}

// Quarantined lists the quarantine directory in lexical hash order. An
// absent directory is an empty (healthy) quarantine.
func (d *Dir) Quarantined() ([]QuarantineInfo, error) {
	ents, err := os.ReadDir(filepath.Join(d.root, "quarantine"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := d.resync(); err != nil {
		return nil, err
	}
	var infos []QuarantineInfo
	for _, e := range ents {
		hash, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok || hash == "" {
			continue
		}
		info := QuarantineInfo{Hash: hash}
		if b, err := os.ReadFile(filepath.Join(d.root, "quarantine", hash+".reason")); err == nil {
			info.Reason = strings.TrimSpace(string(b))
		}
		if k, ok := keyOf(hash); ok {
			info.Healed = d.has(k)
		}
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Hash < infos[j].Hash })
	return infos, nil
}

// RemoveQuarantined drops one quarantined entry (and its reason file).
// Removing an absent entry is not an error, mirroring Quarantine's
// idempotence.
func (d *Dir) RemoveQuarantined(jobHash string) error {
	for _, name := range []string{jobHash + ".json", jobHash + ".reason"} {
		if err := os.Remove(filepath.Join(d.root, "quarantine", name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("store: %w", err)
		}
	}
	return nil
}

// Quarantine implements Quarantiner for the in-memory store: the row is
// dropped and the reason retained (QuarantinedRows), mirroring Dir
// closely enough for fault-injection tests to exercise the same healing
// path a directory store takes.
func (m *Mem) Quarantine(jobHash, reason string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.rows, jobHash)
	if m.quarantined == nil {
		m.quarantined = map[string]string{}
	}
	m.quarantined[jobHash] = reason
	return nil
}

// QuarantinedRows returns a copy of the hash→reason quarantine record.
func (m *Mem) QuarantinedRows() map[string]string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[string]string, len(m.quarantined))
	for h, r := range m.quarantined {
		out[h] = r
	}
	return out
}
