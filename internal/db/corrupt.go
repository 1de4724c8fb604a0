package db

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"

	"repro/internal/faultfs"
)

// ErrCorrupt is the sentinel matched by errors.Is for every detected
// storage-corruption condition: a checksum mismatch, an undecodable record
// in the middle of the log, corrupt metadata, or a store already
// quarantined by a previous open. Torn tails are NOT corruption — they are
// the expected signature of a crash mid-append and are silently truncated.
var ErrCorrupt = errors.New("db: corrupt store")

// quarantineFile is the sticky marker written next to store.json when an
// open detects corruption. While it exists, every OpenDisk of the
// directory fails with *CorruptError instead of replaying around the
// damage and silently serving a subset of the database. Operators clear it
// per the runbook in docs/OPERATIONS.md after restoring or accepting the
// loss of the quarantined file.
const quarantineFile = "QUARANTINE"

// CorruptError reports detected corruption in one store file. It matches
// ErrCorrupt via errors.Is.
type CorruptError struct {
	// Path is the corrupt file.
	Path string
	// Offset is the byte offset of the first record that failed validation.
	Offset int64
	// Reason describes what failed (checksum mismatch, bad op, ...).
	Reason string
	// Quarantined is the path the corrupt file was moved to, or "" if it
	// was left in place (metadata corruption, or the move itself failed).
	Quarantined string
}

func (e *CorruptError) Error() string {
	msg := fmt.Sprintf("db: corrupt store: %s@%d: %s", e.Path, e.Offset, e.Reason)
	if e.Quarantined != "" {
		msg += fmt.Sprintf(" (quarantined to %s)", e.Quarantined)
	}
	return msg
}

// Is makes errors.Is(err, ErrCorrupt) true for CorruptError values.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// quarantineRecord is the JSON body of the QUARANTINE marker.
type quarantineRecord struct {
	File        string `json:"file"`
	Offset      int64  `json:"offset"`
	Reason      string `json:"reason"`
	Quarantined string `json:"quarantined,omitempty"`
}

// quarantine makes a corruption verdict sticky: it moves the corrupt file
// aside (when move is set — metadata files stay in place for diagnosis)
// and writes the QUARANTINE marker. Both steps are best-effort — the
// caller returns the typed error regardless; a half-written marker still
// blocks reopens (see checkQuarantine).
func quarantine(fsys faultfs.FS, dir string, cerr *CorruptError, move bool) {
	if move {
		dst := cerr.Path + ".quarantined"
		if err := faultfs.RenameAndSyncDir(fsys, cerr.Path, dst); err == nil {
			cerr.Quarantined = dst
		}
	}
	raw, _ := json.Marshal(quarantineRecord{
		File:        cerr.Path,
		Offset:      cerr.Offset,
		Reason:      cerr.Reason,
		Quarantined: cerr.Quarantined,
	})
	if fsys.WriteFile(filepath.Join(dir, quarantineFile), raw, 0o644) == nil {
		_ = fsys.SyncDir(dir)
	}
	rec().Inc(MetricRecoveryQuarantines)
}

// checkQuarantine fails the open while a QUARANTINE marker exists. An
// unreadable or half-written marker still quarantines — its presence is
// the signal; the JSON body is diagnostic.
func checkQuarantine(fsys faultfs.FS, dir string) error {
	marker := filepath.Join(dir, quarantineFile)
	raw, err := fsys.ReadFile(marker)
	if err != nil {
		return nil // no marker (or unreadable dir — the real open will say so)
	}
	var q quarantineRecord
	reason := "store quarantined by a previous open"
	var off int64
	file := marker
	if json.Unmarshal(raw, &q) == nil && q.File != "" {
		file = q.File
		off = q.Offset
		reason = fmt.Sprintf("store quarantined: %s", q.Reason)
	}
	return &CorruptError{
		Path:        file,
		Offset:      off,
		Reason:      reason + fmt.Sprintf("; restore the file and remove %s to reopen", marker),
		Quarantined: q.Quarantined,
	}
}
