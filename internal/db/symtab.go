package db

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/faultfs"
)

// symtab interns constant values to dense uint32 IDs, backed by an
// append-only log (record.go documents both on-disk formats). Interning is
// what lets the disk store hold each distinct string once no matter how
// many tuples reference it. A symtab is shared between a DiskStore and all
// its forks/snapshots, so it carries its own lock.
type symtab struct {
	mu   sync.RWMutex
	ids  map[string]uint32
	strs []string

	fs      faultfs.FS
	version int
	f       faultfs.File  // nil for a purely in-memory table
	w       *bufio.Writer // nil iff f is nil
	dirty   bool          // symbols appended since the last commit marker (v2)
	err     error         // first append failure; sticky, poisons durable interning
}

// symRecovery describes what openSymtab found while replaying the log.
type symRecovery struct {
	records   int64 // symbol records replayed
	tornBytes int64 // bytes truncated from a torn tail
}

// newSymtab returns an empty in-memory symbol table.
func newSymtab() *symtab {
	return &symtab{ids: make(map[string]uint32)}
}

// openSymtab loads (or creates) the symbol log at path. A torn tail — an
// incomplete record at EOF with nothing valid after it, the signature of a
// crash mid-append — is truncated away; symbols past it were never
// referenced by any surviving fact record (facts are only written after
// their symbols are flushed). Under the v2 format a complete-but-invalid
// record, or an incomplete one followed by valid data, is corruption and
// returns a *CorruptError (see record.go for why the two are separable).
func openSymtab(fsys faultfs.FS, path string, version int) (*symtab, symRecovery, error) {
	s := newSymtab()
	s.fs = fsys
	s.version = version
	var rcv symRecovery
	raw, err := fsys.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, rcv, fmt.Errorf("db: reading symbol table: %w", err)
	}
	good := 0
	for off := 0; off < len(raw); {
		r, perr := parseSymRecord(raw, off, version)
		if perr != nil {
			if inv, ok := perr.(*invalidRecord); ok {
				return nil, rcv, &CorruptError{Path: path, Offset: int64(off), Reason: inv.reason}
			}
			if version >= 2 && resyncSym(raw, off+1, version) {
				return nil, rcv, &CorruptError{Path: path, Offset: int64(off),
					Reason: "incomplete record followed by intact records"}
			}
			rcv.tornBytes = int64(len(raw) - good)
			break
		}
		if !r.marker {
			s.ids[r.val] = uint32(len(s.strs))
			s.strs = append(s.strs, r.val)
			rcv.records++
		}
		off += r.n
		good = off
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, rcv, fmt.Errorf("db: opening symbol table: %w", err)
	}
	if err := f.Truncate(int64(good)); err != nil {
		f.Close()
		return nil, rcv, fmt.Errorf("db: truncating torn symbol tail: %w", err)
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		f.Close()
		return nil, rcv, fmt.Errorf("db: seeking symbol table: %w", err)
	}
	s.f = f
	s.w = bufio.NewWriter(f)
	return s, rcv, nil
}

// intern returns the ID for v, assigning (and, for durable tables,
// appending and flushing) a new one if needed. New symbols are flushed to
// the OS before intern returns so that a fact record referencing them can
// never reach the OS first — a killed process leaves no fact pointing past
// the symbol log.
func (s *symtab) intern(v string) (uint32, error) {
	s.mu.RLock()
	id, ok := s.ids[v]
	s.mu.RUnlock()
	if ok {
		return id, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.ids[v]; ok {
		return id, nil
	}
	if s.w != nil {
		if s.err != nil {
			return 0, s.err
		}
		recBytes := appendSymRecord(nil, s.version, v, false)
		if _, err := s.w.Write(recBytes); err == nil {
			err = s.w.Flush()
			if err != nil {
				s.err = fmt.Errorf("db: appending symbol: %w", err)
				return 0, s.err
			}
		} else {
			s.err = fmt.Errorf("db: appending symbol: %w", err)
			return 0, s.err
		}
		s.dirty = true
	}
	id = uint32(len(s.strs))
	s.ids[v] = id
	s.strs = append(s.strs, v)
	return id, nil
}

// lookup returns the ID for v without assigning one.
func (s *symtab) lookup(v string) (uint32, bool) {
	s.mu.RLock()
	id, ok := s.ids[v]
	s.mu.RUnlock()
	return id, ok
}

// str resolves an ID back to its string. IDs come from the table itself, so
// out-of-range IDs indicate a corrupt segment record; callers validate
// against size() during replay.
func (s *symtab) str(id uint32) string {
	s.mu.RLock()
	v := s.strs[id]
	s.mu.RUnlock()
	return v
}

// all returns the interned strings, indexed by ID. Entries never change
// once interned, so the slice stays valid while later symbols are appended
// past its end.
func (s *symtab) all() []string {
	s.mu.RLock()
	strs := s.strs
	s.mu.RUnlock()
	return strs
}

// size returns the number of interned symbols.
func (s *symtab) size() int {
	s.mu.RLock()
	n := len(s.strs)
	s.mu.RUnlock()
	return n
}

// markerLocked appends a commit marker if symbols landed since the last
// one (v2 stores only). Callers hold s.mu and flush afterwards; once the
// marker is durable, corruption of any earlier synced record can never be
// mistaken for a torn tail.
func (s *symtab) markerLocked() error {
	if s.w == nil || s.version < 2 || !s.dirty {
		return nil
	}
	if _, err := s.w.Write(appendSymRecord(nil, s.version, "", true)); err != nil {
		return err
	}
	s.dirty = false
	return nil
}

// sync fsyncs the symbol log. Both flush and fsync failures are sticky: a
// device that failed an fsync may have dropped arbitrary dirty pages, so
// no later ack can be trusted (fail-stop, as for segment files).
func (s *symtab) sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	if s.err != nil {
		return s.err
	}
	if err := s.markerLocked(); err != nil {
		s.err = fmt.Errorf("db: appending symbol commit marker: %w", err)
		return s.err
	}
	if err := s.w.Flush(); err != nil {
		s.err = fmt.Errorf("db: flushing symbol table: %w", err)
		return s.err
	}
	if err := s.f.Sync(); err != nil {
		s.err = fmt.Errorf("db: syncing symbol table: %w", err)
		return s.err
	}
	return nil
}

// close flushes and closes the symbol log. With flush=false it simulates a
// process kill: buffered symbols are dropped on the floor.
func (s *symtab) close(flush bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	var err error
	if flush && s.err == nil {
		err = s.markerLocked()
		if ferr := s.w.Flush(); err == nil {
			err = ferr
		}
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f, s.w = nil, nil
	return err
}
