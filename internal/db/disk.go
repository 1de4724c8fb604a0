package db

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/faultfs"
	"repro/internal/schema"
)

// The disk-backed store keeps D as one append-only log, store.log: symbol
// definitions, relation-tagged inserts and deletes, and a commit marker per
// Sync, in the order they were applied (record.go documents the format).
// Constants are interned to uint32 IDs (symtab.go), and the log defines
// each symbol before the first fact record that uses it. The read index is
// an in-memory Database whose tuples hold the symbol table's own strings,
// so every value lives once in memory no matter how many tuples reference
// it, and Scan, MatchCount, Has, Tuples, Each and Snapshot run exactly the
// mem store's code. Open replays the log through the same Relation calls
// the live store makes, so a reopen rebuilds the same postings in the same
// order.
//
// Durability model: every mutating edit appends its new symbols and then
// its fact record to one buffered writer. Sync() appends a commit marker,
// flushes and fsyncs the log: one fsync, and none when nothing was
// appended since the last Sync. After it returns, even a machine crash
// loses nothing; the log's directory entry was made durable when the open
// created it. A process kill between Syncs loses at most the buffered
// tail: reopening truncates the log at its last complete, valid record
// (prefix recovery, the same torn-tail contract as the job journal).
//
// Robustness model: every record carries a CRC-32C trailer and every Sync
// appends a commit marker, so recovery can prove whether a decode failure
// is a torn tail (truncate and continue) or corruption (typed
// *CorruptError; the file is quarantined and a sticky QUARANTINE marker
// blocks reopens rather than inventing facts). All file I/O goes through a
// faultfs.FS so the whole story is provable under seeded fault injection
// (internal/check.CheckDiskFaults).
//
// Migration: a store written in the sharded v1 or v2 layout (hash-sharded
// segment files per relation plus symbols.dat) is read with the legacy
// decoders the first time it is opened and rewritten as a log (migrate).
// Nothing writes the old layouts.

const (
	diskMetaFile = "store.json"
	diskLogFile  = "store.log"
	// legacySymsFile is the v1/v2 symbol table, read only to migrate.
	legacySymsFile = "symbols.dat"

	// formatVersion is the on-disk format: 3 is the one log. Versions 1 and
	// 2 are migrated to it on open.
	formatVersion = 3

	// DefaultShards is ignored: the store has no shards. It remains because
	// the benchmark module passes it to OpenDisk.
	DefaultShards = 4

	opInsert = 1
	opDelete = 2
	// opCommit marks a Sync: it carries no data, but its presence
	// guarantees the synced region ends with a valid record, which is what
	// lets recovery refuse to classify synced-region corruption as a torn
	// tail.
	opCommit = 3
	opSymbol = 4
)

// diskMeta is the persisted store descriptor. Checksum covers the
// load-bearing fields, so the metadata is self-validating.
type diskMeta struct {
	Version int `json:"version"`
	// Shards is the hash fan-out of a v1 or v2 store.
	Shards   int    `json:"shards,omitempty"`
	Checksum uint32 `json:"checksum,omitempty"`
}

// checksum is the self-check over the version, and for v2 over the fan-out
// too: a bit flip in either must read as corruption.
func (m diskMeta) checksum() uint32 {
	if m.Version <= 2 {
		return crc32c([]byte(fmt.Sprintf("qoco-meta;v=%d;shards=%d", m.Version, m.Shards)))
	}
	return crc32c([]byte(fmt.Sprintf("qoco-meta;v=%d", m.Version)))
}

// errUnknownRelation marks a stored fact of a relation the schema lacks.
// It fails the open without a quarantine: the store is intact but was
// written under another schema, and skipping the facts would let the next
// compaction drop them for good.
var errUnknownRelation = errors.New("db: store holds facts of a relation the schema lacks")

// DiskOption configures OpenDisk.
type DiskOption func(*diskOptions)

type diskOptions struct {
	fs faultfs.FS
}

// WithFS routes every file operation through fsys — the fault-injection
// seam. Production opens use the default, faultfs.OS().
func WithFS(fsys faultfs.FS) DiskOption {
	return func(o *diskOptions) { o.fs = fsys }
}

// DiskStore is the disk-backed Store implementation. Its concurrency
// contract matches *Database: concurrent readers are safe, mutations must
// be serialized by the caller. Snapshots share the relations copy-on-write
// (Relation.Clone).
type DiskStore struct {
	dir  string
	fs   faultfs.FS
	d    *Database // the read index over the symbol table's strings; its identity and generation are the store's
	syms *symtab

	file     faultfs.File  // the log's append handle; nil once closed
	w        *bufio.Writer // nil iff file is nil
	records  int           // insert and delete records in the log (file and buffer)
	unsynced bool          // records appended since the last Sync, whether or not a full buffer flushed them
	rec      []byte        // scratch for the records one edit appends
	ids      []uint32      // scratch for one fact record's symbol IDs

	// Recovery counters, frozen at open (surfaced via Stats).
	tornTails       int64
	tornBytes       int64
	recordsReplayed int64
	leftoverQuar    int // *.quarantined files present in the dir at open

	// Compaction counters (surfaced via Stats).
	compactRuns      int64
	compactReclaimed int64

	closed bool
	err    error // first append/fsync failure; sticky, poisons mutations
}

// OpenDisk opens (creating if empty) the disk-backed store in dir for the
// given schema. The int argument is ignored: it was the hash fan-out of the
// sharded layout, and the benchmark module still passes DefaultShards. A
// store in a legacy layout is migrated to the log here. Detected corruption
// — as opposed to a recoverable torn tail — returns a *CorruptError
// (errors.Is ErrCorrupt), quarantines the damaged file, and leaves a sticky
// QUARANTINE marker so later opens keep failing until an operator
// intervenes (docs/OPERATIONS.md). Facts of a relation the schema lacks
// fail the open with a plain error.
func OpenDisk(dir string, s *schema.Schema, _ int, opts ...DiskOption) (*DiskStore, error) {
	o := diskOptions{fs: faultfs.OS()}
	for _, opt := range opts {
		opt(&o)
	}
	fsys := o.fs
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("db: creating store dir %s: %w", dir, err)
	}
	if err := checkQuarantine(fsys, dir); err != nil {
		return nil, err
	}
	m, found, err := readMeta(fsys, dir)
	if err != nil {
		return nil, err
	}
	legacy := found && m.Version < formatVersion
	quarantined, legacyLeft := cleanupStale(fsys, dir, found && !legacy)
	ds := &DiskStore{
		dir:          dir,
		fs:           fsys,
		d:            New(s),
		syms:         newSymtab(),
		leftoverQuar: quarantined,
	}
	switch {
	case legacy:
		err = ds.migrate(m)
	case legacyLeft:
		// Without store.json, the version and fan-out that decode the
		// sharded files are unknown; creating a fresh log over them would
		// lose their facts at the next open's cleanup.
		err = fmt.Errorf("db: store %s holds files of the sharded layout but no %s; restore it to migrate them", dir, diskMetaFile)
	case !found:
		if err = writeMetaAtomic(fsys, dir); err == nil {
			err = ds.replay()
		}
	default:
		err = ds.replay()
	}
	if err != nil {
		ds.Crash()
		var cerr *CorruptError
		if errors.As(err, &cerr) {
			quarantine(fsys, dir, cerr, true)
		}
		return nil, err
	}
	if ds.tornTails > 0 {
		rec().Add(MetricRecoveryTornTails, ds.tornTails)
		rec().Add(MetricRecoveryTornBytes, ds.tornBytes)
	}
	rec().Add(MetricRecoveryRecords, ds.recordsReplayed)
	return ds, nil
}

// readMeta reads store.json; found is false when there is none. Corrupt
// metadata is quarantined in place and returned as a *CorruptError.
func readMeta(fsys faultfs.FS, dir string) (m diskMeta, found bool, err error) {
	path := filepath.Join(dir, diskMetaFile)
	raw, err := fsys.ReadFile(path)
	if os.IsNotExist(err) {
		return m, false, nil
	}
	if err != nil {
		return m, false, fmt.Errorf("db: reading store metadata: %w", err)
	}
	var reason string
	switch {
	case json.Unmarshal(raw, &m) != nil || m.Version < 1 || m.Version <= 2 && m.Shards <= 0:
		reason = "undecodable store metadata"
	// The checksum self-check runs before the newer-version refusal: a
	// bit-flipped version byte must read as corruption, not as a plausible
	// future format.
	case m.Checksum != 0 && m.Checksum != m.checksum():
		reason = "store metadata checksum mismatch"
	case m.Version > formatVersion:
		return m, true, fmt.Errorf("db: store %s uses format version %d, newer than this binary supports (%d)", dir, m.Version, formatVersion)
	case m.Version >= 2 && m.Checksum == 0:
		reason = fmt.Sprintf("v%d store metadata missing its checksum", m.Version)
	default:
		return m, true, nil
	}
	cerr := &CorruptError{Path: path, Reason: reason}
	quarantine(fsys, dir, cerr, false)
	return m, true, cerr
}

// isLegacyFile reports whether name is a file of the sharded layout.
func isLegacyFile(name string) bool {
	return name == legacySymsFile || strings.HasPrefix(name, "rel-") && strings.HasSuffix(name, ".seg")
}

// cleanupStale removes temp files left by a crash mid-install (metadata
// or log rewrites that never reached their rename) and, with migrated set
// (store.json reads v3), files of the sharded layout that a migration left
// behind after its metadata rewrite committed it. It counts the
// *.quarantined files an operator has not yet dealt with, and reports
// whether files of the sharded layout remain.
func cleanupStale(fsys faultfs.FS, dir string, migrated bool) (quarantined int, legacyLeft bool) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return 0, false
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.Contains(name, ".tmp-") || strings.Contains(name, ".compact-") || migrated && isLegacyFile(name):
			_ = fsys.Remove(filepath.Join(dir, name))
		case isLegacyFile(name):
			legacyLeft = true
		case strings.HasSuffix(name, ".quarantined"):
			quarantined++
		}
	}
	return quarantined, legacyLeft
}

// writeMetaAtomic installs the v3 store descriptor via temp file + fsync +
// rename + directory fsync, so a crash can never leave a torn store.json.
func writeMetaAtomic(fsys faultfs.FS, dir string) error {
	m := diskMeta{Version: formatVersion}
	m.Checksum = m.checksum()
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp, err := fsys.CreateTemp(dir, diskMetaFile+".tmp-*")
	if err != nil {
		return fmt.Errorf("db: writing store metadata: %w", err)
	}
	tmpName := tmp.Name()
	if _, err = tmp.Write(raw); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = faultfs.RenameAndSyncDir(fsys, tmpName, filepath.Join(dir, diskMetaFile))
	}
	if err != nil {
		_ = fsys.Remove(tmpName)
		return fmt.Errorf("db: writing store metadata: %w", err)
	}
	return nil
}

// replay reads the log in one pass, applying each record as the live store
// applied it, and opens the append handle. A torn tail is truncated;
// any other damage is a *CorruptError (record.go says why the two are
// separable).
func (s *DiskStore) replay() error {
	path := filepath.Join(s.dir, diskLogFile)
	raw, err := s.fs.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("db: reading store log: %w", err)
	}
	// Nothing shares the store before OpenDisk returns; replay takes the
	// symbol table's lock once rather than once per record.
	s.syms.mu.Lock()
	defer s.syms.mu.Unlock()
	var sl tupleSlab
	good := 0
	for off := 0; off < len(raw); off = good {
		r, perr := parseLogRecord(raw, off)
		if perr != nil {
			if cerr := classify(perr, path, off, func() bool { return resyncLog(raw, off+1) }); cerr != nil {
				return cerr
			}
			break
		}
		switch r.op {
		case opSymbol:
			s.syms.addLocked(string(r.body))
			s.recordsReplayed++
		case opInsert, opDelete:
			if err := s.replayFact(r, &sl); err != nil {
				var cerr *CorruptError
				if errors.As(err, &cerr) {
					cerr.Path, cerr.Offset = path, int64(off)
				}
				return err
			}
			s.records++
			s.recordsReplayed++
		}
		good = off + r.n
	}
	s.noteTorn(len(raw) - good)
	return s.openLog(int64(len(raw)), int64(good))
}

// replayFact applies one insert or delete record of the log. The caller
// holds the symbol table's lock.
func (s *DiskStore) replayFact(r logRec, sl *tupleSlab) error {
	ids, ok := decodeFactBody(r.body, uint32(len(s.syms.strs)), s.ids)
	s.ids = ids
	if !ok {
		return &CorruptError{Reason: "fact record malformed or naming an undefined symbol"}
	}
	name := s.syms.strs[ids[0]]
	rel := s.d.rels[name]
	if rel == nil {
		return fmt.Errorf("%w: %q", errUnknownRelation, name)
	}
	if len(ids)-1 != rel.arity {
		return &CorruptError{Reason: fmt.Sprintf("fact record of %s holds %d values, want %d", name, len(ids)-1, rel.arity)}
	}
	s.applyIDs(rel, r.op, ids[1:], sl)
	return nil
}

// applyIDs applies an insert or delete of the tuple whose symbol IDs are
// ids through the relation's own key lookup, add and Delete: the calls
// InsertFact and DeleteFact make, so replay rebuilds the live store's
// postings in their order. An insert builds the tuple's key once.
func (s *DiskStore) applyIDs(rel *Relation, op byte, ids []uint32, sl *tupleSlab) {
	strs := s.syms.strs // not shared yet: the store is still opening
	t := sl.next(len(ids))
	for i, id := range ids {
		t[i] = strs[id]
	}
	if op == opDelete {
		rel.Delete(t)
		return
	}
	var kb [128]byte
	if key := t.AppendKey(kb[:0]); !rel.hasKey(key) {
		rel.add(key, t)
		sl.keep(len(t))
	}
}

// tupleSlab hands out the tuples replay stores, carved from shared backing
// arrays: stored tuples are immutable, so they may share one.
type tupleSlab []string

// next returns room for a tuple of the given arity at the slab's front;
// keep then claims it. Unclaimed room is reused by the next call.
func (sl *tupleSlab) next(arity int) Tuple {
	if len(*sl) < arity {
		*sl = make([]string, max(1024, arity))
	}
	return Tuple((*sl)[:arity:arity])
}

func (sl *tupleSlab) keep(arity int) { *sl = (*sl)[arity:] }

// noteTorn counts a torn tail of n bytes dropped from a file at open.
func (s *DiskStore) noteTorn(n int) {
	if n > 0 {
		s.tornTails++
		s.tornBytes += int64(n)
	}
}

// openLog opens the log's append handle at offset good, truncating the
// torn tail past it in a file of size bytes. An open that creates the log
// fsyncs the directory first, so records synced to it cannot outlive its
// directory entry.
func (s *DiskStore) openLog(size, good int64) error {
	path := filepath.Join(s.dir, diskLogFile)
	f, err := faultfs.OpenAndSyncDir(s.fs, path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("db: opening store log: %w", err)
	}
	if good < size {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return fmt.Errorf("db: truncating torn log tail: %w", err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("db: seeking store log: %w", err)
	}
	s.file, s.w = f, bufio.NewWriter(f)
	return nil
}

// migrate reads a v1 or v2 store with the legacy decoders and rewrites it
// as a log. The compaction writer installs store.log; rewriting store.json
// as v3 then commits the switch; then the legacy files are removed. A
// crash before the metadata rewrite leaves the legacy store as it was (the
// next open migrates it again, replacing any store.log); a crash after it
// leaves legacy files that the next open removes.
func (s *DiskStore) migrate(m diskMeta) error {
	if err := s.readLegacySymbols(m.Version); err != nil {
		return err
	}
	names := s.d.schema.Names()
	segs := make(map[string]bool, len(names)*m.Shards)
	for _, name := range names {
		for i := 0; i < m.Shards; i++ {
			segs[segName(name, i)] = true
		}
	}
	// Segments of a relation the schema lacks hold facts the log could not
	// name; migrating would delete them.
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("db: listing store dir: %w", err)
	}
	for _, e := range entries {
		if n := e.Name(); isLegacyFile(n) && n != legacySymsFile && !segs[n] {
			if fi, err := e.Info(); err == nil && fi.Size() > 0 {
				return fmt.Errorf("%w: segment %s", errUnknownRelation, n)
			}
		}
	}
	var sl tupleSlab
	for _, name := range names {
		for i := 0; i < m.Shards; i++ {
			if err := s.readLegacySegment(s.d.rels[name], segName(name, i), m.Version, &sl); err != nil {
				return err
			}
		}
	}
	buf := s.liveLog()
	if _, err := s.installLog(buf); err != nil {
		return err
	}
	if err := writeMetaAtomic(s.fs, s.dir); err != nil {
		return err
	}
	for _, e := range entries {
		if isLegacyFile(e.Name()) {
			_ = s.fs.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
	s.records = s.d.Len()
	return s.openLog(int64(len(buf)), int64(len(buf)))
}

// segName is the file name of a legacy relation shard's segment, with name
// bytes that are unsafe in file names hex-escaped.
func segName(rel string, shard int) string {
	var b []byte
	for i := 0; i < len(rel); i++ {
		c := rel[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-' {
			b = append(b, c)
		} else {
			b = append(b, '%', "0123456789abcdef"[c>>4], "0123456789abcdef"[c&0xf])
		}
	}
	return fmt.Sprintf("rel-%s.%d.seg", b, shard)
}

// readLegacySymbols loads a v1 or v2 symbols.dat into the symbol table,
// keeping its IDs.
func (s *DiskStore) readLegacySymbols(version int) error {
	path := filepath.Join(s.dir, legacySymsFile)
	raw, err := s.fs.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("db: reading symbol table: %w", err)
	}
	strs, good, err := decodeLegacySymbols(raw, version, path)
	if err != nil {
		return err
	}
	s.syms.mu.Lock()
	for _, v := range strs {
		s.syms.addLocked(v)
	}
	s.syms.mu.Unlock()
	s.recordsReplayed += int64(len(strs))
	s.noteTorn(len(raw) - good)
	return nil
}

// readLegacySegment replays one v1 or v2 segment file into rel. A torn
// tail is dropped; v2 damage anywhere else is a *CorruptError.
func (s *DiskStore) readLegacySegment(rel *Relation, name string, version int, sl *tupleSlab) error {
	path := filepath.Join(s.dir, name)
	raw, err := s.fs.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("db: reading segment %s: %w", path, err)
	}
	symCount := uint32(s.syms.size())
	good := 0
	for off := 0; off < len(raw); off = good {
		r, perr := parseSegRecord(raw, off, version, rel.arity, symCount, s.ids)
		if perr != nil {
			resync := func() bool { return version >= 2 && resyncSeg(raw, off+1, version, rel.arity, symCount) }
			if cerr := classify(perr, path, off, resync); cerr != nil {
				return cerr
			}
			break
		}
		if r.op != opCommit {
			s.ids = r.ids
			s.applyIDs(rel, r.op, r.ids, sl)
			s.recordsReplayed++
		}
		good = off + r.n
	}
	s.noteTorn(len(raw) - good)
	return nil
}

// appendRecord encodes a fact record after the symbol records the edit
// already put in s.rec, and buffers them all. A failed append poisons the
// store (sticky error), mirroring the job journal.
func (s *DiskStore) appendRecord(op byte, ids []uint32) error {
	s.rec = appendLogRecord(s.rec, op, "", ids)
	if _, err := s.w.Write(s.rec); err != nil {
		s.err = fmt.Errorf("db: appending to the store log: %w", err)
		return s.err
	}
	s.records++
	s.unsynced = true
	return nil
}

// intern returns v's symbol ID. A new symbol's record goes onto s.rec, so
// the log defines it before the fact record that follows.
func (s *DiskStore) intern(v string) uint32 {
	id, added := s.syms.intern(v)
	if added {
		s.rec = appendLogRecord(s.rec, opSymbol, v, nil)
	}
	return id
}

// --- Store interface ---

// ID returns the store's process-unique identity (fresh on every open, so
// evaluation caches can never confuse two opens of the same directory).
func (s *DiskStore) ID() uint64 { return s.d.ID() }

// Generation returns the edit-generation counter. It starts at zero on
// every open; see Database.Generation for the caching contract.
func (s *DiskStore) Generation() uint64 { return s.d.Generation() }

// Schema returns the store's schema.
func (s *DiskStore) Schema() *schema.Schema { return s.d.Schema() }

// Err returns the sticky write-path error, if any: once an append, flush,
// or fsync has failed, every further mutation and Sync fails with it, and
// health checks (server /readyz) surface it.
func (s *DiskStore) Err() error { return s.err }

// Rel returns the named relation's read view, or nil if unknown.
func (s *DiskStore) Rel(name string) Rel { return s.d.Rel(name) }

// Has reports whether the fact is present.
func (s *DiskStore) Has(f Fact) bool { return s.d.Has(f) }

// Len returns the total fact count.
func (s *DiskStore) Len() int { return s.d.Len() }

// Facts returns every fact in deterministic order.
func (s *DiskStore) Facts() []Fact { return s.d.Facts() }

// Snapshot captures an immutable read view at the current generation,
// reporting the live store's identity so cache entries are shared at equal
// generations. Like every mutation, Snapshot must be serialized against
// other writes; afterwards the snapshot reads safely while edits land.
func (s *DiskStore) Snapshot() Snapshot { return s.d.Snapshot() }

// InsertFact adds the fact, appending its record (after any new symbols)
// first so the in-memory state never runs ahead of what a reopen can
// recover. The stored tuple holds the symbol table's strings.
func (s *DiskStore) InsertFact(f Fact) (bool, error) {
	r := s.d.rels[f.Rel]
	if r == nil {
		return false, fmt.Errorf("db: unknown relation %q", f.Rel)
	}
	if len(f.Args) != r.arity {
		return false, fmt.Errorf("db: arity mismatch for %s: got %d, want %d", f.Rel, len(f.Args), r.arity)
	}
	if err := ValidateValues(f.Args); err != nil {
		return false, err
	}
	if s.err != nil {
		return false, s.err
	}
	var kb [128]byte
	key := f.Args.AppendKey(kb[:0])
	if r.hasKey(key) {
		return false, nil
	}
	s.rec = s.rec[:0]
	ids := append(s.ids[:0], s.intern(f.Rel))
	t := make(Tuple, len(f.Args))
	for i, v := range f.Args {
		id := s.intern(v)
		ids = append(ids, id)
		t[i] = s.syms.str(id)
	}
	s.ids = ids
	if err := s.appendRecord(opInsert, ids); err != nil {
		return false, err
	}
	r.add(key, t)
	s.d.gen++
	return true, nil
}

// DeleteFact removes the fact, returning true if it was present.
func (s *DiskStore) DeleteFact(f Fact) (bool, error) {
	r := s.d.rels[f.Rel]
	if r == nil {
		return false, fmt.Errorf("db: unknown relation %q", f.Rel)
	}
	if len(f.Args) != r.arity {
		return false, nil
	}
	if s.err != nil {
		return false, s.err
	}
	if !r.Has(f.Args) {
		return false, nil
	}
	// A stored tuple's values and its relation's name were interned when
	// it was stored.
	relID, _ := s.syms.lookup(f.Rel)
	ids := append(s.ids[:0], relID)
	for _, v := range f.Args {
		id, _ := s.syms.lookup(v)
		ids = append(ids, id)
	}
	s.ids = ids
	s.rec = s.rec[:0]
	if err := s.appendRecord(opDelete, ids); err != nil {
		return false, err
	}
	r.Delete(f.Args)
	s.d.gen++
	return true, nil
}

// Apply applies one edit.
func (s *DiskStore) Apply(e Edit) (bool, error) {
	if e.Op == Insert {
		return s.InsertFact(e.Fact)
	}
	return s.DeleteFact(e.Fact)
}

// ApplyAll applies the edits in order, stopping at the first error.
func (s *DiskStore) ApplyAll(edits []Edit) (int, error) {
	changed := 0
	for _, e := range edits {
		ch, err := s.Apply(e)
		if err != nil {
			return changed, err
		}
		if ch {
			changed++
		}
	}
	return changed, nil
}

// Stats describes the store: per-relation fact counts, the on-disk
// footprint (current file sizes plus bytes still buffered), the log's
// garbage ratio, and the recovery and compaction counters.
func (s *DiskStore) Stats() Stats {
	st := s.d.Stats()
	st.Backend = "disk"
	st.Symbols = s.syms.size()
	st.FormatVersion = formatVersion
	if s.records > 0 {
		st.GarbageRatio = float64(s.records-st.TotalFacts) / float64(s.records)
	}
	st.TornTails = s.tornTails
	st.TornBytesTruncated = s.tornBytes
	st.RecordsReplayed = s.recordsReplayed
	st.QuarantinedFiles = s.leftoverQuar
	st.CompactionRuns = s.compactRuns
	st.CompactionReclaimedBytes = s.compactReclaimed
	if s.file != nil {
		if fi, err := s.file.Stat(); err == nil {
			st.DiskBytes = fi.Size()
		}
		st.DiskBytes += int64(s.w.Buffered())
	}
	if fi, err := s.fs.Stat(filepath.Join(s.dir, diskMetaFile)); err == nil {
		st.DiskBytes += fi.Size()
	}
	return st
}

// Sync makes everything applied so far durable: it appends a commit
// marker, flushes, and fsyncs the log — the one fsync — when anything was
// appended since the last Sync, and does nothing otherwise. The marker
// keeps the synced region ending with a valid record (the torn-vs-corrupt
// classifier depends on this — record.go). Flush and fsync failures are
// both sticky: an fsync that failed may have dropped arbitrary dirty
// pages, so the store fails stop rather than risk acknowledging lost data.
func (s *DiskStore) Sync() error {
	if s.closed {
		return nil
	}
	if s.err != nil || !s.unsynced {
		return s.err
	}
	if err := s.flushCommit(); err != nil {
		s.err = err
		return err
	}
	if err := s.file.Sync(); err != nil {
		s.err = fmt.Errorf("db: syncing the store log: %w", err)
		return s.err
	}
	s.unsynced = false
	return nil
}

// Close flushes the log (ending it with a commit marker) and closes it,
// without an fsync. The store must not be used after.
func (s *DiskStore) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.file == nil {
		return nil
	}
	var err error
	if s.err == nil && s.unsynced {
		err = s.flushCommit()
	}
	if cerr := s.file.Close(); err == nil {
		err = cerr
	}
	s.file, s.w = nil, nil
	return err
}

// flushCommit appends a commit marker and flushes the log to the OS.
func (s *DiskStore) flushCommit() error {
	s.rec = appendLogRecord(s.rec[:0], opCommit, "", nil)
	if _, err := s.w.Write(s.rec); err != nil {
		return fmt.Errorf("db: appending commit marker: %w", err)
	}
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("db: flushing the store log: %w", err)
	}
	return nil
}

// Crash simulates a process kill for crash-recovery tests: the log is
// closed without flushing, dropping every record buffered since the last
// Sync (or buffer spill). The store must not be used after.
func (s *DiskStore) Crash() {
	if s.closed {
		return
	}
	s.closed = true
	if s.file != nil {
		s.file.Close()
		s.file, s.w = nil, nil
	}
}

var _ Store = (*DiskStore)(nil)
