package db

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/faultfs"
	"repro/internal/schema"
)

// The disk-backed store keeps facts in per-relation append-only segment
// files, hash-sharded N ways, with constants interned to uint32 IDs through
// a shared symbol table (symtab.go). Its read index is the in-memory
// store's: each relation is one *Relation (relation.go) whose tuples hold
// the symbol table's own strings, so every value lives once in memory no
// matter how many tuples reference it, and Scan, MatchCount, Has, Tuples,
// Each and Snapshot run exactly the mem store's code. A shard keeps
// only its segment file, its writer and its record and live counts; the
// shard a tuple belongs to follows from hashing it (shardOf).
//
// Durability model: every mutating edit appends one record to its shard's
// segment through a buffered writer; new symbols are flushed to the OS
// before the first fact record referencing them is buffered. Sync() flushes
// and fsyncs everything — after it returns, even a machine crash loses
// nothing. A process kill between Syncs loses at most the buffered tail;
// reopening truncates each segment at its last complete, valid record
// (per-shard prefix recovery, the same torn-tail contract as the job journal).
//
// Robustness model (v2 format, record.go): every record carries a CRC-32C
// trailer and every Sync appends a commit marker, so recovery can prove
// whether a decode failure is a torn tail (truncate and continue) or
// corruption (typed *CorruptError; the file is quarantined and a sticky
// QUARANTINE marker blocks reopens rather than inventing facts). All file
// I/O goes through a faultfs.FS so the whole story is provable under
// seeded fault injection (internal/check.CheckDiskFaults).

const (
	// diskMetaFile pins the shard fan-out a store was created with; reopens
	// use it regardless of the requested shard count (records are routed by
	// hash, so the fan-out is part of the on-disk format).
	diskMetaFile = "store.json"
	diskSymsFile = "symbols.dat"

	// formatVersion is the on-disk format for newly created stores. Version
	// 1 (no checksums, no commit markers) is still read and written
	// transparently for stores created before the bump.
	formatVersion = 2

	// DefaultShards is the per-relation shard fan-out used when OpenDisk is
	// given a non-positive count.
	DefaultShards = 4

	opInsert = 1
	opDelete = 2
	// opCommit marks a Sync: it carries no data, but its presence
	// guarantees the synced region ends with a valid record, which is what
	// lets recovery refuse to classify synced-region corruption as a torn
	// tail (v2 only).
	opCommit = 3
)

// diskMeta is the persisted store descriptor. Checksum (v2+) covers
// Version and Shards: a bit flip in either would silently re-route every
// tuple to the wrong shard, so the metadata must be self-validating.
type diskMeta struct {
	Version  int    `json:"version"`
	Shards   int    `json:"shards"`
	Checksum uint32 `json:"checksum,omitempty"`
}

// metaChecksum is the self-check over the load-bearing metadata fields.
func metaChecksum(version, shards int) uint32 {
	return crc32c([]byte(fmt.Sprintf("qoco-meta;v=%d;shards=%d", version, shards)))
}

// DiskOption configures OpenDisk.
type DiskOption func(*diskOptions)

type diskOptions struct {
	fs            faultfs.FS
	version       int
	replayWorkers int
}

// WithFS routes every file operation through fsys — the fault-injection
// seam. Production opens use the default, faultfs.OS().
func WithFS(fsys faultfs.FS) DiskOption {
	return func(o *diskOptions) { o.fs = fsys }
}

// withFormatVersion pins the on-disk format for newly created stores (1 or
// 2); reopens always use the version recorded in the store's metadata.
// Exists so tests can produce legacy stores.
func withFormatVersion(v int) DiskOption {
	return func(o *diskOptions) { o.version = v }
}

// withReplayWorkers bounds the open-time segment-replay parallelism; n <= 0
// (the default) means GOMAXPROCS. File operations stay serial and in sorted
// relation order regardless — only the pure parse of already-read segment
// bytes fans out — so fault injection and recovery counters are
// byte-identical to a serial open. 1 forces a fully serial replay, which
// tests compare the parallel replay against.
func withReplayWorkers(n int) DiskOption {
	return func(o *diskOptions) { o.replayWorkers = n }
}

// DiskStore is the disk-backed Store implementation. Its concurrency
// contract matches *Database: concurrent readers are safe, mutations must
// be serialized by the caller. Snapshots share the relations copy-on-write
// (Relation.Clone) and the symbol table outright.
type DiskStore struct {
	dir      string
	schema   *schema.Schema
	nshards  int
	version  int
	fs       faultfs.FS
	id       uint64
	gen      uint64
	syms     *symtab
	rels     map[string]*diskRel
	relNames []string // sorted; fixes file-op order for deterministic fault injection

	// Recovery counters, frozen at open (surfaced via Stats).
	tornTails       int64
	tornBytes       int64
	recordsReplayed int64
	leftoverQuar    int // *.quarantined files present in the dir at open

	// Compaction counters (surfaced via Stats).
	compactRuns      int64
	compactShards    int64
	compactReclaimed int64

	rec []byte // scratch for the segment record being appended

	closed bool
	err    error // first append/fsync failure; sticky, poisons mutations
}

// diskRel is one relation: its read index and, on a store that owns its
// files, its segment shards.
type diskRel struct {
	name   string
	arity  int
	rel    *Relation    // the read index, over the symbol table's strings
	shards []*diskShard // nil on detached stores
}

// diskShard is one segment file and its counts.
type diskShard struct {
	file    faultfs.File  // nil once closed
	w       *bufio.Writer // nil iff file is nil
	records int           // insert/delete records in the segment (file + buffer)
	live    int           // the relation's tuples that route to this shard
	dirty   bool          // records appended since the last commit marker (v2)
}

// packKey renders interned IDs as a compact fixed-width map key.
func packKey(ids []uint32) string {
	b := make([]byte, 4*len(ids))
	for i, id := range ids {
		binary.BigEndian.PutUint32(b[4*i:], id)
	}
	return string(b)
}

// FNV-1a parameters (hash/fnv's New32a).
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// shardOf routes a tuple to a shard by the 32-bit FNV-1a hash of its
// string key (Tuple.Key) — stable across reopens and independent of
// symbol-ID assignment order. It hashes the key's bytes in place instead
// of building it.
func shardOf(t Tuple, n int) int {
	h := uint32(fnvOffset32)
	for i, v := range t {
		if i > 0 {
			h = (h ^ uint32(keySep[0])) * fnvPrime32
		}
		for j := 0; j < len(v); j++ {
			h = (h ^ uint32(v[j])) * fnvPrime32
		}
	}
	return int(h % uint32(n))
}

// segName builds a segment file name for a relation shard, hex-escaping
// name bytes that are unsafe in file names.
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

// OpenDisk opens (creating if empty) the disk-backed store in dir for the
// given schema. shards fixes the per-relation hash fan-out on first
// creation; reopens always use the fan-out recorded in the store's
// metadata. The schema must match the one the store was created with.
// Detected corruption — as opposed to a recoverable torn tail — returns a
// *CorruptError (errors.Is ErrCorrupt), quarantines the damaged file, and
// leaves a sticky QUARANTINE marker so later opens keep failing until an
// operator intervenes (docs/OPERATIONS.md).
func OpenDisk(dir string, s *schema.Schema, shards int, opts ...DiskOption) (*DiskStore, error) {
	o := diskOptions{fs: faultfs.OS(), version: formatVersion}
	for _, opt := range opts {
		opt(&o)
	}
	if o.version < 1 || o.version > formatVersion {
		return nil, fmt.Errorf("db: unsupported store format version %d", o.version)
	}
	fsys := o.fs
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("db: creating store dir %s: %w", dir, err)
	}
	if err := checkQuarantine(fsys, dir); err != nil {
		return nil, err
	}
	leftoverQuar := cleanupStale(fsys, dir)

	version := o.version
	metaPath := filepath.Join(dir, diskMetaFile)
	if raw, err := fsys.ReadFile(metaPath); err == nil {
		var m diskMeta
		// The checksum self-check runs before the newer-version refusal: a
		// bit-flipped version byte must read as corruption, not as a
		// plausible future format.
		if jerr := json.Unmarshal(raw, &m); jerr != nil || m.Shards <= 0 || m.Version < 1 {
			cerr := &CorruptError{Path: metaPath, Reason: "undecodable store metadata"}
			quarantine(fsys, dir, cerr, false)
			return nil, cerr
		} else if m.Checksum != 0 && m.Checksum != metaChecksum(m.Version, m.Shards) {
			cerr := &CorruptError{Path: metaPath, Reason: "store metadata checksum mismatch"}
			quarantine(fsys, dir, cerr, false)
			return nil, cerr
		} else if m.Version > formatVersion {
			return nil, fmt.Errorf("db: store %s uses format version %d, newer than this binary supports (%d)", dir, m.Version, formatVersion)
		} else if m.Version >= 2 && m.Checksum == 0 {
			cerr := &CorruptError{Path: metaPath, Reason: "v2 store metadata missing its checksum"}
			quarantine(fsys, dir, cerr, false)
			return nil, cerr
		}
		shards = m.Shards
		version = m.Version
	} else if os.IsNotExist(err) {
		if shards <= 0 {
			shards = DefaultShards
		}
		m := diskMeta{Version: version, Shards: shards}
		if version >= 2 {
			m.Checksum = metaChecksum(m.Version, m.Shards)
		}
		if err := writeMetaAtomic(fsys, dir, m); err != nil {
			return nil, fmt.Errorf("db: writing store metadata: %w", err)
		}
	} else {
		return nil, fmt.Errorf("db: reading store metadata: %w", err)
	}

	syms, symRcv, err := openSymtab(fsys, filepath.Join(dir, diskSymsFile), version)
	if err != nil {
		var cerr *CorruptError
		if errors.As(err, &cerr) {
			quarantine(fsys, dir, cerr, true)
		}
		return nil, err
	}
	ds := &DiskStore{
		dir:          dir,
		schema:       s,
		nshards:      shards,
		version:      version,
		fs:           fsys,
		id:           lastDBID.Add(1),
		syms:         syms,
		rels:         make(map[string]*diskRel, s.Len()),
		relNames:     append([]string(nil), s.Names()...),
		leftoverQuar: leftoverQuar,
	}
	sort.Strings(ds.relNames)
	ds.recordsReplayed += symRcv.records
	ds.tornBytes += symRcv.tornBytes
	if symRcv.tornBytes > 0 {
		ds.tornTails++
	}
	// Segment replay is split into three passes so the parse — the CPU-bound
	// part of a large open — can fan out across replayWorkers goroutines
	// while every file operation stays serial and in sorted relation order
	// (the order deterministic fault injection counts on). Pass 1 reads all
	// segment bytes; pass 2 parses them in parallel (replayShard is pure),
	// and the worker that parses a relation's last shard builds the
	// relation's read index; pass 3 aggregates counters, surfaces the first
	// error in segment order, and opens the append handles.
	var pend []*pendingShard
	var rels []*pendingRel
	for _, name := range ds.relNames {
		rel, _ := s.Relation(name)
		dr := &diskRel{name: name, arity: rel.Arity(), shards: make([]*diskShard, shards)}
		ds.rels[name] = dr
		pr := &pendingRel{rel: dr, shards: make([]*pendingShard, shards)}
		pr.left.Store(int32(shards))
		rels = append(rels, pr)
		for i := 0; i < shards; i++ {
			path := filepath.Join(dir, segName(name, i))
			raw, err := fsys.ReadFile(path)
			if err != nil && !os.IsNotExist(err) {
				ds.Close()
				return nil, fmt.Errorf("db: reading segment %s: %w", path, err)
			}
			p := &pendingShard{rel: pr, path: path, raw: raw}
			pr.shards[i] = p
			pend = append(pend, p)
		}
	}
	strs := ds.syms.all()
	replay := func(p *pendingShard) {
		p.rep = replayShard(p.raw, version, p.rel.rel.arity, uint32(len(strs)), p.path)
		p.raw = nil
		if p.rel.left.Add(-1) == 0 {
			p.rel.build(strs)
		}
	}
	workers := o.replayWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pend) {
		workers = len(pend)
	}
	if workers > 1 {
		var wg sync.WaitGroup
		work := make(chan *pendingShard)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for p := range work {
					replay(p)
				}
			}()
		}
		for _, p := range pend {
			work <- p
		}
		close(work)
		wg.Wait()
	} else {
		for _, p := range pend {
			replay(p)
		}
	}
	for _, pr := range rels {
		for i, p := range pr.shards {
			sh, err := ds.finishShard(p.path, p.rep)
			if err != nil {
				ds.Close()
				var cerr *CorruptError
				if errors.As(err, &cerr) {
					quarantine(fsys, dir, cerr, true)
				}
				return nil, err
			}
			pr.rel.shards[i] = sh
		}
	}
	if ds.tornTails > 0 {
		rec().Add(MetricRecoveryTornTails, ds.tornTails)
		rec().Add(MetricRecoveryTornBytes, ds.tornBytes)
	}
	rec().Add(MetricRecoveryRecords, ds.recordsReplayed)
	return ds, nil
}

// cleanupStale removes temp files left by a crash mid-install (metadata
// or compaction rewrites that never reached their rename) and counts the
// *.quarantined files an operator has not yet dealt with.
func cleanupStale(fsys faultfs.FS, dir string) (quarantined int) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		name := e.Name()
		if strings.Contains(name, ".tmp-") || strings.Contains(name, ".compact-") {
			_ = fsys.Remove(filepath.Join(dir, name))
		}
		if strings.HasSuffix(name, ".quarantined") {
			quarantined++
		}
	}
	return quarantined
}

// writeMetaAtomic installs the store descriptor via temp file + fsync +
// rename + directory fsync, so a crash can never leave a torn store.json.
func writeMetaAtomic(fsys faultfs.FS, dir string, m diskMeta) error {
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp, err := fsys.CreateTemp(dir, diskMetaFile+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		_ = fsys.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		_ = fsys.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = fsys.Remove(tmpName)
		return err
	}
	if err := faultfs.RenameAndSyncDir(fsys, tmpName, filepath.Join(dir, diskMetaFile)); err != nil {
		_ = fsys.Remove(tmpName)
		return err
	}
	return nil
}

// pendingRel is one relation during replay: its shards' parses and how
// many are still running.
type pendingRel struct {
	rel    *diskRel
	shards []*pendingShard
	left   atomic.Int32
}

// pendingShard is one segment during replay: its bytes until parsed, then
// the parse.
type pendingShard struct {
	rel  *pendingRel
	path string
	raw  []byte
	rep  shardReplay
}

// build makes the relation's read index from its shards' live tuples,
// shard by shard and in the order of each tuple's surviving insert record,
// so a reopen always builds the same postings. The tuples hold strs, the
// symbol table's strings, and share one backing array. A relation with a
// corrupt shard is left unbuilt: the open fails.
func (pr *pendingRel) build(strs []string) {
	n := 0
	for _, p := range pr.shards {
		if p.rep.err != nil {
			return
		}
		n += p.rep.live
	}
	arity := pr.rel.arity
	rel := newRelationSize(pr.rel.name, arity, n)
	vals := make([]string, n*arity)
	for _, p := range pr.shards {
		for _, ids := range p.rep.order {
			if ids == nil {
				continue // deleted after this insert
			}
			t := Tuple(vals[:arity:arity])
			vals = vals[arity:]
			for i, id := range ids {
				t[i] = strs[id]
			}
			rel.add(t)
		}
		p.rep.order = nil
	}
	pr.rel.rel = rel
}

// shardReplay is the pure result of parsing one segment's bytes.
type shardReplay struct {
	order     [][]uint32 // insert records of live tuples in segment order; nil where deleted since
	live      int        // non-nil entries of order
	records   int        // insert/delete records replayed
	good      int        // byte offset of the last intact record's end
	tornBytes int64      // bytes truncated from a torn tail (0 if clean)
	err       error      // *CorruptError on any non-tail decode failure
}

// replayShard parses one segment file's bytes into the shard's live tuples.
// A torn tail (incomplete final record with nothing valid after it) is
// marked for truncation; under the v2 format any other decode failure is
// corruption (record.go documents the classification argument). The
// function touches no file or store state, so shards replay in parallel.
// The set semantics of the in-memory relation apply: inserting a live tuple
// or deleting an absent one changes nothing.
func replayShard(raw []byte, version, arity int, symCount uint32, path string) shardReplay {
	var rep shardReplay
	at := make(map[string]int) // packed key of a live tuple -> its index in order
	for off := 0; off < len(raw); {
		r, perr := parseSegRecord(raw, off, version, arity, symCount)
		if perr != nil {
			if inv, ok := perr.(*invalidRecord); ok {
				rep.err = &CorruptError{Path: path, Offset: int64(off), Reason: inv.reason}
				return rep
			}
			if version >= 2 && resyncSeg(raw, off+1, version, arity, symCount) {
				rep.err = &CorruptError{Path: path, Offset: int64(off),
					Reason: "incomplete record followed by intact records"}
				return rep
			}
			rep.tornBytes = int64(len(raw) - rep.good)
			break
		}
		switch r.op {
		case opInsert:
			k := packKey(r.ids)
			if _, ok := at[k]; !ok {
				at[k] = len(rep.order)
				rep.order = append(rep.order, r.ids)
				rep.live++
			}
			rep.records++
		case opDelete:
			k := packKey(r.ids)
			if i, ok := at[k]; ok {
				delete(at, k)
				rep.order[i] = nil
				rep.live--
			}
			rep.records++
		}
		off += r.n
		rep.good = off
	}
	return rep
}

// finishShard folds one shard's replay into the store counters and opens
// its append handle, truncating any torn tail. Called serially in segment
// order so errors and counters land deterministically.
func (s *DiskStore) finishShard(path string, rep shardReplay) (*diskShard, error) {
	if rep.err != nil {
		return nil, rep.err
	}
	if rep.tornBytes > 0 {
		s.tornTails++
		s.tornBytes += rep.tornBytes
	}
	s.recordsReplayed += int64(rep.records)
	f, err := s.fs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("db: opening segment %s: %w", path, err)
	}
	if err := f.Truncate(int64(rep.good)); err != nil {
		f.Close()
		return nil, fmt.Errorf("db: truncating torn segment tail %s: %w", path, err)
	}
	if _, err := f.Seek(int64(rep.good), io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("db: seeking segment %s: %w", path, err)
	}
	return &diskShard{file: f, w: bufio.NewWriter(f), records: rep.records, live: rep.live}, nil
}

// decodeRecord parses a segment payload: op byte + arity interned IDs, all
// IDs below the symbol-table size, no trailing bytes.
func decodeRecord(payload []byte, arity int, symCount uint32) ([]uint32, bool) {
	if len(payload) < 1 {
		return nil, false
	}
	op := payload[0]
	if op != opInsert && op != opDelete {
		return nil, false
	}
	rest := payload[1:]
	ids := make([]uint32, arity)
	for i := 0; i < arity; i++ {
		v, n := binary.Uvarint(rest)
		if n <= 0 || v >= uint64(symCount) {
			return nil, false
		}
		ids[i] = uint32(v)
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, false
	}
	return ids, true
}

// appendRecord buffers one segment record to the shard; new symbols
// referenced by it were already flushed by symtab.intern.
func (s *DiskStore) appendRecord(sh *diskShard, op byte, ids []uint32) error {
	s.rec = appendSegRecord(s.rec[:0], s.version, op, ids)
	if _, err := sh.w.Write(s.rec); err != nil {
		return err
	}
	if op != opCommit {
		sh.records++
		sh.dirty = true
	}
	return nil
}

// --- Store interface ---

// ID returns the store's process-unique identity (fresh on every open, so
// evaluation caches can never confuse two opens of the same directory).
func (s *DiskStore) ID() uint64 { return s.id }

// Generation returns the edit-generation counter. It starts at zero on
// every open; see Database.Generation for the caching contract.
func (s *DiskStore) Generation() uint64 { return s.gen }

// Schema returns the store's schema.
func (s *DiskStore) Schema() *schema.Schema { return s.schema }

// Err returns the sticky write-path error, if any: once an append, flush,
// or fsync has failed, every further mutation and Sync fails with it, and
// health checks (server /readyz) surface it.
func (s *DiskStore) Err() error { return s.err }

// Rel returns the named relation's read view, or nil if unknown: the
// relation's read index itself.
func (s *DiskStore) Rel(name string) Rel {
	if r := s.rels[name]; r != nil {
		return r.rel
	}
	return nil
}

// Has reports whether the fact is present.
func (s *DiskStore) Has(f Fact) bool {
	r := s.rels[f.Rel]
	return r != nil && r.rel.Has(f.Args)
}

// Len returns the total fact count.
func (s *DiskStore) Len() int {
	n := 0
	for _, r := range s.rels {
		n += r.rel.Len()
	}
	return n
}

// Facts returns every fact in deterministic order.
func (s *DiskStore) Facts() []Fact {
	out := make([]Fact, 0, s.Len())
	for _, n := range s.relNames {
		for _, t := range s.rels[n].rel.Tuples() {
			out = append(out, Fact{Rel: n, Args: t})
		}
	}
	return out
}

// InsertFact adds the fact, appending a segment record first so the
// in-memory state never runs ahead of what a reopen can recover. A failed
// append poisons the store (sticky error), mirroring the job journal. The
// stored tuple holds the symbol table's strings.
func (s *DiskStore) InsertFact(f Fact) (bool, error) {
	r := s.rels[f.Rel]
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
	if r.rel.Has(f.Args) {
		return false, nil
	}
	ids := make([]uint32, len(f.Args))
	t := make(Tuple, len(f.Args))
	for i, v := range f.Args {
		id, err := s.syms.intern(v)
		if err != nil {
			s.err = err
			return false, err
		}
		ids[i], t[i] = id, s.syms.str(id)
	}
	sh := r.shards[shardOf(t, s.nshards)]
	if err := s.appendRecord(sh, opInsert, ids); err != nil {
		s.err = fmt.Errorf("db: appending segment record: %w", err)
		return false, s.err
	}
	r.rel.add(t)
	sh.live++
	s.gen++
	return true, nil
}

// DeleteFact removes the fact, returning true if it was present.
func (s *DiskStore) DeleteFact(f Fact) (bool, error) {
	r := s.rels[f.Rel]
	if r == nil {
		return false, fmt.Errorf("db: unknown relation %q", f.Rel)
	}
	if len(f.Args) != r.arity {
		return false, nil
	}
	if s.err != nil {
		return false, s.err
	}
	if !r.rel.Has(f.Args) {
		return false, nil
	}
	// Every value of a stored tuple was interned when it was stored.
	ids := make([]uint32, len(f.Args))
	for i, v := range f.Args {
		ids[i], _ = s.syms.lookup(v)
	}
	sh := r.shards[shardOf(f.Args, s.nshards)]
	if err := s.appendRecord(sh, opDelete, ids); err != nil {
		s.err = fmt.Errorf("db: appending segment record: %w", err)
		return false, s.err
	}
	sh.live--
	r.rel.Delete(f.Args)
	s.gen++
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

// snapshotCopy builds the in-memory copy a snapshot reads: same symbol
// table, relations cloned copy-on-write, no shards. Nothing writes to it.
func (s *DiskStore) snapshotCopy() *DiskStore {
	out := &DiskStore{
		dir:      s.dir,
		schema:   s.schema,
		nshards:  s.nshards,
		version:  s.version,
		fs:       s.fs,
		id:       lastDBID.Add(1),
		syms:     s.syms,
		rels:     make(map[string]*diskRel, len(s.rels)),
		relNames: s.relNames,
	}
	for name, r := range s.rels {
		out.rels[name] = &diskRel{name: r.name, arity: r.arity, rel: r.rel.Clone()}
	}
	return out
}

// Snapshot captures an immutable read view at the current generation,
// reporting the live store's identity so cache entries are shared at equal
// generations. Like every mutation, Snapshot must be serialized against
// other writes; afterwards the snapshot reads safely while edits land.
func (s *DiskStore) Snapshot() Snapshot {
	return &diskSnapshot{d: s.snapshotCopy(), id: s.id, gen: s.gen}
}

// Stats describes the store: per-relation fact counts, the on-disk
// footprint (current file sizes plus bytes still buffered), per-shard
// live/dead record counts with garbage ratios, and the recovery and
// compaction counters.
func (s *DiskStore) Stats() Stats {
	st := Stats{
		Backend:    "disk",
		Generation: s.gen,
		Relations:  make(map[string]int, len(s.rels)),
		Shards:     s.nshards,
		Symbols:    s.syms.size(),
	}
	for n, r := range s.rels {
		st.Relations[n] = r.rel.Len()
		st.TotalFacts += r.rel.Len()
	}
	st.FormatVersion = s.version
	st.TornTails = s.tornTails
	st.TornBytesTruncated = s.tornBytes
	st.RecordsReplayed = s.recordsReplayed
	st.QuarantinedFiles = s.leftoverQuar
	st.CompactionRuns = s.compactRuns
	st.CompactionReclaimedBytes = s.compactReclaimed
	totalRecords, totalDead := 0, 0
	for _, name := range s.relNames {
		r := s.rels[name]
		for i, sh := range r.shards {
			if sh.file == nil {
				continue
			}
			var bytes int64
			if fi, err := sh.file.Stat(); err == nil {
				bytes = fi.Size()
			}
			bytes += int64(sh.w.Buffered())
			st.DiskBytes += bytes
			dead := sh.records - sh.live
			seg := SegmentStat{Relation: name, Shard: i, Live: sh.live, Dead: dead, Bytes: bytes}
			if sh.records > 0 {
				seg.GarbageRatio = float64(dead) / float64(sh.records)
			}
			st.Segments = append(st.Segments, seg)
			totalRecords += sh.records
			totalDead += dead
		}
	}
	if totalRecords > 0 {
		st.GarbageRatio = float64(totalDead) / float64(totalRecords)
	}
	if fi, err := s.fs.Stat(filepath.Join(s.dir, diskSymsFile)); err == nil {
		st.DiskBytes += fi.Size()
	}
	if fi, err := s.fs.Stat(filepath.Join(s.dir, diskMetaFile)); err == nil {
		st.DiskBytes += fi.Size()
	}
	return st
}

// Sync flushes every buffered segment record and fsyncs the symbol table
// and all segment files: after Sync, nothing applied so far can be lost.
// Under the v2 format each dirty file first gets a commit marker, so the
// synced region always ends with a valid record (the torn-vs-corrupt
// classifier depends on this — record.go). Flush and fsync failures are
// both sticky: an fsync that failed may have dropped arbitrary dirty
// pages, so the store fails stop rather than risk acknowledging lost data.
func (s *DiskStore) Sync() error {
	if s.closed {
		return nil
	}
	if s.err != nil {
		return s.err
	}
	if err := s.syms.sync(); err != nil {
		s.err = err
		return err
	}
	for _, name := range s.relNames {
		for _, sh := range s.rels[name].shards {
			if sh.w == nil {
				continue
			}
			if s.version >= 2 && sh.dirty {
				if err := s.appendRecord(sh, opCommit, nil); err != nil {
					s.err = fmt.Errorf("db: appending commit marker: %w", err)
					return s.err
				}
			}
			if err := sh.w.Flush(); err != nil {
				s.err = fmt.Errorf("db: flushing segment: %w", err)
				return s.err
			}
			if err := sh.file.Sync(); err != nil {
				s.err = fmt.Errorf("db: syncing segment: %w", err)
				return s.err
			}
			sh.dirty = false
		}
	}
	return nil
}

// Close flushes and closes every file. The store must not be used after.
func (s *DiskStore) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for _, name := range s.relNames {
		r := s.rels[name]
		if r == nil {
			continue // partially opened store (OpenDisk failure path)
		}
		for _, sh := range r.shards {
			if sh == nil || sh.file == nil {
				continue
			}
			if s.err == nil {
				if s.version >= 2 && sh.dirty {
					if err := s.appendRecord(sh, opCommit, nil); err != nil && first == nil {
						first = fmt.Errorf("db: appending commit marker: %w", err)
					}
				}
				if err := sh.w.Flush(); err != nil && first == nil {
					first = fmt.Errorf("db: flushing segment: %w", err)
				}
			}
			if err := sh.file.Close(); err != nil && first == nil {
				first = err
			}
			sh.file, sh.w = nil, nil
		}
	}
	if err := s.syms.close(s.err == nil); err != nil && first == nil {
		first = err
	}
	return first
}

// Crash simulates a process kill for crash-recovery tests: every file is
// closed without flushing, dropping all records buffered since the last
// Sync (or buffer spill). The store must not be used after.
func (s *DiskStore) Crash() {
	if s.closed {
		return
	}
	s.closed = true
	for _, r := range s.rels {
		if r == nil {
			continue
		}
		for _, sh := range r.shards {
			if sh != nil && sh.file != nil {
				sh.file.Close()
				sh.file, sh.w = nil, nil
			}
		}
	}
	s.syms.close(false)
}

// diskSnapshot is the disk store's immutable read view (see
// DiskStore.Snapshot).
type diskSnapshot struct {
	d   *DiskStore
	id  uint64
	gen uint64
}

func (s *diskSnapshot) ID() uint64             { return s.id }
func (s *diskSnapshot) Generation() uint64     { return s.gen }
func (s *diskSnapshot) Schema() *schema.Schema { return s.d.Schema() }
func (s *diskSnapshot) Rel(name string) Rel    { return s.d.Rel(name) }
func (s *diskSnapshot) Has(f Fact) bool        { return s.d.Has(f) }
func (s *diskSnapshot) Len() int               { return s.d.Len() }
func (s *diskSnapshot) Facts() []Fact          { return s.d.Facts() }

var (
	_ Store    = (*DiskStore)(nil)
	_ Snapshot = (*diskSnapshot)(nil)
)
