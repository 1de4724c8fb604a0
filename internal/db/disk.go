package db

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
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
// a shared symbol table (symtab.go). In memory each shard holds only
// interned tuples ([]uint32) plus per-column hash indexes over IDs — the
// strings themselves live once in the symbol table no matter how many
// tuples reference them, which is what lets a single instance hold tens of
// millions of facts without RAM-resident string duplication.
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

// WithFormatVersion pins the on-disk format for newly created stores (1 or
// 2); reopens always use the version recorded in the store's metadata.
// Exists so tests (and emergency rollbacks) can produce legacy stores.
func WithFormatVersion(v int) DiskOption {
	return func(o *diskOptions) { o.version = v }
}

// WithReplayWorkers bounds the open-time segment-replay parallelism; n <= 0
// (the default) means GOMAXPROCS. File operations stay serial and in sorted
// relation order regardless — only the pure parse of already-read segment
// bytes fans out — so fault injection and recovery counters are
// byte-identical to a serial open. 1 forces a fully serial replay.
func WithReplayWorkers(n int) DiskOption {
	return func(o *diskOptions) { o.replayWorkers = n }
}

// DiskStore is the disk-backed Store implementation. Its concurrency
// contract matches *Database: concurrent readers are safe, mutations must
// be serialized by the caller. Forks and snapshots share shard state
// copy-on-write and the symbol table outright.
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

	// detached marks forks and snapshot backings: in-memory overlays that
	// never touch the segment files (their edits are not durable — they are
	// working copies; only the source store's edits persist).
	detached bool
	closed   bool
	err      error // first append/fsync failure; sticky, poisons mutations
}

type diskRel struct {
	store  *DiskStore
	name   string
	arity  int
	shards []*diskShard
}

type diskShard struct {
	file    faultfs.File  // nil on detached stores
	w       *bufio.Writer // nil iff file is nil
	state   *shardState
	shared  atomic.Bool // state may be shared with a fork/snapshot; copy before mutating
	records int         // insert/delete records in the segment (file + buffer)
	dirty   bool        // records appended since the last commit marker (v2)
}

// shardState is one shard's in-memory contents: interned tuples keyed by
// their packed-ID bytes, plus per-column value→keys indexes.
type shardState struct {
	tuples map[string][]uint32
	index  []map[uint32]map[string]int
}

func newShardState(arity int) *shardState {
	st := &shardState{
		tuples: make(map[string][]uint32),
		index:  make([]map[uint32]map[string]int, arity),
	}
	for i := range st.index {
		st.index[i] = make(map[uint32]map[string]int)
	}
	return st
}

// packKey renders interned IDs as a compact fixed-width map key.
func packKey(ids []uint32) string {
	b := make([]byte, 4*len(ids))
	for i, id := range ids {
		binary.BigEndian.PutUint32(b[4*i:], id)
	}
	return string(b)
}

// shardOf routes a tuple to a shard by hashing its string key — stable
// across reopens and independent of symbol-ID assignment order.
func shardOf(tupleKey string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(tupleKey))
	return int(h.Sum32() % uint32(n))
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
	// segment bytes, pass 2 parses them in parallel (replayShard is pure),
	// pass 3 aggregates counters, surfaces the first error in segment order,
	// and opens the append handles.
	type pendingShard struct {
		rel   *diskRel
		idx   int
		path  string
		arity int
		raw   []byte
		rep   shardReplay
	}
	var pend []*pendingShard
	for _, name := range ds.relNames {
		rel, _ := s.Relation(name)
		dr := &diskRel{store: ds, name: name, arity: rel.Arity(), shards: make([]*diskShard, shards)}
		ds.rels[name] = dr
		for i := 0; i < shards; i++ {
			path := filepath.Join(dir, segName(name, i))
			raw, err := fsys.ReadFile(path)
			if err != nil && !os.IsNotExist(err) {
				ds.Close()
				return nil, fmt.Errorf("db: reading segment %s: %w", path, err)
			}
			pend = append(pend, &pendingShard{rel: dr, idx: i, path: path, arity: rel.Arity(), raw: raw})
		}
	}
	symCount := uint32(ds.syms.size())
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
					p.rep = replayShard(p.raw, version, p.arity, symCount, p.path)
					p.raw = nil
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
			p.rep = replayShard(p.raw, version, p.arity, symCount, p.path)
			p.raw = nil
		}
	}
	for _, p := range pend {
		sh, err := ds.finishShard(p.path, p.rep)
		if err != nil {
			ds.Close()
			var cerr *CorruptError
			if errors.As(err, &cerr) {
				quarantine(fsys, dir, cerr, true)
			}
			return nil, err
		}
		p.rel.shards[p.idx] = sh
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

// shardReplay is the pure result of parsing one segment's bytes.
type shardReplay struct {
	state     *shardState
	records   int   // insert/delete records replayed
	good      int   // byte offset of the last intact record's end
	tornBytes int64 // bytes truncated from a torn tail (0 if clean)
	err       error // *CorruptError on any non-tail decode failure
}

// replayShard parses one segment file's bytes into a fresh shard state. A
// torn tail (incomplete final record with nothing valid after it) is marked
// for truncation; under the v2 format any other decode failure is
// corruption (record.go documents the classification argument). The
// function touches no file or store state, so shards replay in parallel.
func replayShard(raw []byte, version, arity int, symCount uint32, path string) shardReplay {
	rep := shardReplay{state: newShardState(arity)}
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
			rep.state.insert(packKey(r.ids), r.ids)
			rep.records++
		case opDelete:
			rep.state.delete(packKey(r.ids))
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
	return &diskShard{file: f, w: bufio.NewWriter(f), state: rep.state, records: rep.records}, nil
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

// insert/delete maintain one shard state's tuple map and indexes. They are
// idempotent, mirroring the set semantics of the in-memory relation.
func (st *shardState) insert(key string, ids []uint32) bool {
	if _, ok := st.tuples[key]; ok {
		return false
	}
	st.tuples[key] = ids
	for col, id := range ids {
		m := st.index[col][id]
		if m == nil {
			m = make(map[string]int)
			st.index[col][id] = m
		}
		m[key] = 1
	}
	return true
}

func (st *shardState) delete(key string) bool {
	ids, ok := st.tuples[key]
	if !ok {
		return false
	}
	delete(st.tuples, key)
	for col, id := range ids {
		if m := st.index[col][id]; m != nil {
			delete(m, key)
			if len(m) == 0 {
				delete(st.index[col], id)
			}
		}
	}
	return true
}

// clone deep-copies the state's maps (tuple ID slices stay shared — they
// are immutable once inserted).
func (st *shardState) clone() *shardState {
	out := &shardState{
		tuples: make(map[string][]uint32, len(st.tuples)),
		index:  make([]map[uint32]map[string]int, len(st.index)),
	}
	for k, ids := range st.tuples {
		out.tuples[k] = ids
	}
	for col := range st.index {
		out.index[col] = make(map[uint32]map[string]int, len(st.index[col]))
		for id, set := range st.index[col] {
			ns := make(map[string]int, len(set))
			for k, c := range set {
				ns[k] = c
			}
			out.index[col][id] = ns
		}
	}
	return out
}

// materialize gives the shard exclusive ownership of its state before a
// mutation (copy-on-write, as Relation.materialize).
func (sh *diskShard) materialize() {
	if !sh.shared.Load() {
		return
	}
	sh.state = sh.state.clone()
	sh.shared.Store(false)
}

// appendRecord buffers one segment record; new symbols referenced by it
// were already flushed by symtab.intern.
func (sh *diskShard) appendRecord(version int, op byte, ids []uint32) error {
	if _, err := sh.w.Write(appendSegRecord(nil, version, op, ids)); err != nil {
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

// Rel returns the named relation's read view, or nil if unknown.
func (s *DiskStore) Rel(name string) Rel {
	if r := s.rels[name]; r != nil {
		return r
	}
	return nil
}

// Has reports whether the fact is present.
func (s *DiskStore) Has(f Fact) bool {
	r := s.rels[f.Rel]
	return r != nil && r.Has(f.Args)
}

// Len returns the total fact count.
func (s *DiskStore) Len() int {
	n := 0
	for _, r := range s.rels {
		n += r.Len()
	}
	return n
}

// Facts returns every fact in deterministic order.
func (s *DiskStore) Facts() []Fact {
	out := make([]Fact, 0, s.Len())
	for _, n := range s.relNames {
		for _, t := range s.rels[n].Tuples() {
			out = append(out, Fact{Rel: n, Args: t})
		}
	}
	return out
}

// InsertFact adds the fact, appending a segment record first so the
// in-memory state never runs ahead of what a reopen can recover. A failed
// append poisons the store (sticky error), mirroring the job journal.
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
	ids := make([]uint32, len(f.Args))
	for i, v := range f.Args {
		id, err := s.syms.intern(v)
		if err != nil {
			s.err = err
			return false, err
		}
		ids[i] = id
	}
	key := packKey(ids)
	sh := r.shards[shardOf(f.Args.Key(), s.nshards)]
	if _, ok := sh.state.tuples[key]; ok {
		return false, nil
	}
	if !s.detached {
		if err := sh.appendRecord(s.version, opInsert, ids); err != nil {
			s.err = fmt.Errorf("db: appending segment record: %w", err)
			return false, s.err
		}
	}
	sh.materialize()
	sh.state.insert(key, ids)
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
	ids := make([]uint32, len(f.Args))
	for i, v := range f.Args {
		id, ok := s.syms.lookup(v)
		if !ok {
			return false, nil // a never-interned constant cannot be stored
		}
		ids[i] = id
	}
	key := packKey(ids)
	sh := r.shards[shardOf(f.Args.Key(), s.nshards)]
	if _, ok := sh.state.tuples[key]; !ok {
		return false, nil
	}
	if !s.detached {
		if err := sh.appendRecord(s.version, opDelete, ids); err != nil {
			s.err = fmt.Errorf("db: appending segment record: %w", err)
			return false, s.err
		}
	}
	sh.materialize()
	sh.state.delete(key)
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

// forkDetached builds the copy-on-write in-memory overlay shared by Fork
// and Snapshot: same symbol table, shared shard states.
func (s *DiskStore) forkDetached() *DiskStore {
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
		detached: true,
	}
	for name, r := range s.rels {
		nr := &diskRel{store: out, name: r.name, arity: r.arity, shards: make([]*diskShard, len(r.shards))}
		for i, sh := range r.shards {
			sh.shared.Store(true)
			c := &diskShard{state: sh.state}
			c.shared.Store(true)
			nr.shards[i] = c
		}
		out.rels[name] = nr
	}
	return out
}

// Fork returns a mutable copy-on-write copy with a fresh identity at
// generation zero. Forks are detached: their edits live in memory only (the
// cleaner's working copies don't need segment durability; only the source
// store's edits persist).
func (s *DiskStore) Fork() Store { return s.forkDetached() }

// Snapshot captures an immutable read view at the current generation,
// reporting the live store's identity so cache entries are shared at equal
// generations. Like every mutation, Snapshot must be serialized against
// other writes; afterwards the snapshot reads safely while edits land.
func (s *DiskStore) Snapshot() Snapshot {
	return &diskSnapshot{d: s.forkDetached(), id: s.id, gen: s.gen}
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
		st.Relations[n] = r.Len()
		st.TotalFacts += r.Len()
	}
	if s.detached {
		return st
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
			live := len(sh.state.tuples)
			dead := sh.records - live
			seg := SegmentStat{Relation: name, Shard: i, Live: live, Dead: dead, Bytes: bytes}
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
	if s.detached || s.closed {
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
				if err := sh.appendRecord(s.version, opCommit, nil); err != nil {
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
	if s.detached || s.closed {
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
					if err := sh.appendRecord(s.version, opCommit, nil); err != nil && first == nil {
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
	if s.detached || s.closed {
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

// --- Rel interface on diskRel ---

func (r *diskRel) Name() string { return r.name }
func (r *diskRel) Arity() int   { return r.arity }

func (r *diskRel) Len() int {
	n := 0
	for _, sh := range r.shards {
		n += len(sh.state.tuples)
	}
	return n
}

func (r *diskRel) Has(t Tuple) bool {
	if len(t) != r.arity {
		return false
	}
	ids := make([]uint32, len(t))
	for i, v := range t {
		id, ok := r.store.syms.lookup(v)
		if !ok {
			return false
		}
		ids[i] = id
	}
	sh := r.shards[shardOf(t.Key(), r.store.nshards)]
	_, ok := sh.state.tuples[packKey(ids)]
	return ok
}

// resolve materializes an interned tuple back into strings.
func (r *diskRel) resolve(ids []uint32) Tuple {
	t := make(Tuple, len(ids))
	for i, id := range ids {
		t[i] = r.store.syms.str(id)
	}
	return t
}

func (r *diskRel) Tuples() []Tuple {
	out := make([]Tuple, 0, r.Len())
	for _, sh := range r.shards {
		for _, ids := range sh.state.tuples {
			out = append(out, r.resolve(ids))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func (r *diskRel) Each(fn func(Tuple) bool) {
	for _, sh := range r.shards {
		for _, ids := range sh.state.tuples {
			if !fn(r.resolve(ids)) {
				return
			}
		}
	}
}

// resolveBindings interns binding values; ok = false when some bound value
// was never interned (no tuple can match).
func (r *diskRel) resolveBindings(bindings []Binding) ([]uint32, bool) {
	vals := make([]uint32, len(bindings))
	for i, b := range bindings {
		if b.Col < 0 || b.Col >= r.arity {
			return nil, false
		}
		id, ok := r.store.syms.lookup(b.Value)
		if !ok {
			return nil, false
		}
		vals[i] = id
	}
	return vals, true
}

// scanShard enumerates one shard's matching tuple keys through the most
// selective bound column's index, invoking fn for each match.
func scanShard(st *shardState, bindings []Binding, vals []uint32, fn func(key string, ids []uint32)) {
	if len(bindings) == 0 {
		for k, ids := range st.tuples {
			fn(k, ids)
		}
		return
	}
	best := -1
	bestSize := 0
	for i, b := range bindings {
		m := st.index[b.Col][vals[i]]
		if m == nil {
			return
		}
		if best == -1 || len(m) < bestSize {
			best, bestSize = i, len(m)
		}
	}
	drive := st.index[bindings[best].Col][vals[best]]
outer:
	for k := range drive {
		ids := st.tuples[k]
		for i, b := range bindings {
			if i == best {
				continue
			}
			if ids[b.Col] != vals[i] {
				continue outer
			}
		}
		fn(k, ids)
	}
}

func (r *diskRel) Scan(bindings []Binding) []Tuple {
	vals, ok := r.resolveBindings(bindings)
	if !ok {
		return nil
	}
	var out []Tuple
	for _, sh := range r.shards {
		scanShard(sh.state, bindings, vals, func(_ string, ids []uint32) {
			out = append(out, r.resolve(ids))
		})
	}
	return out
}

func (r *diskRel) MatchCount(bindings []Binding) int {
	if len(bindings) == 0 {
		return r.Len()
	}
	vals, ok := r.resolveBindings(bindings)
	if !ok {
		return 0
	}
	n := 0
	for _, sh := range r.shards {
		scanShard(sh.state, bindings, vals, func(string, []uint32) { n++ })
	}
	return n
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
func (s *diskSnapshot) Fork() Store            { return s.d.forkDetached() }

var (
	_ Store    = (*DiskStore)(nil)
	_ Snapshot = (*diskSnapshot)(nil)
	_ Rel      = (*diskRel)(nil)
)
