package db

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// Segment compaction: deletes (and re-inserts) accrete records in the
// append-only segments forever; compaction rewrites a shard as just its
// live tuples — insert records only, no tombstones — reclaiming the dead
// bytes. The rewrite is crash-safe at every step:
//
//  1. the symbol table is fsynced first, so the new segment can never
//     reference a symbol a crash could take away;
//  2. live records are written to a temp file in the store directory,
//     fsynced, and closed;
//  3. the temp file is atomically renamed over the segment and the
//     directory fsynced (faultfs.RenameAndSyncDir).
//
// A crash before the rename leaves the old segment untouched (the stale
// temp file is removed at the next open); a crash after it leaves the new,
// fully-synced segment. Both states replay to exactly the live tuples. A
// failure after the rename has taken effect poisons the store (sticky
// Err): the on-disk layout changed under an open handle, so no further
// append can be trusted to land in the right file.

// CompactionResult summarizes one Compact call.
type CompactionResult struct {
	// ShardsCompacted is how many segment files were rewritten.
	ShardsCompacted int `json:"shards_compacted"`
	// RecordsDropped is the dead records the rewrites discarded.
	RecordsDropped int `json:"records_dropped"`
	// BytesBefore/BytesAfter are the rewritten segments' sizes before and
	// after (segments left alone count in neither).
	BytesBefore int64 `json:"bytes_before"`
	BytesAfter  int64 `json:"bytes_after"`
}

// Compact rewrites every shard whose garbage ratio (dead records over
// total records) is at least minGarbage, dropping its dead records. A
// minGarbage of 0 compacts every shard holding any dead record at all.
// Like every mutation, Compact must be serialized by the caller against
// other writes on the same store; concurrent readers are safe throughout
// (the relations are only read, and the files rewritten). Facts and generation are
// unchanged — compaction is invisible to readers and caches.
func (s *DiskStore) Compact(minGarbage float64) (CompactionResult, error) {
	var res CompactionResult
	if s.closed {
		return res, errors.New("db: compacting a closed store")
	}
	if s.err != nil {
		return res, s.err
	}
	// Symbols first: the rewritten segments are durable the moment they are
	// installed, so every symbol they reference must already be durable.
	if err := s.syms.sync(); err != nil {
		s.err = err
		rec().Inc(MetricCompactionErrors)
		return res, err
	}
	for _, name := range s.relNames {
		r := s.rels[name]
		var live [][][]uint32 // shard -> the interned tuples it holds, for the shards to rewrite
		for i, sh := range r.shards {
			dead := sh.records - sh.live
			if dead <= 0 || float64(dead)/float64(sh.records) < minGarbage {
				continue
			}
			if live == nil {
				live = s.liveByShard(r)
			}
			if err := s.compactShard(r, i, live[i], &res); err != nil {
				rec().Inc(MetricCompactionErrors)
				return res, err
			}
		}
	}
	if res.ShardsCompacted > 0 {
		s.compactRuns++
		s.compactShards += int64(res.ShardsCompacted)
		reclaimed := res.BytesBefore - res.BytesAfter
		if reclaimed > 0 {
			s.compactReclaimed += reclaimed
		}
		rec().Inc(MetricCompactionRuns)
		rec().Add(MetricCompactionShards, int64(res.ShardsCompacted))
		rec().Add(MetricCompactionReclaimed, reclaimed)
	}
	return res, nil
}

// liveByShard looks up the interned IDs of the relation's tuples and groups
// them by the shard each tuple routes to (shardOf). Every stored value was
// interned when it was stored.
func (s *DiskStore) liveByShard(r *diskRel) [][][]uint32 {
	out := make([][][]uint32, len(r.shards))
	r.rel.Each(func(t Tuple) bool {
		ids := make([]uint32, len(t))
		for i, v := range t {
			ids[i], _ = s.syms.lookup(v)
		}
		i := shardOf(t, s.nshards)
		out[i] = append(out[i], ids)
		return true
	})
	return out
}

// compactShard rewrites shard i's segment to live, the interned tuples the
// shard holds.
func (s *DiskStore) compactShard(r *diskRel, i int, live [][]uint32, res *CompactionResult) error {
	sh := r.shards[i]
	name := segName(r.name, i)
	path := filepath.Join(s.dir, name)

	oldBytes := int64(sh.w.Buffered())
	if fi, err := sh.file.Stat(); err == nil {
		oldBytes += fi.Size()
	}

	// Deterministic rewrite: live tuples in packed-key order (= interned ID
	// order), then a commit marker so the file ends with a valid record.
	slices.SortFunc(live, slices.Compare[[]uint32])
	var buf []byte
	for _, ids := range live {
		buf = appendSegRecord(buf, s.version, opInsert, ids)
	}
	if s.version >= 2 {
		buf = appendSegRecord(buf, s.version, opCommit, nil)
	}

	tmp, err := s.fs.CreateTemp(s.dir, name+".compact-*")
	if err != nil {
		return fmt.Errorf("db: creating compaction temp for %s: %w", path, err)
	}
	tmpName := tmp.Name()
	discard := func(err error) error {
		tmp.Close()
		_ = s.fs.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(buf); err != nil {
		return discard(fmt.Errorf("db: writing compacted segment %s: %w", path, err))
	}
	if err := tmp.Sync(); err != nil {
		return discard(fmt.Errorf("db: syncing compacted segment %s: %w", path, err))
	}
	if err := tmp.Close(); err != nil {
		_ = s.fs.Remove(tmpName)
		return fmt.Errorf("db: closing compacted segment %s: %w", path, err)
	}
	if err := s.fs.Rename(tmpName, path); err != nil {
		// The rename did not take effect: the old segment is untouched and
		// the store remains fully usable.
		_ = s.fs.Remove(tmpName)
		return fmt.Errorf("db: installing compacted segment %s: %w", path, err)
	}
	// Point of no return: the directory entry now names the new file. Any
	// failure from here poisons the store — the open handle points at the
	// unlinked old inode, so further appends would be silently lost.
	sh.file.Close()
	sh.file, sh.w = nil, nil
	if err := s.fs.SyncDir(s.dir); err != nil {
		s.err = fmt.Errorf("db: syncing store dir after compacting %s: %w", path, err)
		return s.err
	}
	nf, err := s.fs.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		s.err = fmt.Errorf("db: reopening compacted segment %s: %w", path, err)
		return s.err
	}
	if _, err := nf.Seek(0, io.SeekEnd); err != nil {
		nf.Close()
		s.err = fmt.Errorf("db: seeking compacted segment %s: %w", path, err)
		return s.err
	}
	sh.file = nf
	sh.w = bufio.NewWriter(nf)
	res.ShardsCompacted++
	res.RecordsDropped += sh.records - sh.live
	res.BytesBefore += oldBytes
	res.BytesAfter += int64(len(buf))
	sh.records = sh.live
	sh.dirty = false
	return nil
}
