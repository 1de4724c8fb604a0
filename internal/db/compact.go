package db

import (
	"errors"
	"fmt"
	"path/filepath"
)

// Log compaction: deletes (and re-inserts) accrete records in the
// append-only log forever; compaction rewrites it as every symbol in ID
// order, then the live facts as insert records, then a commit marker,
// reclaiming the dead records. Symbol IDs never change. The rewrite
// (installLog) is crash-safe at every step, and migration installs a
// legacy store's first log through it too:
//
//  1. the new log is written to a temp file in the store directory,
//     fsynced, and closed;
//  2. the temp file is atomically renamed over store.log and the
//     directory fsynced.
//
// A crash before the rename leaves the old log untouched (the stale temp
// file is removed at the next open); a crash after it leaves the new,
// fully-synced log. Both states replay to exactly the live facts. A
// failure after the rename has taken effect poisons the store (sticky
// Err): the on-disk layout changed under an open handle, so no further
// append can be trusted to land in the right file.

// CompactionResult summarizes one Compact call.
type CompactionResult struct {
	// RecordsDropped is the dead records the rewrite discarded; 0 when the
	// log was left alone.
	RecordsDropped int `json:"records_dropped"`
	// BytesBefore/BytesAfter are the log's size before and after a
	// rewrite (both 0 when the log was left alone).
	BytesBefore int64 `json:"bytes_before"`
	BytesAfter  int64 `json:"bytes_after"`
}

// Compact rewrites the log when its garbage ratio (dead fact records over
// all fact records) is at least minGarbage, dropping the dead records. A
// minGarbage of 0 compacts a log holding any dead record at all. Like
// every mutation, Compact must be serialized by the caller against other
// writes on the same store; concurrent readers are safe throughout (the
// relations are only read, and the file rewritten). Facts and generation
// are unchanged — compaction is invisible to readers and caches.
func (s *DiskStore) Compact(minGarbage float64) (CompactionResult, error) {
	var res CompactionResult
	if s.closed {
		return res, errors.New("db: compacting a closed store")
	}
	if s.err != nil {
		return res, s.err
	}
	dead := s.records - s.d.Len()
	if dead <= 0 || float64(dead)/float64(s.records) < minGarbage {
		return res, nil
	}
	res.BytesBefore = int64(s.w.Buffered())
	if fi, err := s.file.Stat(); err == nil {
		res.BytesBefore += fi.Size()
	}
	buf := s.liveLog()
	renamed, err := s.installLog(buf)
	if renamed {
		// Point of no return: the directory entry names the new log, and
		// the open handle the unlinked old one, whose buffered records the
		// new log already holds.
		s.file.Close()
		s.file, s.w = nil, nil
		if err == nil {
			err = s.openLog(int64(len(buf)), int64(len(buf)))
		}
		if err != nil {
			s.err = err
		}
	}
	if err != nil {
		rec().Inc(MetricCompactionErrors)
		return res, err
	}
	res.RecordsDropped = dead
	res.BytesAfter = int64(len(buf))
	s.records -= dead
	s.unsynced = false
	s.compactRuns++
	reclaimed := res.BytesBefore - res.BytesAfter
	if reclaimed > 0 {
		s.compactReclaimed += reclaimed
	}
	rec().Inc(MetricCompactionRuns)
	rec().Add(MetricCompactionReclaimed, reclaimed)
	return res, nil
}

// liveLog encodes the log a rewrite installs: every symbol in ID order,
// then an insert record per live fact (relations by name, tuples in
// lexicographic order), then a commit marker. A relation's name becomes a
// symbol before its first fact record.
func (s *DiskStore) liveLog() []byte {
	names := s.d.schema.Names()
	for _, name := range names {
		if s.d.rels[name].Len() > 0 {
			s.syms.intern(name)
		}
	}
	var buf []byte
	for _, v := range s.syms.all() {
		buf = appendLogRecord(buf, opSymbol, v, nil)
	}
	for _, name := range names {
		relID, _ := s.syms.lookup(name)
		for _, t := range s.d.rels[name].Tuples() {
			ids := append(s.ids[:0], relID)
			for _, v := range t {
				id, _ := s.syms.lookup(v)
				ids = append(ids, id)
			}
			s.ids = ids
			buf = appendLogRecord(buf, opInsert, "", ids)
		}
	}
	return appendLogRecord(buf, opCommit, "", nil)
}

// installLog writes buf to a temp file in the store directory, fsyncs and
// closes it, renames it over store.log and fsyncs the directory. renamed
// reports whether the new log replaced the old one: a failure before the
// rename leaves the old log untouched.
func (s *DiskStore) installLog(buf []byte) (renamed bool, err error) {
	path := filepath.Join(s.dir, diskLogFile)
	tmp, err := s.fs.CreateTemp(s.dir, diskLogFile+".compact-*")
	if err != nil {
		return false, fmt.Errorf("db: creating temp for %s: %w", path, err)
	}
	tmpName := tmp.Name()
	if _, err = tmp.Write(buf); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.fs.Rename(tmpName, path)
	}
	if err != nil {
		_ = s.fs.Remove(tmpName)
		return false, fmt.Errorf("db: writing %s: %w", path, err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return true, fmt.Errorf("db: syncing store dir after writing %s: %w", path, err)
	}
	return true, nil
}
