package faultfs_test

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/db"
	"repro/internal/faultfs"
	"repro/internal/schema"
	"repro/internal/wal"
)

// recorder wraps an FS and logs, in order, every OpenFile that creates its
// file and every directory fsync.
type recorder struct {
	faultfs.FS
	mu  sync.Mutex
	log []string
}

func (r *recorder) add(e string) {
	r.mu.Lock()
	r.log = append(r.log, e)
	r.mu.Unlock()
}

func (r *recorder) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	_, statErr := r.FS.Stat(name)
	f, err := r.FS.OpenFile(name, flag, perm)
	if err == nil && os.IsNotExist(statErr) {
		r.add("create " + name)
	}
	return f, err
}

func (r *recorder) SyncDir(dir string) error {
	r.add("syncdir " + dir)
	return r.FS.SyncDir(dir)
}

// TestOpenSyncsNewFilesDirectory: fsync(2) on a file does not make its
// directory entry durable, so an open that creates the store's log or a
// journal must fsync the directory after creating it and before returning.
func TestOpenSyncsNewFilesDirectory(t *testing.T) {
	s := schema.New(schema.Relation{Name: "Teams", Attrs: []string{"name", "continent"}})
	for _, tc := range []struct {
		name string
		open func(fsys faultfs.FS, dir string) (io.Closer, error)
	}{
		{"OpenDisk", func(fsys faultfs.FS, dir string) (io.Closer, error) {
			return db.OpenDisk(dir, s, 0, db.WithFS(fsys))
		}},
		{"OpenJobLog", func(fsys faultfs.FS, dir string) (io.Closer, error) {
			l, _, err := wal.OpenJobLog(filepath.Join(dir, "journal.jsonl"), wal.WithJobLogFS(fsys))
			return l, err
		}},
		{"OpenReplicaLog", func(fsys faultfs.FS, dir string) (io.Closer, error) {
			return wal.OpenReplicaLog(filepath.Join(dir, "replica.jsonl"), wal.WithJobLogFS(fsys))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recorder{FS: faultfs.OS()}
			c, err := tc.open(rec, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			creates := 0
			for i, e := range rec.log {
				path, ok := strings.CutPrefix(e, "create ")
				if !ok {
					continue
				}
				creates++
				if !slices.Contains(rec.log[i+1:], "syncdir "+filepath.Dir(path)) {
					t.Errorf("created %s without a later fsync of its directory; calls: %q", path, rec.log)
				}
			}
			if creates == 0 {
				t.Fatalf("the open created no file; calls: %q", rec.log)
			}
		})
	}
}
