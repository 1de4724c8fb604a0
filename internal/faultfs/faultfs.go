// Package faultfs is the filesystem seam under the storage layer: every
// file operation internal/db and internal/wal perform goes through the FS
// interface, so tests can interpose a deterministic fault injector
// (injector.go) that produces short writes, failed or sticky fsyncs, torn
// writes at arbitrary byte offsets, read-side bit flips, and open/rename
// errors. Production code passes OS(), which delegates straight to the os
// package with no indirection cost beyond an interface call per operation
// (all of which sit next to a syscall anyway).
//
// The package also owns the two helpers that make a directory entry
// durable. A file's directory entry lives in the directory inode, which has
// its own cache, so neither a rename nor a file's creation survives a crash
// until the directory is fsynced: RenameAndSyncDir serves every atomic
// install (store metadata, compacted store logs, job-journal and
// replica-log rewrites) and OpenAndSyncDir every log an open creates.
package faultfs

import (
	"io"
	"os"
	"path/filepath"
)

// File is the subset of *os.File the storage layer uses. Injected
// implementations wrap a real file and decide per call whether to fail,
// shorten, or corrupt the operation.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	// Name returns the path the file was opened with.
	Name() string
	// Stat returns the file's FileInfo.
	Stat() (os.FileInfo, error)
	// Sync fsyncs the file.
	Sync() error
	// Truncate changes the file's size.
	Truncate(size int64) error
}

// FS is the filesystem interface the storage layer is written against.
type FS interface {
	// Open opens a file read-only.
	Open(name string) (File, error)
	// OpenFile is the generalized open (os.OpenFile semantics).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// CreateTemp creates a unique temporary file in dir (os.CreateTemp).
	CreateTemp(dir, pattern string) (File, error)
	// ReadFile reads a whole file.
	ReadFile(name string) ([]byte, error)
	// WriteFile writes a whole file (not atomic; use CreateTemp +
	// RenameAndSyncDir for atomic installs).
	WriteFile(name string, data []byte, perm os.FileMode) error
	// MkdirAll creates a directory path.
	MkdirAll(path string, perm os.FileMode) error
	// Rename renames a file. Atomic on POSIX within one filesystem, but not
	// durable until the directory is fsynced — see RenameAndSyncDir.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// Stat stats a path.
	Stat(name string) (os.FileInfo, error)
	// ReadDir lists a directory.
	ReadDir(name string) ([]os.DirEntry, error)
	// SyncDir fsyncs a directory, making previously-renamed entries durable.
	SyncDir(dir string) error
}

// osFS delegates to the os package.
type osFS struct{}

// OS returns the real filesystem.
func OS() FS { return osFS{} }

func (osFS) Open(name string) (File, error) { return os.Open(name) }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// RenameAndSyncDir atomically installs oldpath at newpath and fsyncs the
// containing directory, the step plain Rename misses: without it a crash
// shortly after the rename can roll the directory entry back to the old
// file on ext4 and friends. Used by the disk store (metadata installs,
// log compaction and migration, quarantine) and the job and replica
// journals (compaction and full-state rewrites).
func RenameAndSyncDir(fsys FS, oldpath, newpath string) error {
	if err := fsys.Rename(oldpath, newpath); err != nil {
		return err
	}
	return fsys.SyncDir(filepath.Dir(newpath))
}

// OpenAndSyncDir opens name with flag|O_CREATE and, when the open created
// the file, fsyncs its directory before returning. fsync(2) on the file
// makes its data durable but not its directory entry, so without this a
// machine crash could lose a new log along with every record synced to it.
// Used by the disk store's log and the job and replica journals.
func OpenAndSyncDir(fsys FS, name string, flag int, perm os.FileMode) (File, error) {
	_, err := fsys.Stat(name)
	created := os.IsNotExist(err)
	f, err := fsys.OpenFile(name, flag|os.O_CREATE, perm)
	if err != nil {
		return nil, err
	}
	if created {
		if err := fsys.SyncDir(filepath.Dir(name)); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}
