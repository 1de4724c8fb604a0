// The fault injector: a deterministic FS middleware that counts every
// interesting file operation and fires configured faults at exact op
// indices. Tests drive it two ways: enumerate the op count of a clean run
// first (NewInjector with no faults, read OpCount), then re-run the same
// deterministic workload once per op index with a fault planted at that
// index — the "fail at every injected point" sweeps CheckDiskFaults and
// the compaction crash tests are built on.
package faultfs

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// ErrInjected is the error returned by operations a fault fails outright
// (failed open/rename/remove/write, short write, failed fsync).
var ErrInjected = errors.New("faultfs: injected fault")

// ErrCrashed is returned by every operation after a KindCrash fault fired:
// the simulated machine is dead, nothing more reaches disk.
var ErrCrashed = errors.New("faultfs: simulated crash")

// Op identifies a class of filesystem operation for fault targeting.
type Op int

const (
	// OpAny matches every counted operation.
	OpAny Op = iota
	// OpOpen: Open, OpenFile, CreateTemp.
	OpOpen
	// OpRead: File.Read and FS.ReadFile.
	OpRead
	// OpWrite: File.Write and FS.WriteFile.
	OpWrite
	// OpSync: File.Sync.
	OpSync
	// OpSyncDir: FS.SyncDir.
	OpSyncDir
	// OpRename: FS.Rename.
	OpRename
	// OpRemove: FS.Remove.
	OpRemove
	// OpTruncate: File.Truncate.
	OpTruncate
)

func (o Op) String() string {
	switch o {
	case OpAny:
		return "any"
	case OpOpen:
		return "open"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpSyncDir:
		return "syncdir"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	case OpTruncate:
		return "truncate"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Kind is the failure mode a fault applies to its target operation.
type Kind int

const (
	// KindFail: the operation returns ErrInjected with no effect on disk.
	// On writes this models a full I/O error; on open/rename/remove it
	// models permission or quota failures.
	KindFail Kind = iota
	// KindShortWrite: a write persists only a prefix (Arg bytes, or half
	// the buffer when Arg is 0) and returns ErrInjected with the short
	// count, per io.Writer contract.
	KindShortWrite
	// KindCrash: the operation takes partial effect (writes keep Arg bytes;
	// other ops don't happen), then the injector enters the crashed state —
	// every subsequent counted operation returns ErrCrashed. Models power
	// loss mid-operation; the caller's next step is Crash() + reopen.
	KindCrash
	// KindStickySync: this and every later Sync/SyncDir returns ErrInjected
	// while other operations proceed — a device that accepts writes but can
	// no longer flush its cache.
	KindStickySync
	// KindBitFlip: a read succeeds but bit (Arg%8) of byte (Arg/8 mod n) of
	// the returned data is flipped — silent media corruption on the read
	// path.
	KindBitFlip
)

func (k Kind) String() string {
	switch k {
	case KindFail:
		return "fail"
	case KindShortWrite:
		return "short-write"
	case KindCrash:
		return "crash"
	case KindStickySync:
		return "sticky-sync"
	case KindBitFlip:
		return "bit-flip"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Fault plants one failure at the At-th counted operation (1-based)
// matching Op. Arg parameterizes the kind (bytes kept for short/torn
// writes, bit index for flips).
type Fault struct {
	At   int64
	Op   Op
	Kind Kind
	Arg  int64
}

func (f Fault) String() string {
	return fmt.Sprintf("%s@%s#%d(arg=%d)", f.Kind, f.Op, f.At, f.Arg)
}

// Injector wraps a base FS, counting operations and firing faults. Safe
// for concurrent use; counting is deterministic for a deterministic
// single-goroutine workload.
type Injector struct {
	base FS

	mu         sync.Mutex
	n          int64 // counted ops so far
	faults     []Fault
	crashed    bool
	stickySync bool
}

// NewInjector wraps base with the given fault plan. With no faults it is a
// pure op counter.
func NewInjector(base FS, faults ...Fault) *Injector {
	return &Injector{base: base, faults: faults}
}

// OpCount reports how many counted operations have run.
func (in *Injector) OpCount() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.n
}

// step counts one operation of class op and returns the fault to apply, if
// any. A nil fault with a non-nil error means the op must fail wholesale
// (post-crash state or sticky sync).
func (in *Injector) step(op Op) (*Fault, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.n++
	if in.crashed {
		return nil, ErrCrashed
	}
	if in.stickySync && (op == OpSync || op == OpSyncDir) {
		return nil, ErrInjected
	}
	for i := range in.faults {
		f := &in.faults[i]
		if f.At != in.n {
			continue
		}
		if f.Op != OpAny && f.Op != op {
			continue
		}
		switch f.Kind {
		case KindCrash:
			in.crashed = true
		case KindStickySync:
			in.stickySync = true
		}
		return f, nil
	}
	return nil, nil
}

func (in *Injector) Open(name string) (File, error) {
	f, err := in.step(OpOpen)
	if err != nil {
		return nil, err
	}
	if f != nil && (f.Kind == KindFail || f.Kind == KindCrash) {
		return nil, in.errFor(f)
	}
	base, err := in.base.Open(name)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, f: base}, nil
}

func (in *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := in.step(OpOpen)
	if err != nil {
		return nil, err
	}
	if f != nil && (f.Kind == KindFail || f.Kind == KindCrash) {
		return nil, in.errFor(f)
	}
	base, err := in.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, f: base}, nil
}

func (in *Injector) CreateTemp(dir, pattern string) (File, error) {
	f, err := in.step(OpOpen)
	if err != nil {
		return nil, err
	}
	if f != nil && (f.Kind == KindFail || f.Kind == KindCrash) {
		return nil, in.errFor(f)
	}
	base, err := in.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, f: base}, nil
}

func (in *Injector) ReadFile(name string) ([]byte, error) {
	f, err := in.step(OpRead)
	if err != nil {
		return nil, err
	}
	if f != nil && (f.Kind == KindFail || f.Kind == KindCrash) {
		return nil, in.errFor(f)
	}
	data, err := in.base.ReadFile(name)
	if err != nil {
		return nil, err
	}
	if f != nil && f.Kind == KindBitFlip && len(data) > 0 {
		data = flipBit(data, f.Arg)
	}
	return data, nil
}

func (in *Injector) WriteFile(name string, data []byte, perm os.FileMode) error {
	f, err := in.step(OpWrite)
	if err != nil {
		return err
	}
	if f == nil {
		return in.base.WriteFile(name, data, perm)
	}
	switch f.Kind {
	case KindFail:
		return ErrInjected
	case KindShortWrite, KindCrash:
		keep := f.Arg
		if keep <= 0 || keep >= int64(len(data)) {
			keep = int64(len(data) / 2)
		}
		_ = in.base.WriteFile(name, data[:keep], perm)
		if f.Kind == KindCrash {
			// The caller believes the write happened; the tear surfaces
			// only after "reboot".
			return nil
		}
		return ErrInjected
	}
	return in.base.WriteFile(name, data, perm)
}

func (in *Injector) MkdirAll(path string, perm os.FileMode) error {
	// Not counted: directory creation happens once per store lifetime.
	return in.base.MkdirAll(path, perm)
}

func (in *Injector) Rename(oldpath, newpath string) error {
	f, err := in.step(OpRename)
	if err != nil {
		return err
	}
	if f != nil {
		switch f.Kind {
		case KindFail:
			return ErrInjected
		case KindCrash:
			// Crash before the rename takes effect.
			return ErrCrashed
		}
	}
	return in.base.Rename(oldpath, newpath)
}

func (in *Injector) Remove(name string) error {
	f, err := in.step(OpRemove)
	if err != nil {
		return err
	}
	if f != nil && (f.Kind == KindFail || f.Kind == KindCrash) {
		return in.errFor(f)
	}
	return in.base.Remove(name)
}

func (in *Injector) Stat(name string) (os.FileInfo, error) { return in.base.Stat(name) }

func (in *Injector) ReadDir(name string) ([]os.DirEntry, error) { return in.base.ReadDir(name) }

func (in *Injector) SyncDir(dir string) error {
	f, err := in.step(OpSyncDir)
	if err != nil {
		return err
	}
	if f != nil {
		switch f.Kind {
		case KindFail, KindStickySync:
			return ErrInjected
		case KindCrash:
			return ErrCrashed
		}
	}
	return in.base.SyncDir(dir)
}

func (in *Injector) errFor(f *Fault) error {
	if f.Kind == KindCrash {
		return ErrCrashed
	}
	return ErrInjected
}

// injFile routes per-file operations through the injector.
type injFile struct {
	in *Injector
	f  File
}

func (x *injFile) Name() string               { return x.f.Name() }
func (x *injFile) Stat() (os.FileInfo, error) { return x.f.Stat() }
func (x *injFile) Close() error               { return x.f.Close() } // process-local, never faulted
func (x *injFile) Seek(off int64, whence int) (int64, error) {
	return x.f.Seek(off, whence)
}

func (x *injFile) Read(p []byte) (int, error) {
	f, err := x.in.step(OpRead)
	if err != nil {
		return 0, err
	}
	if f != nil && (f.Kind == KindFail || f.Kind == KindCrash) {
		return 0, x.in.errFor(f)
	}
	n, err := x.f.Read(p)
	if f != nil && f.Kind == KindBitFlip && n > 0 {
		copy(p[:n], flipBit(append([]byte(nil), p[:n]...), f.Arg))
	}
	return n, err
}

func (x *injFile) Write(p []byte) (int, error) {
	f, err := x.in.step(OpWrite)
	if err != nil {
		return 0, err
	}
	if f == nil {
		return x.f.Write(p)
	}
	switch f.Kind {
	case KindFail:
		return 0, ErrInjected
	case KindShortWrite, KindCrash:
		keep := f.Arg
		if keep <= 0 || keep >= int64(len(p)) {
			keep = int64(len(p) / 2)
		}
		n, _ := x.f.Write(p[:keep])
		if f.Kind == KindCrash {
			// Report success: the torn tail is only discovered at reopen.
			return len(p), nil
		}
		return n, ErrInjected
	}
	return x.f.Write(p)
}

func (x *injFile) Sync() error {
	f, err := x.in.step(OpSync)
	if err != nil {
		return err
	}
	if f != nil {
		switch f.Kind {
		case KindFail, KindStickySync:
			return ErrInjected
		case KindCrash:
			return ErrCrashed
		}
	}
	return x.f.Sync()
}

func (x *injFile) Truncate(size int64) error {
	f, err := x.in.step(OpTruncate)
	if err != nil {
		return err
	}
	if f != nil && (f.Kind == KindFail || f.Kind == KindCrash) {
		return x.in.errFor(f)
	}
	return x.f.Truncate(size)
}

// flipBit flips bit (arg%8) of byte (arg/8 mod len(data)), in place.
func flipBit(data []byte, arg int64) []byte {
	if len(data) == 0 {
		return data
	}
	if arg < 0 {
		arg = -arg
	}
	i := (arg / 8) % int64(len(data))
	data[i] ^= 1 << (arg % 8)
	return data
}
