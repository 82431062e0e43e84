// Package store is an on-disk, content-addressed cache of immutable
// byte payloads — the durable half of the fpva plan cache. Keys are hex
// digests (planKey already hashes the array wire bytes plus every
// vector-shaping option), values are the plan's v1 wire encoding, and
// the store's one promise is crash safety: a process killed at any
// instant — mid-write, mid-evict — leaves a directory the next Open
// turns back into a consistent cache, quarantining anything torn
// instead of serving it.
//
// Layout under the root directory:
//
//	plans/<key>.plan   one entry: a JSON header line (length + SHA-256
//	                   of the payload), then the payload bytes verbatim
//	tmp/               staging for atomic writes (temp file, fsync,
//	                   rename); leftovers here are crash debris and are
//	                   removed on Open
//	quarantine/        entries that failed verification, moved aside
//	                   with a sequence suffix for postmortems
//
// The directory is the store's only record. An entry's mtime is its
// last use: the store sets it from its own clock when it writes the
// entry and again on every Get hit or repeat Put, and Open rebuilds
// the LRU order from the mtimes (ties by name). The clock is the
// store's, not the kernel's, whose write stamps are tick-granular.
// Touches are not fsynced, so a crash can lose recent recency, never
// an entry.
//
// The store degrades instead of failing: any write-path I/O error
// (disk full, EIO) trips it into memory-only mode — every operation
// becomes a fast no-op — and a doubling-backoff probe re-attempts the
// next writes until one succeeds, at which point the store silently
// resumes. Readers of Stats see the mode, the reason, and every
// counter the daemon exports.
package store

import (
	"io"
	"os"
	"sync"
	"time"
)

// FS is the slice of the filesystem the store uses, injectable so tests
// can script torn writes, EIO bursts, and disk-full conditions without
// touching a real device. The zero value of Options selects the real
// implementation.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(path string) ([]os.DirEntry, error)
	Open(path string) (File, error)
	// CreateTemp creates a new unique file in dir (os.CreateTemp
	// semantics: pattern's "*" is replaced by a random string).
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	Stat(path string) (os.FileInfo, error)
	Chtimes(path string, atime, mtime time.Time) error
}

// File is the per-handle surface the store needs.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
	Name() string
}

// osFS is the real filesystem.
type osFS struct{}

// OSFS returns the production FS backed by package os.
func OSFS() FS { return osFS{} }

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadDir(path string) ([]os.DirEntry, error)   { return os.ReadDir(path) }
func (osFS) Open(path string) (File, error)               { return os.Open(path) }
func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error                     { return os.Remove(path) }
func (osFS) Stat(path string) (os.FileInfo, error)        { return os.Stat(path) }
func (osFS) Chtimes(path string, atime, mtime time.Time) error {
	return os.Chtimes(path, atime, mtime)
}

// Op names one FS operation for fault injection.
type Op string

// The injectable operation points. OpRead, OpWrite and OpSync address
// per-handle calls; the rest address the FS-level entry points.
const (
	OpMkdirAll   Op = "mkdirall"
	OpReadDir    Op = "readdir"
	OpOpen       Op = "open"
	OpCreateTemp Op = "createtemp"
	OpRename     Op = "rename"
	OpRemove     Op = "remove"
	OpStat       Op = "stat"
	OpChtimes    Op = "chtimes"
	OpRead       Op = "read"
	OpWrite      Op = "write"
	OpSync       Op = "sync"
)

// FaultFS wraps another FS with a scripted fault hook: before every
// operation the hook is consulted and a non-nil return fails the
// operation with that error (the hook may also block, which tests use
// to hold a read in flight while eviction runs). A nil hook passes
// everything through. FaultFS is safe for concurrent use and exists
// for tests; production code uses OSFS.
type FaultFS struct {
	Base FS

	mu   sync.Mutex
	hook func(op Op, path string) error
}

// SetHook installs (or, with nil, removes) the fault hook.
func (f *FaultFS) SetHook(h func(op Op, path string) error) {
	f.mu.Lock()
	f.hook = h
	f.mu.Unlock()
}

func (f *FaultFS) check(op Op, path string) error {
	f.mu.Lock()
	h := f.hook
	f.mu.Unlock()
	if h == nil {
		return nil
	}
	return h(op, path)
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	if err := f.check(OpMkdirAll, path); err != nil {
		return err
	}
	return f.Base.MkdirAll(path, perm)
}

func (f *FaultFS) ReadDir(path string) ([]os.DirEntry, error) {
	if err := f.check(OpReadDir, path); err != nil {
		return nil, err
	}
	return f.Base.ReadDir(path)
}

func (f *FaultFS) Open(path string) (File, error) {
	if err := f.check(OpOpen, path); err != nil {
		return nil, err
	}
	file, err := f.Base.Open(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, File: file}, nil
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	if err := f.check(OpCreateTemp, dir); err != nil {
		return nil, err
	}
	file, err := f.Base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, File: file}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if err := f.check(OpRename, oldpath); err != nil {
		return err
	}
	return f.Base.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(path string) error {
	if err := f.check(OpRemove, path); err != nil {
		return err
	}
	return f.Base.Remove(path)
}

func (f *FaultFS) Stat(path string) (os.FileInfo, error) {
	if err := f.check(OpStat, path); err != nil {
		return nil, err
	}
	return f.Base.Stat(path)
}

func (f *FaultFS) Chtimes(path string, atime, mtime time.Time) error {
	if err := f.check(OpChtimes, path); err != nil {
		return err
	}
	return f.Base.Chtimes(path, atime, mtime)
}

// faultFile threads the hook through per-handle reads, writes and syncs.
type faultFile struct {
	f *FaultFS
	File
}

func (ff *faultFile) Read(p []byte) (int, error) {
	if err := ff.f.check(OpRead, ff.Name()); err != nil {
		return 0, err
	}
	return ff.File.Read(p)
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if err := ff.f.check(OpWrite, ff.Name()); err != nil {
		return 0, err
	}
	return ff.File.Write(p)
}

func (ff *faultFile) Sync() error {
	if err := ff.f.check(OpSync, ff.Name()); err != nil {
		return err
	}
	return ff.File.Sync()
}
