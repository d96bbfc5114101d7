package vfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// File is the open-file surface the durable paths need: positioned and
// offset reads/writes, fsync, truncate, and metadata.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	io.ReaderAt
	io.WriterAt
	// Name reports the path the file was opened with.
	Name() string
	// Stat reports the file's current metadata.
	Stat() (os.FileInfo, error)
	// Sync flushes the file's content to stable storage. On FaultFS this
	// is the only way file bytes become crash-durable.
	Sync() error
	// Truncate changes the file's size.
	Truncate(size int64) error
}

// FS is the filesystem operation set the durable paths use. Two
// implementations exist: OS (direct passthrough to the os package) and
// *FaultFS (deterministic in-memory filesystem with fault injection and
// power-cut simulation). The semantics FaultFS models — and that callers
// must therefore assume — are the strict POSIX/ext4 ones:
//
//   - file writes are volatile until File.Sync;
//   - creates, renames, removes and links are volatile until the parent
//     directory is fsynced (SyncDir);
//   - a newly created directory is volatile until ITS parent is fsynced
//     (use MkdirAllDurable, not bare MkdirAll, for durable trees).
type FS interface {
	// OpenFile opens a file with os.OpenFile flag semantics (O_CREATE,
	// O_EXCL, O_TRUNC, O_APPEND, O_RDONLY/O_WRONLY/O_RDWR).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// CreateTemp creates a new file in dir with a unique name derived
	// from pattern (os.CreateTemp semantics).
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically renames oldpath onto newpath, replacing newpath.
	Rename(oldpath, newpath string) error
	// Remove unlinks a file.
	Remove(name string) error
	// Link creates newname as a hard link to oldname; it never replaces
	// an existing newname.
	Link(oldname, newname string) error
	// Stat reports a path's metadata.
	Stat(name string) (os.FileInfo, error)
	// ReadFile returns a file's full content.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists a directory, sorted by name.
	ReadDir(name string) ([]os.DirEntry, error)
	// Glob matches files like filepath.Glob. Only the final path element
	// of pattern may carry meta-characters.
	Glob(pattern string) ([]string, error)
	// MkdirAll creates a directory tree. The created entries are NOT
	// crash-durable until their parents are fsynced; use MkdirAllDurable
	// when the tree must survive a power cut.
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs a directory, making the creates/renames/removes
	// recorded in it crash-durable. Filesystems that refuse directory
	// fsync (some network mounts) degrade to pre-fsync durability rather
	// than failing.
	SyncDir(dir string) error
	// SameFile reports whether two Stat results name the same file
	// (inode identity — survives renames, distinguishes re-creations).
	SameFile(a, b os.FileInfo) bool
}

// MkdirAllDurable creates dir (and any missing parents) and fsyncs the
// parent of every directory it created, so the new tree survives a power
// cut. A bare MkdirAll leaves the new entries volatile: on a crash the
// whole subtree — and every file later written inside it, however
// carefully fsynced — can vanish, because the files are only reachable
// through directory entries that were never made durable.
func MkdirAllDurable(fsys FS, dir string, perm os.FileMode) error {
	dir = filepath.Clean(dir)
	if dir == "." || dir == string(filepath.Separator) {
		return nil
	}
	// Find the missing suffix of the component chain.
	var missing []string
	p := dir
	for {
		if _, err := fsys.Stat(p); err == nil {
			break
		}
		missing = append(missing, p)
		parent := filepath.Dir(p)
		if parent == p {
			break
		}
		p = parent
	}
	if len(missing) == 0 {
		return nil
	}
	if err := fsys.MkdirAll(dir, perm); err != nil {
		return err
	}
	// Sync parents deepest-last so each created entry is durable before
	// the entry that references it from above... order actually does not
	// matter for correctness (all syncs complete before return); sync
	// each created component's parent once.
	synced := make(map[string]bool)
	for i := len(missing) - 1; i >= 0; i-- {
		parent := filepath.Dir(missing[i])
		if synced[parent] {
			continue
		}
		synced[parent] = true
		if err := fsys.SyncDir(parent); err != nil {
			return err
		}
	}
	return nil
}

// WriteAtomic writes the file at path by streaming write's output into a
// temp file in the same directory, syncing it, renaming it over path, and
// fsyncing the directory — a crash or write error never leaves a torn
// file at path, and a crash right after the rename cannot lose the rename
// itself (the directory entry is durable before WriteAtomic returns). On
// failure — including an injected ENOSPC/EIO mid-stream — the temp file
// is removed and path is untouched, so a retry after the condition clears
// is always safe.
func WriteAtomic(fsys FS, path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(dir)
}

// Retryable reports whether err is a transient disk-space or I/O error
// (ENOSPC, EIO — real or injected) after which the caller may retry the
// operation. Every write path in the repo guarantees that when it
// returns a retryable error it has left no partial on-disk state behind
// (torn tails truncated, temp files removed), so a retry after the
// condition clears is safe.
func Retryable(err error) bool {
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EIO)
}
