package registry

import (
	"fmt"
	"os"
	"testing"
	"time"

	"cdbtune/internal/vfs"
)

// boundaryFS runs after() once every mutating operation the lease makes
// on the wrapped FaultFS has returned: the on-disk view a racing
// TryAcquire on another handle would get at that op boundary.
type boundaryFS struct {
	*vfs.FaultFS
	after func()
}

type boundaryFile struct {
	vfs.File
	after func()
}

func (b *boundaryFS) wrap(f vfs.File, err error) (vfs.File, error) {
	b.after()
	if err != nil {
		return nil, err
	}
	return &boundaryFile{File: f, after: b.after}, nil
}

func (b *boundaryFS) OpenFile(n string, flag int, perm os.FileMode) (vfs.File, error) {
	return b.wrap(b.FaultFS.OpenFile(n, flag, perm))
}
func (b *boundaryFS) CreateTemp(dir, pat string) (vfs.File, error) {
	return b.wrap(b.FaultFS.CreateTemp(dir, pat))
}
func (b *boundaryFS) Rename(o, n string) error      { defer b.after(); return b.FaultFS.Rename(o, n) }
func (b *boundaryFS) Link(o, n string) error        { defer b.after(); return b.FaultFS.Link(o, n) }
func (b *boundaryFS) Remove(n string) error         { defer b.after(); return b.FaultFS.Remove(n) }
func (b *boundaryFS) SyncDir(d string) error        { defer b.after(); return b.FaultFS.SyncDir(d) }
func (f *boundaryFile) Write(p []byte) (int, error) { defer f.after(); return f.File.Write(p) }
func (f *boundaryFile) Sync() error                 { defer f.after(); return f.File.Sync() }

// TestLeaseRecordParsableAtEveryOpBoundary steps the lease through its
// lifecycle — first acquire, renew, release, steal of the tombstone,
// steal after expiry — and reads the lease path after every mutating
// filesystem operation. The path must never hold an unparsable record: a
// racing TryAcquire treats one as corrupt and steals it, and two handles
// then both believe they hold the lease.
func TestLeaseRecordParsableAtEveryOpBoundary(t *testing.T) {
	const path = "/d/x.lease"
	const ttl = 50 * time.Millisecond
	ffs := vfs.NewFaultFS()
	if err := vfs.MkdirAllDurable(ffs, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time { return now }
	ffs.SetClock(clock)
	setupOps := ffs.OpCount()

	var torn []string
	checked := 0
	fsys := &boundaryFS{FaultFS: ffs}
	fsys.after = func() {
		checked++
		if _, _, err := ReadLeaseFile(ffs, path); err != nil {
			torn = append(torn, fmt.Sprintf("after op %d: %v", ffs.OpCount(), err))
		}
	}
	acquire := func(l *Lease) {
		t.Helper()
		if ok, err := l.TryAcquire(); err != nil || !ok {
			t.Fatalf("%s acquire: ok=%v err=%v", l.Owner(), ok, err)
		}
	}
	a := NewLease(fsys, path, "a", ttl)
	a.SetClock(clock)
	b := NewLease(fsys, path, "b", ttl)
	b.SetClock(clock)

	acquire(a)
	now = now.Add(ttl / 5)
	if err := a.Renew(); err != nil {
		t.Fatal(err)
	}
	if err := a.Release(); err != nil {
		t.Fatal(err)
	}
	acquire(b)
	now = now.Add(3 * ttl)
	acquire(a)
	if a.Epoch() != 3 || a.Steals() != 1 {
		t.Fatalf("epoch %d steals %d, want epoch 3 after one steal", a.Epoch(), a.Steals())
	}

	if ops := ffs.OpCount() - setupOps; checked < ops {
		t.Fatalf("observed %d op boundaries, the lease made %d ops", checked, ops)
	}
	if len(torn) > 0 {
		t.Fatalf("lease path held an unparsable record:\n%v", torn)
	}
}
