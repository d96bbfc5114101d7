package vfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustWriteFile(t *testing.T, fsys FS, path string, data []byte, sync bool) {
	t.Helper()
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			t.Fatalf("sync %s: %v", path, err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close %s: %v", path, err)
	}
}

// TestUnsyncedWriteDroppedByCrash pins the core durability rule: synced
// bytes survive a strict crash image, un-synced bytes do not.
func TestUnsyncedWriteDroppedByCrash(t *testing.T) {
	fs := NewFaultFS()
	if err := MkdirAllDurable(fs, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	mustWriteFile(t, fs, "/d/synced", []byte("hello"), true)
	if err := fs.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}
	f, err := fs.OpenFile("/d/synced", os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("HELLO-MORE"), 0); err != nil {
		t.Fatal(err)
	}

	img := fs.CrashImage()
	got, err := img.ReadFile("/d/synced")
	if err != nil {
		t.Fatalf("crash image read: %v", err)
	}
	if string(got) != "hello" {
		t.Fatalf("crash image content = %q, want the synced %q", got, "hello")
	}
	// The live fs still sees the volatile write.
	live, _ := fs.ReadFile("/d/synced")
	if string(live) != "HELLO-MORE" {
		t.Fatalf("live content = %q", live)
	}
}

// TestCreateNotDurableUntilDirSync pins the namespace rule: a created and
// even fsynced file vanishes if its directory entry was never synced.
func TestCreateNotDurableUntilDirSync(t *testing.T) {
	fs := NewFaultFS()
	if err := MkdirAllDurable(fs, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	mustWriteFile(t, fs, "/d/vanishes", []byte("x"), true) // file synced, dir not
	img := fs.CrashImage()
	if _, err := img.ReadFile("/d/vanishes"); !os.IsNotExist(err) {
		t.Fatalf("file without dir-sync survived the crash: err=%v", err)
	}
	if err := fs.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}
	img = fs.CrashImage()
	if got, err := img.ReadFile("/d/vanishes"); err != nil || string(got) != "x" {
		t.Fatalf("file after dir-sync: %q, %v", got, err)
	}
}

// TestRenameNotDurableUntilDirSync: after rename without dir sync, the
// crash image still holds the old name/content.
func TestRenameNotDurableUntilDirSync(t *testing.T) {
	fs := NewFaultFS()
	if err := MkdirAllDurable(fs, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	mustWriteFile(t, fs, "/d/a", []byte("old"), true)
	if err := fs.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}
	mustWriteFile(t, fs, "/d/a.tmp", []byte("new"), true)
	if err := fs.Rename("/d/a.tmp", "/d/a"); err != nil {
		t.Fatal(err)
	}

	img := fs.CrashImage()
	if got, _ := img.ReadFile("/d/a"); string(got) != "old" {
		t.Fatalf("pre-dir-sync crash image has %q, want %q", got, "old")
	}
	if err := fs.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}
	img = fs.CrashImage()
	if got, _ := img.ReadFile("/d/a"); string(got) != "new" {
		t.Fatalf("post-dir-sync crash image has %q, want %q", got, "new")
	}
	if _, err := img.Stat("/d/a.tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file survived rename+sync: %v", err)
	}
}

// TestMkdirAllNotDurable: a tree made with bare MkdirAll vanishes, one
// made with MkdirAllDurable survives.
func TestMkdirAllNotDurable(t *testing.T) {
	fs := NewFaultFS()
	if err := fs.MkdirAll("/a/b", 0o755); err != nil {
		t.Fatal(err)
	}
	mustWriteFile(t, fs, "/a/b/f", []byte("x"), true)
	if err := fs.SyncDir("/a/b"); err != nil {
		t.Fatal(err)
	}
	img := fs.CrashImage()
	if _, err := img.Stat("/a"); !os.IsNotExist(err) {
		t.Fatalf("bare MkdirAll tree survived: %v", err)
	}

	fs2 := NewFaultFS()
	if err := MkdirAllDurable(fs2, "/a/b", 0o755); err != nil {
		t.Fatal(err)
	}
	mustWriteFile(t, fs2, "/a/b/f", []byte("x"), true)
	if err := fs2.SyncDir("/a/b"); err != nil {
		t.Fatal(err)
	}
	img = fs2.CrashImage()
	if got, err := img.ReadFile("/a/b/f"); err != nil || string(got) != "x" {
		t.Fatalf("MkdirAllDurable tree lost: %q, %v", got, err)
	}
}

// TestCrashBeforeStopsAllOps: once the armed op boundary is reached,
// every later operation fails with ErrCrashed.
func TestCrashBeforeStopsAllOps(t *testing.T) {
	fs := NewFaultFS()
	if err := MkdirAllDurable(fs, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	n := fs.OpCount()
	fs.CrashBefore(n) // next mutating op dies
	f, err := fs.OpenFile("/d/x", os.O_CREATE|os.O_WRONLY, 0o644)
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("create after crash: %v (file=%v)", err, f)
	}
	if !fs.Crashed() {
		t.Fatal("crash did not latch")
	}
	if _, err := fs.ReadFile("/d/x"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read after crash: %v", err)
	}
}

// TestShortWriteFault: a Partial write fault applies a prefix and
// returns a retryable ENOSPC.
func TestShortWriteFault(t *testing.T) {
	fs := NewFaultFS()
	if err := MkdirAllDurable(fs, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	fs.AddFault(Fault{Kind: "write", PathContains: "victim", Err: ErrNoSpace, Partial: 3})
	f, err := fs.OpenFile("/d/victim", os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("abcdef"))
	if n != 3 || !errors.Is(err, ErrNoSpace) || !Retryable(err) {
		t.Fatalf("short write: n=%d err=%v retryable=%v", n, err, Retryable(err))
	}
	got, _ := fs.ReadFile("/d/victim")
	if string(got) != "abc" {
		t.Fatalf("partial content %q", got)
	}
	// The rule fires once; the retry goes through.
	if n, err := f.WriteAt([]byte("abcdef"), 0); n != 6 || err != nil {
		t.Fatalf("retry: n=%d err=%v", n, err)
	}
}

// TestTornMaterializationSectorGranularity: an un-synced multi-sector
// write appears in a torn image only as a sector-aligned prefix.
func TestTornMaterializationSectorGranularity(t *testing.T) {
	fs := NewFaultFS()
	fs.SetSectorSize(4)
	if err := MkdirAllDurable(fs, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	mustWriteFile(t, fs, "/d/f", []byte("AAAA"), true)
	if err := fs.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}
	f, _ := fs.OpenFile("/d/f", os.O_RDWR, 0)
	if _, err := f.WriteAt([]byte("BBBBBBBBBBBB"), 0); err != nil { // 12 bytes, un-synced
		t.Fatal(err)
	}

	seen := map[int]bool{}
	for seed := int64(0); seed < 64; seed++ {
		img := fs.CrashImageTorn(seed)
		got, err := img.ReadFile("/d/f")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		nb := strings.Count(string(got), "B")
		if nb%4 != 0 {
			t.Fatalf("seed %d: torn content %q not sector aligned", seed, got)
		}
		if rest := strings.TrimLeft(string(got), "B"); strings.Trim(rest, "A") != "" {
			t.Fatalf("seed %d: unexpected content %q", seed, got)
		}
		seen[nb] = true
	}
	if len(seen) < 2 {
		t.Fatalf("torn materialization never varied: %v", seen)
	}
	// Strict image: the write is dropped entirely.
	if got, _ := fs.CrashImage().ReadFile("/d/f"); string(got) != "AAAA" {
		t.Fatalf("strict image %q", got)
	}
}

// TestSameFileIdentity: SameFile tracks inode identity across rename and
// distinguishes re-created paths — the gate the lease steal lock uses.
func TestSameFileIdentity(t *testing.T) {
	fs := NewFaultFS()
	if err := MkdirAllDurable(fs, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	mustWriteFile(t, fs, "/d/lock", nil, false)
	fi1, err := fs.Stat("/d/lock")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/d/lock", "/d/lock2"); err != nil {
		t.Fatal(err)
	}
	fi2, _ := fs.Stat("/d/lock2")
	if !fs.SameFile(fi1, fi2) {
		t.Fatal("rename changed identity")
	}
	mustWriteFile(t, fs, "/d/lock", nil, false)
	fi3, _ := fs.Stat("/d/lock")
	if fs.SameFile(fi1, fi3) {
		t.Fatal("re-created path kept identity")
	}
	// Link shares identity.
	if err := fs.Link("/d/lock2", "/d/lock3"); err != nil {
		t.Fatal(err)
	}
	fi4, _ := fs.Stat("/d/lock3")
	if !fs.SameFile(fi2, fi4) {
		t.Fatal("link broke identity")
	}
}

// TestExclusiveCreate: O_EXCL loses against an existing file with
// os.IsExist, as the lease acquire protocol requires.
func TestExclusiveCreate(t *testing.T) {
	fs := NewFaultFS()
	if err := MkdirAllDurable(fs, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	mustWriteFile(t, fs, "/d/l", nil, false)
	_, err := fs.OpenFile("/d/l", os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if !os.IsExist(err) {
		t.Fatalf("O_EXCL on existing: %v", err)
	}
	if _, err := fs.Stat("/d/none"); !os.IsNotExist(err) {
		t.Fatalf("stat missing: %v", err)
	}
}

// TestDeterministicOpLog: two identical runs produce identical op logs,
// the property crash-point enumeration rests on.
func TestDeterministicOpLog(t *testing.T) {
	run := func() []Op {
		fs := NewFaultFS()
		if err := MkdirAllDurable(fs, "/srv/reg", 0o755); err != nil {
			t.Fatal(err)
		}
		mustWriteFile(t, fs, "/srv/reg/a", []byte("1"), true)
		tmp, err := fs.CreateTemp("/srv/reg", "a.tmp-*")
		if err != nil {
			t.Fatal(err)
		}
		tmp.Write([]byte("2"))
		tmp.Sync()
		tmp.Close()
		fs.Rename(tmp.Name(), "/srv/reg/a")
		fs.SyncDir("/srv/reg")
		return fs.Ops()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("op counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestGlob matches the registry's *.model scan shape.
func TestGlob(t *testing.T) {
	fs := NewFaultFS()
	if err := MkdirAllDurable(fs, "/reg", 0o755); err != nil {
		t.Fatal(err)
	}
	mustWriteFile(t, fs, "/reg/m1.model", []byte("x"), false)
	mustWriteFile(t, fs, "/reg/m2.model", []byte("x"), false)
	mustWriteFile(t, fs, "/reg/other.txt", []byte("x"), false)
	got, err := fs.Glob("/reg/*.model")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "/reg/m1.model" || got[1] != "/reg/m2.model" {
		t.Fatalf("glob: %v", got)
	}
	if none, err := fs.Glob("/missing/*.model"); err != nil || none != nil {
		t.Fatalf("glob missing dir: %v %v", none, err)
	}
}

func TestWriteAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := os.WriteFile(path, []byte("good"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A failing writer must leave the original intact and no temp litter.
	boom := errors.New("boom")
	err := WriteAtomic(OS, path, func(io.Writer) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "good" {
		t.Fatalf("original clobbered: %q, %v", got, err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp file left behind: %v", entries)
	}
	// A successful writer replaces the content.
	if err := WriteAtomic(OS, path, func(w io.Writer) error {
		_, err := w.Write([]byte("new"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("content = %q", got)
	}
}
