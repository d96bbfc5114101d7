package crashtest

import (
	"fmt"
	"os"
	"testing"

	"cdbtune/internal/registry"
	"cdbtune/internal/vfs"
)

// TestCrashSmoke is the bounded, seeded exploration wired into `make
// crash-smoke`: every workload, a power cut before every mutating
// filesystem operation, strict plus two torn images per point, zero
// tolerated violations.
func TestCrashSmoke(t *testing.T) {
	opts := Options{Stride: 1, TornVariants: 2, Seed: 42}
	total := 0
	for _, w := range AllWorkloads() {
		rep, err := Explore(w, opts)
		if err != nil {
			t.Fatalf("explore %s: %v", w.Name, err)
		}
		t.Logf("%s", rep)
		for _, v := range rep.Violations {
			t.Errorf("violation: %s", v)
		}
		total += rep.CrashPoints
	}
	if total < 200 {
		t.Errorf("explored %d crash points across the suite, want >= 200", total)
	}
}

// TestHarnessCatchesTornTailBug proves the detector detects: with the
// change log's historical bug re-introduced (Append overwrites a torn
// tail in place instead of truncating it), exploration must report
// violations. A harness this test fails under is measuring nothing.
func TestHarnessCatchesTornTailBug(t *testing.T) {
	registry.DebugSkipTailReclaim = true
	defer func() { registry.DebugSkipTailReclaim = false }()
	rep, err := Explore(WALWorkload(), Options{Stride: 1, TornVariants: 3, Seed: 7})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	t.Logf("%s", rep)
	if len(rep.Violations) == 0 {
		t.Fatalf("re-introduced torn-tail overwrite bug was not caught (%d crash points, %d images)",
			rep.CrashPoints, rep.Executions)
	}
}

// TestWALReplayEveryByteOffset is the byte-granular torn-tail property:
// for a crash leaving any byte-length prefix of the final frame on disk,
// replay must return exactly the fully-fsynced preceding records — no
// error, no partial record, nothing dropped.
func TestWALReplayEveryByteOffset(t *testing.T) {
	const path = "/w/x.wal"
	build := vfs.NewFaultFS()
	if err := vfs.MkdirAllDurable(build, "/w", 0o755); err != nil {
		t.Fatal(err)
	}
	log, err := registry.OpenChangeLog(build, path)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"alpha", "beta", "gamma-with-a-long-payload-so-the-final-frame-spans-a-useful-byte-range-0123456789"}
	for _, id := range ids {
		if _, err := log.Append(registry.Change{Op: registry.OpPut, ID: id, Version: 1}); err != nil {
			t.Fatal(err)
		}
		if id == ids[1] {
			break
		}
	}
	prefix, err := build.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(registry.Change{Op: registry.OpPut, ID: ids[2], Version: 1}); err != nil {
		t.Fatal(err)
	}
	full, err := build.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) <= len(prefix) {
		t.Fatalf("final frame added no bytes (%d -> %d)", len(prefix), len(full))
	}

	replay := func(content []byte) ([]registry.Change, error) {
		img := vfs.NewFaultFS()
		if err := vfs.MkdirAllDurable(img, "/w", 0o755); err != nil {
			t.Fatal(err)
		}
		f, err := img.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(content); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		f.Close()
		l, err := registry.OpenChangeLog(img, path)
		if err != nil {
			t.Fatal(err)
		}
		return l.Tail()
	}

	for cut := len(prefix); cut < len(full); cut++ {
		recs, err := replay(full[:cut])
		if err != nil {
			t.Fatalf("cut at byte %d: replay error: %v", cut, err)
		}
		if len(recs) != 2 {
			t.Fatalf("cut at byte %d: got %d records, want exactly the 2 complete ones", cut, len(recs))
		}
		for i, id := range ids[:2] {
			if recs[i].ID != id {
				t.Fatalf("cut at byte %d: record %d = %q, want %q", cut, i, recs[i].ID, id)
			}
		}
	}
	recs, err := replay(full)
	if err != nil || len(recs) != 3 {
		t.Fatalf("full log: got %d records (err %v), want 3", len(recs), err)
	}
}

// TestExploreRejectsBrokenWorkload ensures a workload that fails without
// any crash is an error, not a silently empty report.
func TestExploreRejectsBrokenWorkload(t *testing.T) {
	w := Workload{
		Name:   "broken",
		Run:    func(*vfs.FaultFS, *Ack) error { return fmt.Errorf("boom") },
		Verify: func(*vfs.FaultFS, *Ack) error { return nil },
	}
	if _, err := Explore(w, Options{}); err == nil {
		t.Fatal("want clean-run failure surfaced as an error")
	}
}
