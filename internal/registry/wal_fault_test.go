package registry

import (
	"errors"
	"testing"

	"cdbtune/internal/vfs"
)

// A short write mid-frame (full disk) must come back as the typed,
// retryable ErrShortAppend with the torn bytes already reclaimed: the
// caller retries the same record and readers never see damage.
func TestChangeLogShortAppendTyped(t *testing.T) {
	fs := vfs.NewFaultFS()
	if err := vfs.MkdirAllDurable(fs, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	log, err := OpenChangeLog(fs, "/d/x.wal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(Change{Op: OpPut, ID: "a", Version: 1}); err != nil {
		t.Fatal(err)
	}

	fs.AddFault(vfs.Fault{Kind: "write", PathContains: "x.wal", Err: vfs.ErrNoSpace, Partial: 7})
	_, err = log.Append(Change{Op: OpPut, ID: "b", Version: 1})
	if err == nil {
		t.Fatal("append through an ENOSPC short write unexpectedly succeeded")
	}
	if !errors.Is(err, ErrShortAppend) {
		t.Fatalf("error not typed as ErrShortAppend: %v", err)
	}
	if !vfs.Retryable(err) {
		t.Fatalf("short append not retryable: %v", err)
	}

	// The condition cleared (the fault was one-shot): the same record
	// retries cleanly with the next sequence number.
	ch, err := log.Append(Change{Op: OpPut, ID: "b", Version: 1})
	if err != nil {
		t.Fatalf("retry after short append: %v", err)
	}
	if ch.Seq != 2 {
		t.Fatalf("retry got seq %d, want 2 (failed append must not consume a sequence number)", ch.Seq)
	}

	fresh, err := OpenChangeLog(fs, "/d/x.wal")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := fresh.Tail()
	if err != nil {
		t.Fatalf("replay after reclaimed short append: %v", err)
	}
	if len(recs) != 2 || recs[0].ID != "a" || recs[1].ID != "b" {
		t.Fatalf("replay = %+v, want exactly records a, b", recs)
	}
}

// A sync failure after a complete frame write is just as torn from the
// caller's perspective: typed, retryable, truncated back.
func TestChangeLogSyncFailureTyped(t *testing.T) {
	fs := vfs.NewFaultFS()
	if err := vfs.MkdirAllDurable(fs, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	log, err := OpenChangeLog(fs, "/d/y.wal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(Change{Op: OpPut, ID: "a", Version: 1}); err != nil {
		t.Fatal(err)
	}

	// Skip the WriteAt (first matching mutating op is the frame write —
	// target the sync instead).
	fs.AddFault(vfs.Fault{Kind: "sync", PathContains: "y.wal", Err: vfs.ErrIO})
	_, err = log.Append(Change{Op: OpPut, ID: "b", Version: 1})
	if err == nil {
		t.Fatal("append through an EIO sync unexpectedly succeeded")
	}
	if !errors.Is(err, ErrShortAppend) || !vfs.Retryable(err) {
		t.Fatalf("sync failure not typed/retryable: %v", err)
	}
	if _, err := log.Append(Change{Op: OpPut, ID: "b", Version: 1}); err != nil {
		t.Fatalf("retry after sync failure: %v", err)
	}
	fresh, err := OpenChangeLog(fs, "/d/y.wal")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := fresh.Tail()
	if err != nil || len(recs) != 2 {
		t.Fatalf("replay = %d records (err %v), want 2", len(recs), err)
	}
}
