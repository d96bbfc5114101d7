package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cdbtune/internal/vfs"
)

func leasePath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "test.lease")
}

func TestLeaseAcquireRenewRelease(t *testing.T) {
	path := leasePath(t)
	l := NewLease(vfs.OS, path, "n0", 200*time.Millisecond)
	ok, err := l.TryAcquire()
	if err != nil || !ok {
		t.Fatalf("acquire: ok=%v err=%v", ok, err)
	}
	if !l.Held() || l.Epoch() != 1 {
		t.Fatalf("held=%v epoch=%d, want held epoch 1", l.Held(), l.Epoch())
	}
	info, exists, err := l.Read()
	if err != nil || !exists || info.Owner != "n0" || info.Epoch != 1 {
		t.Fatalf("on-disk record: %+v exists=%v err=%v", info, exists, err)
	}
	if err := l.Renew(); err != nil {
		t.Fatalf("renew: %v", err)
	}
	// A live lease blocks a second owner.
	l2 := NewLease(vfs.OS, path, "n1", 200*time.Millisecond)
	if ok, err := l2.TryAcquire(); err != nil || ok {
		t.Fatalf("second owner acquired a live lease: ok=%v err=%v", ok, err)
	}
	// Release tombstones (epoch preserved), and the next acquire bumps it.
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
	if l.Held() {
		t.Fatal("held after release")
	}
	ok, err = l2.TryAcquire()
	if err != nil || !ok {
		t.Fatalf("acquire after release: ok=%v err=%v", ok, err)
	}
	if l2.Epoch() != 2 {
		t.Fatalf("epoch after release-reacquire = %d, want 2", l2.Epoch())
	}
	if l2.Steals() != 0 {
		t.Fatalf("acquiring a released lease counted as a steal: %d", l2.Steals())
	}
}

func TestLeaseStealAfterExpiry(t *testing.T) {
	path := leasePath(t)
	base := time.Now()
	l0 := NewLease(vfs.OS, path, "n0", 100*time.Millisecond)
	l0.SetClock(func() time.Time { return base })
	if ok, _ := l0.TryAcquire(); !ok {
		t.Fatal("n0 acquire failed")
	}

	// n1's clock is past n0's expiry: the steal must succeed, bump the
	// epoch, and count as a failover.
	l1 := NewLease(vfs.OS, path, "n1", 100*time.Millisecond)
	l1.SetClock(func() time.Time { return base.Add(250 * time.Millisecond) })
	ok, err := l1.TryAcquire()
	if err != nil || !ok {
		t.Fatalf("steal: ok=%v err=%v", ok, err)
	}
	if l1.Epoch() != 2 || l1.Steals() != 1 {
		t.Fatalf("post-steal epoch=%d steals=%d, want 2/1", l1.Epoch(), l1.Steals())
	}
	// The stalled old holder cannot renew its way back in.
	l0.SetClock(func() time.Time { return base.Add(300 * time.Millisecond) })
	if err := l0.Renew(); err != ErrLeaseLost {
		t.Fatalf("stalled holder renew = %v, want ErrLeaseLost", err)
	}
	if l0.Held() {
		t.Fatal("stalled holder still believes it holds the lease")
	}
	// Re-acquiring after the loss goes through the steal path again.
	l0.SetClock(func() time.Time { return base.Add(600 * time.Millisecond) })
	if ok, err := l0.TryAcquire(); err != nil || !ok {
		t.Fatalf("re-acquire after loss: ok=%v err=%v", ok, err)
	}
	if l0.Epoch() != 3 {
		t.Fatalf("epoch after second steal = %d, want 3", l0.Epoch())
	}
}

// TestLeaseMutualExclusion hammers one lease from many handles and
// asserts no two ever hold it at once.
func TestLeaseMutualExclusion(t *testing.T) {
	path := leasePath(t)
	var holder atomic.Int32
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 1; i <= 8; i++ {
		wg.Add(1)
		go func(id int32) {
			defer wg.Done()
			l := NewLease(vfs.OS, path, fmt.Sprintf("n%d", id), 500*time.Millisecond)
			for j := 0; j < 20; j++ {
				ok, err := l.TryAcquire()
				if err != nil {
					errs <- err
					return
				}
				if !ok {
					continue
				}
				if !holder.CompareAndSwap(0, id) {
					errs <- fmt.Errorf("lease held by %d while %d acquired", holder.Load(), id)
					return
				}
				time.Sleep(time.Millisecond)
				holder.Store(0)
				if err := l.Release(); err != nil {
					errs <- err
					return
				}
			}
		}(int32(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestChangeLogAppendTailTornFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "registry.wal")
	c, err := OpenChangeLog(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 1; i <= 3; i++ {
		if _, err := c.Append(Change{Op: OpPut, ID: fmt.Sprintf("m%04d", i), Version: i}); err != nil {
			t.Fatal(err)
		}
	}
	// A second handle sees the full history, in order, with assigned seqs.
	c2, err := OpenChangeLog(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	records, err := c2.Tail()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 || records[0].Seq != 1 || records[2].Seq != 3 || records[2].ID != "m0003" {
		t.Fatalf("tail: %+v", records)
	}
	// Our own appends are consumed locally: Tail after Append is empty.
	if records, _ := c.Tail(); len(records) != 0 {
		t.Fatalf("writer re-read its own records: %+v", records)
	}

	// A torn final frame (writer crashed mid-append) is tolerated: earlier
	// records still replay, the torn one stays unread until complete.
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(Change{Op: OpPromote, ID: "m0001", Version: 1, Pinned: true}); err != nil {
		t.Fatal(err)
	}
	cut, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, cut[:len(full)+7], 0o644); err != nil {
		t.Fatal(err)
	}
	c3, err := OpenChangeLog(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	records, err = c3.Tail()
	if err != nil {
		t.Fatalf("torn tail must not error: %v", err)
	}
	if len(records) != 3 {
		t.Fatalf("torn tail: %d records, want 3", len(records))
	}
	// Completing the frame makes the record visible on the next Tail.
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	records, err = c3.Tail()
	if err != nil || len(records) != 1 || records[0].Op != OpPromote || !records[0].Pinned {
		t.Fatalf("completed frame: %+v err=%v", records, err)
	}
}

func openShared(t *testing.T, dir, owner string) *Shared {
	t.Helper()
	s, err := OpenShared(dir, owner, []Option{WithLogf(t.Logf)}, WithLeaseTTL(200*time.Millisecond), WithLeaseWait(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestSharedReplication drives two Shared handles (two "processes") over
// one directory: puts, promotions and deletes made through one must be
// visible through the other, with no torn reads and no lost promotions.
func TestSharedReplication(t *testing.T) {
	dir := t.TempDir()
	a := openShared(t, dir, "nodeA")
	b := openShared(t, dir, "nodeB")

	ma, err := a.Put(Meta{Workload: "sysbench-rw", Fingerprint: fp(1), Episodes: 4, ScratchEpisodes: 4}, fakeModel("a"))
	if err != nil {
		t.Fatal(err)
	}
	// B sees A's entry through the change log.
	if got := b.List(); len(got) != 1 || got[0].ID != ma.ID {
		t.Fatalf("B's view after A's put: %+v", got)
	}
	if m, ok := b.Nearest(fp(1)); !ok || m.Meta.ID != ma.ID {
		t.Fatalf("B Nearest: %+v ok=%v", m.Meta, ok)
	}

	// B fine-tunes A's entry: version bump in place, visible to A.
	mb, err := b.Put(Meta{ID: ma.ID, Workload: "sysbench-rw", Fingerprint: fp(1), Episodes: 6}, fakeModel("a2"))
	if err != nil {
		t.Fatal(err)
	}
	if mb.Version != 2 {
		t.Fatalf("B's fine-tune version = %d, want 2", mb.Version)
	}
	if got, ok := peekAfterRefresh(a, ma.ID); !ok || got.Version != 2 || got.Episodes != 6 {
		t.Fatalf("A's view after B's fine-tune: %+v ok=%v", got, ok)
	}

	// A promotes; B must see the pin (lost promotions are the bug class
	// the change log exists to prevent).
	if err := a.Promote(ma.ID); err != nil {
		t.Fatal(err)
	}
	if got, ok := peekAfterRefresh(b, ma.ID); !ok || !got.Pinned {
		t.Fatalf("B's view after A's promote: %+v ok=%v", got, ok)
	}

	// New entries created on both sides get distinct IDs (the refresh
	// before each put advances nextID past the other writer's entries).
	m2, err := a.Put(Meta{Workload: "tpcc", Fingerprint: fp(10)}, fakeModel("t"))
	if err != nil {
		t.Fatal(err)
	}
	m3, err := b.Put(Meta{Workload: "wiki", Fingerprint: fp(20)}, fakeModel("w"))
	if err != nil {
		t.Fatal(err)
	}
	if m2.ID == m3.ID || m2.ID == ma.ID || m3.ID == ma.ID {
		t.Fatalf("ID collision across writers: %s %s %s", ma.ID, m2.ID, m3.ID)
	}

	// B deletes its entry; A forgets it on refresh.
	if err := b.Delete(m3.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := peekAfterRefresh(a, m3.ID); ok {
		t.Fatalf("A still sees %s after B's delete", m3.ID)
	}

	// Registry state passes CRC validation end to end.
	if healthy, corrupt := a.Verify(); healthy != 2 || len(corrupt) != 0 {
		t.Fatalf("verify: healthy=%d corrupt=%v", healthy, corrupt)
	}
}

func peekAfterRefresh(s *Shared, id string) (Meta, bool) {
	if err := s.Refresh(); err != nil {
		return Meta{}, false
	}
	return s.Peek(id)
}

// TestSharedLaggingRecordRetried pins the no-lost-promotion mechanism: a
// change-log record whose entry file has not caught up (writer between
// WAL append and entry rename) is retried on later refreshes instead of
// being dropped.
func TestSharedLaggingRecordRetried(t *testing.T) {
	dir := t.TempDir()
	a := openShared(t, dir, "nodeA")
	b := openShared(t, dir, "nodeB")
	ma, err := a.Put(Meta{Workload: "w", Fingerprint: fp(1)}, fakeModel("a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Refresh(); err != nil {
		t.Fatal(err)
	}

	// Simulate a record ahead of its entry file: version 99 never landed.
	if _, err := b.log.Append(Change{Op: OpPut, ID: ma.ID, Version: 99}); err != nil {
		t.Fatal(err)
	}
	// A's refresh sees the record, finds the entry behind it, and keeps
	// the old (valid) view rather than dropping the entry.
	if err := a.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got, ok := a.Peek(ma.ID); !ok || got.Version != 1 {
		t.Fatalf("entry dropped while lagging: %+v ok=%v", got, ok)
	}
	a.mu.Lock()
	_, lagging := a.lagging[ma.ID]
	a.mu.Unlock()
	if !lagging {
		t.Fatal("record not queued for retry")
	}

	// Once the entry file catches up (version 99 lands), the retry
	// resolves and the new version is visible.
	writeEntryVersion(t, b, ma, 99)
	if err := a.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got, ok := a.Peek(ma.ID); !ok || got.Version != 99 {
		t.Fatalf("caught-up entry not applied: %+v ok=%v", got, ok)
	}
	a.mu.Lock()
	_, lagging = a.lagging[ma.ID]
	a.mu.Unlock()
	if lagging {
		t.Fatal("resolved record still queued for retry")
	}
}

// writeEntryVersion writes an entry file at an exact version, bypassing
// Put's version bump — simulating the delayed writer finishing its
// rename.
func writeEntryVersion(t *testing.T, s *Shared, meta Meta, version int) {
	t.Helper()
	meta.Version = version
	s.Registry.mu.Lock()
	err := s.Registry.writeLocked(meta, fakeModel("caught-up"))
	s.Registry.entries[meta.ID] = cloneMeta(meta)
	s.Registry.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}

// TestEvictionVsFineTuneRace is the satellite race test: pin-aware LRU
// eviction racing concurrent fine-tune write-backs must never delete an
// entry mid-version-bump, and a write-back must never strip the pin that
// protects the entry. The hot entry is promoted: an unpinned entry would
// legitimately become the LRU victim the moment its writer goes quiet,
// so only the pin makes survival deterministic under any interleaving.
// Run under -race (make check does).
func TestEvictionVsFineTuneRace(t *testing.T) {
	r := quietOpen(t, t.TempDir(), WithMaxEntries(4))
	hot, err := r.Put(Meta{Workload: "hot", Fingerprint: fp(1), ScratchEpisodes: 4}, fakeModel("hot"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Promote(hot.ID); err != nil {
		t.Fatal(err)
	}

	const updates, churn = 60, 60
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	// Writer A: fine-tune write-backs on the hot entry (version bumps).
	go func() {
		defer wg.Done()
		for i := 0; i < updates; i++ {
			m, err := r.Put(Meta{ID: hot.ID, Workload: "hot", Fingerprint: fp(1), Episodes: i + 1}, fakeModel(fmt.Sprintf("hot%d", i)))
			if err != nil {
				errs <- fmt.Errorf("fine-tune %d: %w", i, err)
				return
			}
			if m.ID != hot.ID {
				errs <- fmt.Errorf("fine-tune %d created a duplicate entry %s", i, m.ID)
				return
			}
		}
	}()
	// Writer B: a stream of fresh entries forcing LRU eviction.
	go func() {
		defer wg.Done()
		for i := 0; i < churn; i++ {
			if _, err := r.Put(Meta{Workload: fmt.Sprintf("cold%d", i), Fingerprint: fp(float64(i + 2))}, fakeModel(fmt.Sprintf("c%d", i))); err != nil {
				errs <- fmt.Errorf("churn %d: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The hot entry survived every eviction round (its pin held through
	// all 60 unpinned write-backs), its file reads back CRC-clean at the
	// final version, and the collection respected its bound.
	meta, model, err := r.Get(hot.ID)
	if err != nil {
		t.Fatalf("hot entry lost under eviction churn: %v", err)
	}
	if !meta.Pinned {
		t.Fatal("fine-tune write-back stripped the pin")
	}
	if meta.Version != updates+1 {
		t.Fatalf("hot entry version = %d, want %d", meta.Version, updates+1)
	}
	if string(model) != string(fakeModel(fmt.Sprintf("hot%d", updates-1))) {
		t.Fatal("hot entry bytes do not match the last write-back")
	}
	if got := r.Len(); got > 4 {
		t.Fatalf("eviction failed to bound the collection: %d entries", got)
	}
	if healthy, corrupt := r.Verify(); len(corrupt) != 0 || healthy != r.Len() {
		t.Fatalf("post-race verify: healthy=%d len=%d corrupt=%v", healthy, r.Len(), corrupt)
	}
}

// TestChangeLogAppendReclaimsTornTail pins the crash-recovery fix: a
// writer that died mid-append can leave a torn frame LONGER than the next
// record. Append must truncate the dead tail before writing — overwriting
// it in place would leave mid-frame garbage behind the new frame, and
// every later append or replay would die on "bad frame magic".
func TestChangeLogAppendReclaimsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "registry.wal")
	c, err := OpenChangeLog(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(Change{Op: OpPut, ID: "m0001", Version: 1}); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A large frame, torn mid-payload: 200 dangling bytes, far longer than
	// any of the small replacement frames below.
	big := Change{Op: OpPut, ID: "m" + fmt.Sprintf("%0600d", 2), Version: 2}
	if _, err := c.Append(big); err != nil {
		t.Fatal(err)
	}
	c.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, full[:len(valid)+200], 0o644); err != nil {
		t.Fatal(err)
	}

	w, err := OpenChangeLog(vfs.OS, path) // the recovering writer (new lease holder)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Tail(); err != nil {
		t.Fatalf("tail over torn frame: %v", err)
	}
	if _, err := w.Append(Change{Op: OpPut, ID: "m0002", Version: 1}); err != nil {
		t.Fatalf("append over torn tail: %v", err)
	}
	if _, err := w.Append(Change{Op: OpPut, ID: "m0003", Version: 1}); err != nil {
		t.Fatalf("append after reclaim: %v", err)
	}

	r, err := OpenChangeLog(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	records, err := r.Tail()
	if err != nil {
		t.Fatalf("replay after reclaim: %v", err)
	}
	if len(records) != 3 || records[0].ID != "m0001" || records[1].ID != "m0002" || records[2].ID != "m0003" {
		t.Fatalf("replay: %+v", records)
	}
}

// TestLeaseCorruptRecordEpochMonotone pins the fencing fix: stealing a
// lease whose record is unreadable must never regress the epoch below
// anything the damaged record may have held.
func TestLeaseCorruptRecordEpochMonotone(t *testing.T) {
	path := leasePath(t)
	record := fmt.Sprintf(`{"owner":"n0","epoch":7,"expiry_unix_ms":%d}`,
		time.Now().Add(time.Hour).UnixMilli())
	if err := os.WriteFile(path, []byte(record), 0o644); err != nil {
		t.Fatal(err)
	}
	l := NewLease(vfs.OS, path, "n1", 100*time.Millisecond)
	// The handle observes epoch 7 while the lease is live.
	if ok, err := l.TryAcquire(); err != nil || ok {
		t.Fatalf("live lease acquired: ok=%v err=%v", ok, err)
	}
	// The record is then corrupted (torn write, bit rot) and stolen.
	if err := os.WriteFile(path, []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	ok, err := l.TryAcquire()
	if err != nil || !ok {
		t.Fatalf("steal of corrupt lease: ok=%v err=%v", ok, err)
	}
	if l.Epoch() <= 7 {
		t.Fatalf("epoch %d after corrupt steal regresses below the observed 7", l.Epoch())
	}

	// A handle that never saw the healthy record still leaps far ahead
	// instead of restarting near 1.
	path2 := filepath.Join(t.TempDir(), "blind.lease")
	if err := os.WriteFile(path2, []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := NewLease(vfs.OS, path2, "n2", 100*time.Millisecond)
	if ok, err := l2.TryAcquire(); err != nil || !ok {
		t.Fatalf("blind steal of corrupt lease: ok=%v err=%v", ok, err)
	}
	if l2.Epoch() <= corruptEpochJump {
		t.Fatalf("blind corrupt steal epoch %d, want a leap past %d", l2.Epoch(), corruptEpochJump)
	}
}

// TestStaleStealLockReaped pins the reaper: a steal lock abandoned by a
// crashed stealer is cleared safely (claim by rename, never a blind
// remove) and the lease becomes acquirable again, while a fresh lock — a
// live competitor mid-steal — is left untouched.
func TestStaleStealLockReaped(t *testing.T) {
	path := leasePath(t)
	record := fmt.Sprintf(`{"owner":"n0","epoch":3,"expiry_unix_ms":%d}`,
		time.Now().Add(-time.Hour).UnixMilli())
	if err := os.WriteFile(path, []byte(record), 0o644); err != nil {
		t.Fatal(err)
	}
	lock := path + ".steal"
	if err := os.WriteFile(lock, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(lock, old, old); err != nil {
		t.Fatal(err)
	}

	l := NewLease(vfs.OS, path, "n1", 100*time.Millisecond)
	// First attempt reaps the corpse; it must not steal through it.
	if ok, err := l.TryAcquire(); err != nil || ok {
		t.Fatalf("first attempt: ok=%v err=%v, want reap without acquire", ok, err)
	}
	if _, err := os.Stat(lock); !os.IsNotExist(err) {
		t.Fatalf("stale steal lock not reaped: %v", err)
	}
	ok, err := l.TryAcquire()
	if err != nil || !ok {
		t.Fatalf("acquire after reap: ok=%v err=%v", ok, err)
	}
	if l.Epoch() != 4 || l.Steals() != 1 {
		t.Fatalf("post-steal epoch=%d steals=%d, want 4/1", l.Epoch(), l.Steals())
	}

	// A fresh steal lock blocks without being deleted.
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(lock, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if ok, err := NewLease(vfs.OS, path, "n2", 100*time.Millisecond).TryAcquire(); err != nil || ok {
		t.Fatalf("acquired through a live competitor's steal lock: ok=%v err=%v", ok, err)
	}
	if _, err := os.Stat(lock); err != nil {
		t.Fatalf("fresh steal lock was removed: %v", err)
	}
}
