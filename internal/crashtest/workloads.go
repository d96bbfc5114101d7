package crashtest

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"strconv"
	"strings"
	"time"

	"cdbtune/internal/core"
	"cdbtune/internal/fleet"
	"cdbtune/internal/registry"
	"cdbtune/internal/server"
	"cdbtune/internal/vfs"
)

func quietLogf(string, ...any) {}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

func atoi(s string) int64 {
	v, _ := strconv.ParseInt(s, 10, 64)
	return v
}

// entryModel derives a deterministic model payload for an entry version,
// long enough (>1 sector) that torn materialization can cut it mid-write.
func entryModel(id string, version int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("%s.v%d|", id, version)), 96)
}

func entryFact(version int, model []byte) string {
	return fmt.Sprintf("%d|%08x", version, crc32.ChecksumIEEE(model))
}

// RegistryWorkload exercises the full shared-registry stack — write
// lease, write-ahead change log, atomic entry files, promotion, eviction
// and deletion — and asserts after every crash point that acked entries
// survive byte-exact, acked removals stay removed (no resurrection), the
// directory is CRC-clean, the lease epoch never regresses, and a fresh
// process can still write.
func RegistryWorkload() Workload {
	const dir = "/reg"
	fp := []float64{1, 2, 3}
	put := func(s *registry.Shared, ack *Ack, id string, version int) error {
		model := entryModel(id, version)
		m, err := s.Put(registry.Meta{ID: id, Workload: "w", Fingerprint: fp}, model)
		if err != nil {
			return err
		}
		ack.Set("entry:"+m.ID, entryFact(m.Version, model))
		ack.Set("lease:epoch", itoa(s.Lease().Epoch()))
		return nil
	}
	return Workload{
		Name: "registry",
		Run: func(fs *vfs.FaultFS, ack *Ack) error {
			clk := newFakeClock()
			fs.SetClock(clk.Now)
			regOpts := []registry.Option{
				registry.WithFS(fs), registry.WithMaxEntries(3), registry.WithLogf(quietLogf),
			}
			s, err := registry.OpenShared(dir, "node1", regOpts,
				registry.WithLeaseTTL(time.Minute), registry.WithLeaseWait(500*time.Millisecond))
			if err != nil {
				return err
			}
			s.Lease().SetClock(clk.Now)
			for _, id := range []string{"m-a", "m-b", "m-c"} {
				if err := put(s, ack, id, 1); err != nil {
					return err
				}
			}
			if err := s.Promote("m-b"); err != nil {
				return err
			}
			ack.Set("pin:m-b", "1")
			if err := put(s, ack, "m-a", 2); err != nil { // fine-tune update
				return err
			}
			// The next put overflows the 3-entry bound and evicts the
			// lowest-seq unpinned entry. Which one dies is the registry's
			// call, so downgrade the candidates' guarantees first: an
			// evictable entry may be present (intact) or gone, never torn.
			for _, id := range []string{"m-a", "m-c"} {
				if v, ok := ack.Get("entry:" + id); ok {
					ack.Del("entry:" + id)
					ack.Set("evictable:"+id, v)
				}
			}
			if err := put(s, ack, "m-d", 1); err != nil {
				return err
			}
			// The put (and its eviction) is acked: re-promote survivors to
			// hard facts, and pin down the victims as durably gone.
			alive := make(map[string]bool)
			for _, m := range s.List() {
				alive[m.ID] = true
			}
			for _, id := range []string{"m-a", "m-c"} {
				v, ok := ack.Get("evictable:" + id)
				if !ok {
					continue
				}
				ack.Del("evictable:" + id)
				if alive[id] {
					ack.Set("entry:"+id, v)
				} else {
					ack.Set("gone:"+id, "evicted")
				}
			}
			// Operator delete of the pinned entry.
			ack.Del("pin:m-b")
			if v, ok := ack.Get("entry:m-b"); ok {
				ack.Del("entry:m-b")
				ack.Set("evictable:m-b", v)
			}
			if err := s.Delete("m-b"); err != nil {
				return err
			}
			ack.Del("evictable:m-b")
			ack.Set("gone:m-b", "deleted")
			return put(s, ack, "m-e", 1)
		},
		Verify: func(img *vfs.FaultFS, ack *Ack) error {
			future := newFakeClock()
			future.Advance(time.Hour)
			img.SetClock(future.Now)
			regOpts := []registry.Option{
				registry.WithFS(img), registry.WithMaxEntries(16), registry.WithLogf(quietLogf),
			}
			s, err := registry.OpenShared(dir, "recover", regOpts,
				registry.WithLeaseTTL(time.Minute), registry.WithLeaseWait(2*time.Second))
			if err != nil {
				return fmt.Errorf("recovery open: %w", err)
			}
			s.Lease().SetClock(future.Now)
			if _, corrupt := s.Verify(); len(corrupt) > 0 {
				return fmt.Errorf("corrupt entry files after crash: %v", corrupt)
			}
			for _, key := range ack.Keys("entry:") {
				id := strings.TrimPrefix(key, "entry:")
				fact, _ := ack.Get(key)
				wantVer := int(atoi(strings.SplitN(fact, "|", 2)[0]))
				meta, model, err := s.Get(id)
				if err != nil {
					return fmt.Errorf("acked entry %s unreadable: %w", id, err)
				}
				if meta.Version < wantVer {
					return fmt.Errorf("acked entry %s regressed to version %d (acked %d)", id, meta.Version, wantVer)
				}
				if meta.Version == wantVer && entryFact(meta.Version, model) != fact {
					return fmt.Errorf("acked entry %s has wrong bytes at acked version %d", id, wantVer)
				}
			}
			for _, key := range ack.Keys("pin:") {
				id := strings.TrimPrefix(key, "pin:")
				meta, ok := s.Peek(id)
				if !ok {
					return fmt.Errorf("acked pinned entry %s vanished", id)
				}
				if !meta.Pinned {
					return fmt.Errorf("acked promotion of %s lost", id)
				}
			}
			for _, key := range ack.Keys("gone:") {
				id := strings.TrimPrefix(key, "gone:")
				if _, err := img.Stat(dir + "/" + id + ".model"); !os.IsNotExist(err) {
					return fmt.Errorf("removed entry %s resurrected after crash", id)
				}
				if _, ok := s.Peek(id); ok {
					return fmt.Errorf("removed entry %s re-indexed after crash", id)
				}
			}
			// The write path must come back up: lease acquirable, WAL
			// appendable, entry writable.
			if _, err := s.Put(registry.Meta{ID: "probe", Workload: "w", Fingerprint: []float64{1, 2, 3}}, entryModel("probe", 1)); err != nil {
				return fmt.Errorf("post-crash write wedged: %w", err)
			}
			if acked := atoi(func() string { v, _ := ack.Get("lease:epoch"); return v }()); acked > 0 {
				if got := s.Lease().Epoch(); got <= acked {
					return fmt.Errorf("recovery lease epoch %d does not fence acked epoch %d", got, acked)
				}
			}
			return nil
		},
	}
}

// WALWorkload drives the registry change log alone with oversized records
// (frames span sectors, so torn images cut them mid-frame) and asserts
// that replay after any crash yields every acked record, that a torn tail
// never wedges the log, and that the next writer can append.
func WALWorkload() Workload {
	const path = "/wal/registry.wal"
	longID := func(i int) string {
		return fmt.Sprintf("m%02d-%s", i, strings.Repeat("x", 700))
	}
	return Workload{
		Name: "wal",
		Run: func(fs *vfs.FaultFS, ack *Ack) error {
			if err := vfs.MkdirAllDurable(fs, "/wal", 0o755); err != nil {
				return err
			}
			log, err := registry.OpenChangeLog(fs, path)
			if err != nil {
				return err
			}
			for i := 0; i < 6; i++ {
				ch, err := log.Append(registry.Change{Op: registry.OpPut, ID: longID(i), Version: 1})
				if err != nil {
					return err
				}
				ack.Set("wal:"+itoa(ch.Seq), ch.ID)
			}
			return nil
		},
		Verify: func(img *vfs.FaultFS, ack *Ack) error {
			// Recovery re-creates the directory tree before opening the
			// log, exactly as a restarting node does.
			if err := vfs.MkdirAllDurable(img, "/wal", 0o755); err != nil {
				return fmt.Errorf("reopen: %w", err)
			}
			log, err := registry.OpenChangeLog(img, path)
			if err != nil {
				return fmt.Errorf("reopen: %w", err)
			}
			recs, err := log.Tail()
			if err != nil {
				return fmt.Errorf("replay: %w", err)
			}
			seen := make(map[int64]string, len(recs))
			for _, r := range recs {
				seen[r.Seq] = r.ID
			}
			for _, key := range ack.Keys("wal:") {
				seq := atoi(strings.TrimPrefix(key, "wal:"))
				want, _ := ack.Get(key)
				if seen[seq] != want {
					return fmt.Errorf("acked record seq %d missing or wrong after replay", seq)
				}
			}
			// The log must accept the next writer: append (which reclaims
			// any torn tail first), then prove a second process replays a
			// clean log — acked history plus the new record, no damage.
			probe, err := log.Append(registry.Change{Op: registry.OpPut, ID: "post-crash-probe", Version: 1})
			if err != nil {
				return fmt.Errorf("post-crash append wedged: %w", err)
			}
			fresh, err := registry.OpenChangeLog(img, path)
			if err != nil {
				return fmt.Errorf("second reopen: %w", err)
			}
			all, err := fresh.Tail()
			if err != nil {
				return fmt.Errorf("replay after post-crash append: %w", err)
			}
			seen = make(map[int64]string, len(all))
			for _, r := range all {
				seen[r.Seq] = r.ID
			}
			for _, key := range ack.Keys("wal:") {
				seq := atoi(strings.TrimPrefix(key, "wal:"))
				want, _ := ack.Get(key)
				if seen[seq] != want {
					return fmt.Errorf("acked record seq %d damaged by post-crash append", seq)
				}
			}
			if seen[probe.Seq] != probe.ID {
				return fmt.Errorf("post-crash append not replayed")
			}
			return nil
		},
	}
}

// JournalWorkload submits fleet jobs and drives two to their terminal
// state, asserting acked records survive any crash — including the
// crash windows around the journal directory's own creation, which is
// why OpenJournal must fsync the new directory's parent.
func JournalWorkload() Workload {
	const dir = "/fleet/jobs"
	keys := []string{"job-a", "job-b", "job-c"}
	return Workload{
		Name: "journal",
		Run: func(fs *vfs.FaultFS, ack *Ack) error {
			j, err := fleet.OpenJournal(fs, dir)
			if err != nil {
				return err
			}
			for _, k := range keys {
				if err := j.Put(fleet.Record{Key: k, Node: "node1", State: fleet.StateAccepted}); err != nil {
					return err
				}
				ack.Set("job:"+k, fleet.StateAccepted)
			}
			for _, k := range keys[:2] {
				err := j.Update(k, func(cur fleet.Record, _ bool) (fleet.Record, bool) {
					cur.Node, cur.State, cur.Improvement = "node1", server.StateDone, 1.25
					return cur, true
				})
				if err != nil {
					return err
				}
				ack.Set("job:"+k, server.StateDone)
			}
			return nil
		},
		Verify: func(img *vfs.FaultFS, ack *Ack) error {
			j, err := fleet.OpenJournal(img, dir)
			if err != nil {
				return fmt.Errorf("reopen: %w", err)
			}
			for _, key := range ack.Keys("job:") {
				k := strings.TrimPrefix(key, "job:")
				want, _ := ack.Get(key)
				rec, ok, err := j.Get(k)
				if err != nil {
					return fmt.Errorf("acked record %s unreadable: %w", k, err)
				}
				if !ok {
					return fmt.Errorf("acked record %s vanished", k)
				}
				switch want {
				case server.StateDone:
					if rec.State != server.StateDone {
						return fmt.Errorf("record %s regressed to %q after acked terminal state", k, rec.State)
					}
				default:
					if rec.State != fleet.StateAccepted && rec.State != server.StateDone {
						return fmt.Errorf("record %s in unexpected state %q", k, rec.State)
					}
				}
			}
			if _, err := j.All(); err != nil {
				return fmt.Errorf("post-crash scan wedged: %w", err)
			}
			if err := j.Put(fleet.Record{Key: "probe", Node: "node2", State: fleet.StateAccepted}); err != nil {
				return fmt.Errorf("post-crash write wedged: %w", err)
			}
			return nil
		},
	}
}

// LeaseWorkload drives the lease protocol through its full lifecycle —
// fresh acquire, renewals, TTL expiry, steal (with its exclusive steal
// lock), release, re-steal — and asserts that after any crash the epoch
// never regresses below an acked value, a fresh handle can always
// acquire (reaping crashed stealers' locks), and no lock-file artifacts
// survive recovery.
func LeaseWorkload() Workload {
	const path = "/lease/x.lease"
	const ttl = 50 * time.Millisecond
	return Workload{
		Name: "lease",
		Run: func(fs *vfs.FaultFS, ack *Ack) error {
			clk := newFakeClock()
			fs.SetClock(clk.Now)
			if err := vfs.MkdirAllDurable(fs, "/lease", 0o755); err != nil {
				return err
			}
			alice := registry.NewLease(fs, path, "alice", ttl)
			alice.SetClock(clk.Now)
			ok, err := alice.TryAcquire()
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("alice failed to acquire a fresh lease")
			}
			ack.Set("lease:epoch", itoa(alice.Epoch()))
			clk.Advance(10 * time.Millisecond)
			if err := alice.Renew(); err != nil {
				return err
			}
			clk.Advance(3 * ttl) // alice goes silent past her TTL
			bob := registry.NewLease(fs, path, "bob", ttl)
			bob.SetClock(clk.Now)
			ok, err = bob.TryAcquire()
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("bob failed to steal the expired lease")
			}
			ack.Set("lease:epoch", itoa(bob.Epoch()))
			clk.Advance(10 * time.Millisecond)
			if err := bob.Release(); err != nil {
				return err
			}
			carol := registry.NewLease(fs, path, "carol", ttl)
			carol.SetClock(clk.Now)
			ok, err = carol.TryAcquire()
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("carol failed to take the released lease")
			}
			ack.Set("lease:epoch", itoa(carol.Epoch()))
			return nil
		},
		Verify: func(img *vfs.FaultFS, ack *Ack) error {
			future := newFakeClock()
			future.Advance(time.Hour)
			img.SetClock(future.Now)
			// A restarting node re-creates its directory tree before
			// touching leases (fleet.Start does this for members/).
			if err := vfs.MkdirAllDurable(img, "/lease", 0o755); err != nil {
				return fmt.Errorf("recovery mkdir: %w", err)
			}
			acked := atoi(func() string { v, _ := ack.Get("lease:epoch"); return v }())
			if info, exists, err := registry.ReadLeaseFile(img, path); err == nil && exists && info.Epoch < acked {
				return fmt.Errorf("on-disk epoch %d below acked %d", info.Epoch, acked)
			}
			rec := registry.NewLease(img, path, "recover", ttl)
			rec.SetClock(future.Now)
			acquired := false
			for try := 0; try < 6 && !acquired; try++ {
				ok, err := rec.TryAcquire()
				if err != nil {
					return fmt.Errorf("recovery acquire: %w", err)
				}
				acquired = ok
				// A crashed stealer's lock needs one reap pass plus aging.
				future.Advance(2 * ttl)
			}
			if !acquired {
				return fmt.Errorf("lease wedged: recovery could not acquire")
			}
			if rec.Epoch() <= acked {
				return fmt.Errorf("recovery epoch %d does not fence acked epoch %d", rec.Epoch(), acked)
			}
			if _, err := img.Stat(path + ".steal"); !os.IsNotExist(err) {
				return fmt.Errorf("steal lock left behind after successful recovery")
			}
			if m, _ := img.Glob("/lease/*.reap-*"); len(m) > 0 {
				return fmt.Errorf("reaped lock artifacts left behind: %v", m)
			}
			return nil
		},
	}
}

// CheckpointWorkload saves a training checkpoint repeatedly through the
// exact disk path Checkpointer.save uses and asserts that after any
// crash the file loads clean as either the last acked version or the
// in-flight next one — never torn, never older.
func CheckpointWorkload() Workload {
	const path = "/ckpt/train.ckpt"
	payloadFor := func(v int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("ckpt.v%d|", v)), 96)
	}
	return Workload{
		Name: "checkpoint",
		Run: func(fs *vfs.FaultFS, ack *Ack) error {
			if err := vfs.MkdirAllDurable(fs, "/ckpt", 0o755); err != nil {
				return err
			}
			for v := 1; v <= 4; v++ {
				ack.Set("ckpt:next", strconv.Itoa(v)) // in-flight before the write
				if err := core.WriteCheckpointPayload(fs, path, payloadFor(v)); err != nil {
					return err
				}
				ack.Set("ckpt:cur", strconv.Itoa(v))
			}
			return nil
		},
		Verify: func(img *vfs.FaultFS, ack *Ack) error {
			// A restarting trainer re-creates its checkpoint directory
			// before loading.
			if err := vfs.MkdirAllDurable(img, "/ckpt", 0o755); err != nil {
				return fmt.Errorf("recovery mkdir: %w", err)
			}
			payload, found, err := core.ReadCheckpointPayload(img, path)
			if err != nil {
				return fmt.Errorf("checkpoint torn after crash: %w", err)
			}
			cur := int(atoi(func() string { v, _ := ack.Get("ckpt:cur"); return v }()))
			next := int(atoi(func() string { v, _ := ack.Get("ckpt:next"); return v }()))
			if cur > 0 && !found {
				return fmt.Errorf("acked checkpoint v%d vanished", cur)
			}
			if found {
				okPayload := false
				for _, v := range []int{cur, next} {
					if v > 0 && bytes.Equal(payload, payloadFor(v)) {
						okPayload = true
					}
				}
				if !okPayload {
					return fmt.Errorf("recovered checkpoint is neither acked v%d nor in-flight v%d", cur, next)
				}
			}
			// The save path must come back up on the recovered disk.
			if err := core.WriteCheckpointPayload(img, path, payloadFor(99)); err != nil {
				return fmt.Errorf("post-crash save wedged: %w", err)
			}
			if got, _, err := core.ReadCheckpointPayload(img, path); err != nil || !bytes.Equal(got, payloadFor(99)) {
				return fmt.Errorf("post-crash save not readable back: %v", err)
			}
			return nil
		},
	}
}

// AllWorkloads is the standard exploration suite, one workload per
// durable artifact class.
func AllWorkloads() []Workload {
	return []Workload{
		RegistryWorkload(),
		WALWorkload(),
		JournalWorkload(),
		LeaseWorkload(),
		CheckpointWorkload(),
	}
}
