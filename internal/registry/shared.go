package registry

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"
)

// DefaultLeaseWait bounds how long a mutation waits to take the registry
// write lease before failing.
const DefaultLeaseWait = 10 * time.Second

// Shared is a Registry served by multiple processes out of one directory.
// Reads first replay the shared change log (Refresh), so promotions,
// fine-tune version bumps, deletes and evictions made by other processes
// are visible; mutations take the on-disk write lease (registry.lease)
// and append to the write-ahead change log (registry.wal) before the
// entry file is touched. The lease is held lazily across mutations and
// stolen by a peer after its TTL, so a crashed writer stalls peers for at
// most one TTL.
type Shared struct {
	*Registry
	lease *Lease
	log   *ChangeLog

	leaseWait time.Duration

	mu sync.Mutex
	// lagging holds replayed records whose on-disk entry has not caught up
	// with the recorded post-state yet (the writer was between its WAL
	// append and its entry rename); they are retried on every Refresh so a
	// promotion or version bump is never silently lost.
	lagging map[string]Change
}

// SharedOption customizes OpenShared.
type SharedOption func(*Shared)

// WithLeaseTTL sets the write-lease TTL (default DefaultLeaseTTL).
func WithLeaseTTL(ttl time.Duration) SharedOption {
	return func(s *Shared) {
		if ttl > 0 {
			s.lease = NewLease(s.lease.fs, s.lease.path, s.lease.owner, ttl)
		}
	}
}

// WithLeaseWait bounds how long mutations wait for the write lease
// (default DefaultLeaseWait).
func WithLeaseWait(d time.Duration) SharedOption {
	return func(s *Shared) {
		if d > 0 {
			s.leaseWait = d
		}
	}
}

// OpenShared opens the registry at dir for multi-process serving. owner
// names this process in the lease file (use a stable node ID). Registry
// options (WithMaxEntries, WithLogf) apply to the embedded collection.
func OpenShared(dir, owner string, regOpts []Option, opts ...SharedOption) (*Shared, error) {
	r, err := Open(dir, regOpts...)
	if err != nil {
		return nil, err
	}
	log, err := OpenChangeLog(r.fs, filepath.Join(dir, "registry.wal"))
	if err != nil {
		return nil, err
	}
	s := &Shared{
		Registry:  r,
		lease:     NewLease(r.fs, filepath.Join(dir, "registry.lease"), owner, 0),
		log:       log,
		leaseWait: DefaultLeaseWait,
		lagging:   make(map[string]Change),
	}
	for _, o := range opts {
		o(s)
	}
	// Open already scanned every entry file; discard the log's history so
	// Refresh starts from "now".
	if _, err := log.Tail(); err != nil {
		s.Registry.logf("registry: change log has a damaged tail at open: %v", err)
	}
	r.setChangeHook(s.recordChange)
	return s, nil
}

// Close releases the write lease (if held) and the change-log handle.
func (s *Shared) Close() error {
	err := s.lease.Release()
	if cerr := s.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// Lease exposes the registry write lease (metrics: epoch, steals).
func (s *Shared) Lease() *Lease { return s.lease }

// recordChange is the Registry change hook: append the mutation to the
// write-ahead log before any entry file is touched. Mutations run under
// the write lease, which serializes appends across processes.
func (s *Shared) recordChange(ch Change) error {
	ch.Epoch = s.lease.Epoch()
	_, err := s.log.Append(ch)
	return err
}

// Refresh replays change-log records appended by other processes into the
// in-memory index. Records whose on-disk entry has not caught up with the
// recorded post-state (version for puts, pin for promotions) are kept and
// retried on the next Refresh.
func (s *Shared) Refresh() error {
	records, err := s.log.Tail()
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, ch := range s.lagging {
		if s.applyLocked(ch) {
			delete(s.lagging, id)
		}
	}
	for _, ch := range records {
		if !s.applyLocked(ch) {
			s.lagging[ch.ID] = ch
		} else {
			delete(s.lagging, ch.ID)
		}
	}
	return err
}

// applyLocked applies one replayed record; callers hold s.mu. It reports
// whether the on-disk state has caught up with the record.
func (s *Shared) applyLocked(ch Change) bool {
	switch ch.Op {
	case OpDelete, OpEvict:
		s.Registry.Forget(ch.ID)
		return true
	case OpPut, OpPromote:
		if err := s.Registry.ReloadEntry(ch.ID); err != nil {
			return false
		}
		meta, ok := s.Registry.Peek(ch.ID)
		if !ok {
			// Entry file not there yet (writer mid-rename) — or already
			// deleted by a later record, which will say so itself.
			return false
		}
		if meta.Version < ch.Version {
			return false
		}
		if ch.Op == OpPromote && !meta.Pinned {
			return false
		}
		return true
	default:
		return true // unknown op from a newer version: nothing to apply
	}
}

// withLease runs fn while holding the registry write lease, acquiring it
// (waiting up to leaseWait for the current holder to expire) if needed.
// The lease is kept after fn returns — repeat writers skip the acquire —
// and stolen by peers after one TTL of silence.
func (s *Shared) withLease(fn func() error) error {
	deadline := time.Now().Add(s.leaseWait)
	for {
		ok, err := s.lease.TryAcquire()
		if err != nil {
			return fmt.Errorf("registry: write lease: %w", err)
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			info, _, _ := s.lease.Read()
			return fmt.Errorf("registry: write lease held by %q (epoch %d) past %s wait", info.Owner, info.Epoch, s.leaseWait)
		}
		time.Sleep(s.lease.TTL() / 20)
	}
	return fn()
}

// Put stores a model under the write lease, refreshing first so version
// bumps build on the newest shared state.
func (s *Shared) Put(meta Meta, model []byte) (Meta, error) {
	var out Meta
	err := s.withLease(func() error {
		if err := s.Refresh(); err != nil {
			s.Registry.logf("registry: refresh before put: %v", err)
		}
		var err error
		out, err = s.Registry.Put(meta, model)
		return err
	})
	return out, err
}

// Promote pins an entry under the write lease.
func (s *Shared) Promote(id string) error {
	return s.withLease(func() error {
		if err := s.Refresh(); err != nil {
			s.Registry.logf("registry: refresh before promote: %v", err)
		}
		return s.Registry.Promote(id)
	})
}

// Delete removes an entry under the write lease.
func (s *Shared) Delete(id string) error {
	return s.withLease(func() error {
		if err := s.Refresh(); err != nil {
			s.Registry.logf("registry: refresh before delete: %v", err)
		}
		return s.Registry.Delete(id)
	})
}

// Nearest refreshes from the change log, then matches.
func (s *Shared) Nearest(fp []float64) (Match, bool) {
	if err := s.Refresh(); err != nil {
		s.Registry.logf("registry: refresh before lookup: %v", err)
	}
	return s.Registry.Nearest(fp)
}

// NearestWithin refreshes from the change log, then matches.
func (s *Shared) NearestWithin(fp []float64, radius float64) (Match, bool) {
	if err := s.Refresh(); err != nil {
		s.Registry.logf("registry: refresh before lookup: %v", err)
	}
	return s.Registry.NearestWithin(fp, radius)
}

// List refreshes from the change log, then lists.
func (s *Shared) List() []Meta {
	if err := s.Refresh(); err != nil {
		s.Registry.logf("registry: refresh before list: %v", err)
	}
	return s.Registry.List()
}

// Get refreshes from the change log, then reads.
func (s *Shared) Get(id string) (Meta, []byte, error) {
	if err := s.Refresh(); err != nil {
		s.Registry.logf("registry: refresh before get: %v", err)
	}
	return s.Registry.Get(id)
}
