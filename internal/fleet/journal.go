package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"cdbtune/internal/server"
	"cdbtune/internal/vfs"
)

// StateAccepted marks a journaled job that has been admitted somewhere
// but has not reached a terminal state yet — the set failover re-queues.
const StateAccepted = "accepted"

// Record is one durable job entry: enough to re-submit the job on another
// process if its owner dies. Key is the client's idempotency key; a retry
// or failover re-run of the same Key converges on one record.
type Record struct {
	Key     string            `json:"key"`
	Node    string            `json:"node"`
	JobID   string            `json:"job_id,omitempty"`
	State   string            `json:"state"`
	Request server.JobRequest `json:"request"`
	// Requeues counts failover re-submissions of this job.
	Requeues int   `json:"requeues,omitempty"`
	UnixMs   int64 `json:"unix_ms"`

	// Terminal outcome, copied from the session status.
	Improvement float64 `json:"improvement,omitempty"`
	ModelID     string  `json:"model_id,omitempty"`
	Error       string  `json:"error,omitempty"`
}

// Terminal reports whether the record's job needs no further work.
func (r Record) Terminal() bool {
	switch r.State {
	case server.StateDone, server.StateFailed, server.StateCanceled:
		return true
	}
	return false
}

// Journal is the fleet's durable job log: one atomically-written JSON
// file per idempotency key, shared by every process through the fleet
// directory. Writes go through vfs.WriteAtomic (temp file, fsync, rename,
// dir fsync) so a crash never leaves a torn record; cross-process writers
// of one key are last-writer-wins, which is safe because a record is only
// mutated by the node named in it while that node is alive. Within one
// process, mu serializes read-modify-write cycles (Update) against plain
// Puts, so a session's terminal write and a failover stamp-back cannot
// interleave into a lost state.
type Journal struct {
	dir string
	fs  vfs.FS
	mu  sync.Mutex
}

// OpenJournal opens the journal in dir on fsys (vfs.OS in production),
// creating the directory if needed — durably: the new directory's parent
// is fsynced, so a power cut right after the first acked record cannot
// drop the whole journal subtree (an un-fsynced directory entry takes
// every record inside it along when it vanishes).
func OpenJournal(fsys vfs.FS, dir string) (*Journal, error) {
	if err := vfs.MkdirAllDurable(fsys, dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: journal dir: %w", err)
	}
	return &Journal{dir: dir, fs: fsys}, nil
}

func (j *Journal) path(key string) (string, error) {
	for _, r := range key {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' ||
			r == '-' || r == '_' || r == '.' {
			continue
		}
		return "", fmt.Errorf("fleet: job key %q: only [A-Za-z0-9._-] allowed", key)
	}
	if key == "" || strings.HasPrefix(key, ".") {
		return "", fmt.Errorf("fleet: invalid job key %q", key)
	}
	return filepath.Join(j.dir, key+".json"), nil
}

// Put writes (or overwrites) the key's record.
func (j *Journal) Put(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.putLocked(rec)
}

func (j *Journal) putLocked(rec Record) error {
	p, err := j.path(rec.Key)
	if err != nil {
		return err
	}
	rec.UnixMs = time.Now().UnixMilli()
	return vfs.WriteAtomic(j.fs, p, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(rec)
	})
}

// Update applies fn to the key's current record (zero-value Record with
// the Key set when the key has never been journaled) and writes the
// result, all under the journal's write lock — the compare-and-swap that
// lets concurrent in-process writers of one key resolve by state instead
// of by timing. fn returning false skips the write.
func (j *Journal) Update(key string, fn func(cur Record, found bool) (Record, bool)) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	cur, found, err := j.Get(key)
	if err != nil {
		return err
	}
	if !found {
		cur = Record{Key: key}
	}
	next, write := fn(cur, found)
	if !write {
		return nil
	}
	next.Key = key
	return j.putLocked(next)
}

// Get reads one record; ok is false when the key has never been journaled.
func (j *Journal) Get(key string) (Record, bool, error) {
	p, err := j.path(key)
	if err != nil {
		return Record{}, false, err
	}
	data, err := j.fs.ReadFile(p)
	if os.IsNotExist(err) {
		return Record{}, false, nil
	}
	if err != nil {
		return Record{}, false, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return Record{}, false, fmt.Errorf("fleet: journal %s: %w", key, err)
	}
	return rec, true, nil
}

// All returns every journaled record (unordered).
func (j *Journal) All() ([]Record, error) {
	ents, err := j.fs.ReadDir(j.dir)
	if err != nil {
		return nil, err
	}
	var out []Record
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		rec, ok, err := j.Get(strings.TrimSuffix(e.Name(), ".json"))
		if err != nil || !ok {
			continue // a record vanishing or torn mid-scan resolves next sweep
		}
		out = append(out, rec)
	}
	return out, nil
}

// PendingOn returns the non-terminal records owned by the given node —
// the jobs a failover must re-queue when that node dies.
func (j *Journal) PendingOn(node string) ([]Record, error) {
	all, err := j.All()
	if err != nil {
		return nil, err
	}
	var out []Record
	for _, rec := range all {
		if rec.Node == node && !rec.Terminal() {
			out = append(out, rec)
		}
	}
	return out, nil
}
