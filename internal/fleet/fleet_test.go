package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"cdbtune/internal/core"
	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/metrics"
	"cdbtune/internal/registry"
	"cdbtune/internal/rl/ddpg"
	"cdbtune/internal/server"
	"cdbtune/internal/simdb"
	"cdbtune/internal/vfs"
)

// fastServerConfig is the server test suite's small-network configuration
// — sessions finish in tens of milliseconds against the simulator.
func fastServerConfig(t *testing.T) server.Config {
	t.Helper()
	full := knobs.MySQL(knobs.EngineCDB)
	idx := make([]int, 8)
	for i := range idx {
		idx[i] = i
	}
	cat := full.Subset(idx)
	return server.Config{
		Workers:             2,
		OnlineSteps:         3,
		MinScratchEpisodes:  2,
		MaxScratchEpisodes:  4,
		MaxFineTuneEpisodes: 2,
		ChunkEpisodes:       2,
		ProbeSteps:          2,
		MatchRadius:         0.25,
		Seed:                11,
		Catalog:             cat,
		TunerConfig: func(cat *knobs.Catalog) core.Config {
			cfg := core.DefaultConfig(cat)
			d := ddpg.DefaultConfig(metrics.NumMetrics, cat.Len())
			d.ActorHidden = []int{24, 24}
			d.CriticHidden = []int{32, 24}
			cfg.DDPG = d
			cfg.StepsPerEpisode = 6
			cfg.UpdatesPerStep = 1
			return cfg
		},
		Logf: t.Logf,
	}
}

func startNode(t *testing.T, dir, id string, ttl time.Duration, scfg server.Config) *Node {
	t.Helper()
	n, err := Start(Config{
		ID: id, Dir: dir, LeaseTTL: ttl,
		Server: scfg,
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatalf("starting %s: %v", id, err)
	}
	t.Cleanup(func() { _ = n.Stop() })
	return n
}

func waitCond(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestRingRouting(t *testing.T) {
	r := NewRing([]string{"n1", "n2", "n3"})
	if r.Len() != 3 {
		t.Fatalf("ring members = %d", r.Len())
	}
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		owner, ok := r.Owner(fmt.Sprintf("tenant-%d", i))
		if !ok {
			t.Fatal("no owner on populated ring")
		}
		counts[owner]++
	}
	for m, c := range counts {
		if c == 0 {
			t.Fatalf("member %s owns nothing: %v", m, counts)
		}
	}
	// Candidates are distinct and start with the owner.
	cands := r.Candidates("tenant-7", 3)
	if len(cands) != 3 || cands[0] != mustOwner(t, r, "tenant-7") {
		t.Fatalf("candidates %v", cands)
	}
	seen := map[string]bool{}
	for _, c := range cands {
		if seen[c] {
			t.Fatalf("duplicate candidate in %v", cands)
		}
		seen[c] = true
	}
	// Removing one member remaps only its keys.
	r2 := NewRing([]string{"n1", "n3"})
	moved := 0
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("tenant-%d", i)
		before := mustOwner(t, r, key)
		after := mustOwner(t, r2, key)
		if before != "n2" && before != after {
			t.Fatalf("key %s moved %s → %s though %s is still alive", key, before, after, before)
		}
		if before == "n2" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no keys were owned by n2")
	}
	if _, ok := NewRing(nil).Owner("x"); ok {
		t.Fatal("empty ring must not route")
	}
}

func mustOwner(t *testing.T, r *Ring, key string) string {
	t.Helper()
	o, ok := r.Owner(key)
	if !ok {
		t.Fatalf("no owner for %s", key)
	}
	return o
}

func TestJournalRoundTrip(t *testing.T) {
	j, err := OpenJournal(vfs.OS, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{
		Key: "acme-1", Node: "n1", JobID: "n1-job-0001", State: StateAccepted,
		Request: server.JobRequest{Tenant: "acme", Workload: "sysbench-ro"},
	}
	if err := j.Put(rec); err != nil {
		t.Fatal(err)
	}
	got, ok, err := j.Get("acme-1")
	if err != nil || !ok {
		t.Fatalf("get: %v %v", ok, err)
	}
	if got.Node != "n1" || got.Terminal() {
		t.Fatalf("got %+v", got)
	}
	pend, err := j.PendingOn("n1")
	if err != nil || len(pend) != 1 {
		t.Fatalf("pending: %v %v", pend, err)
	}
	got.State = server.StateDone
	if err := j.Put(got); err != nil {
		t.Fatal(err)
	}
	pend, _ = j.PendingOn("n1")
	if len(pend) != 0 {
		t.Fatalf("terminal record still pending: %v", pend)
	}
	if _, ok, _ := j.Get("never"); ok {
		t.Fatal("missing key resolved")
	}
	if err := j.Put(Record{Key: "../escape"}); err == nil {
		t.Fatal("path-escaping key accepted")
	}
}

// TestRouterRetriesTransientFailures pins the bounded-retry contract: a
// peer answering 503 twice then 202 is retried through; a peer answering
// 429 is NOT retried (it is an answer, not an outage).
func TestRouterRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	}))
	defer ts.Close()
	rt := NewRouter(time.Second, 3)
	code, _, err := rt.Post(ts.URL, []byte("{}"))
	if err != nil || code != http.StatusAccepted {
		t.Fatalf("post: %d %v", code, err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}

	calls.Store(0)
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer busy.Close()
	code, _, err = rt.Post(busy.URL, []byte("{}"))
	if err != nil || code != http.StatusTooManyRequests {
		t.Fatalf("busy post: %d %v", code, err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("429 was retried %d times", got)
	}

	// A dead address exhausts the budget and reports the transport error.
	if _, _, err := rt.Post("http://127.0.0.1:1/none", nil); err == nil {
		t.Fatal("dead peer must error")
	}
}

// TestFleetThreeNodeSmoke runs three in-process nodes over one directory:
// keyed submissions through one node spread across the fleet by
// consistent hash, every job reaches a terminal journal record, duplicate
// submissions converge, and the shared registry verifies clean.
func TestFleetThreeNodeSmoke(t *testing.T) {
	dir := t.TempDir()
	ttl := 300 * time.Millisecond
	n1 := startNode(t, dir, "n1", ttl, fastServerConfig(t))
	n2 := startNode(t, dir, "n2", ttl, fastServerConfig(t))
	n3 := startNode(t, dir, "n3", ttl, fastServerConfig(t))

	waitCond(t, 5*time.Second, "3 live members", func() bool {
		alive, _ := Alive(filepath.Join(dir, "members"))
		return len(alive) == 3
	})

	submit := func(key string) Record {
		body, _ := json.Marshal(SubmitRequest{
			Key:     key,
			Request: server.JobRequest{Tenant: "acme", Workload: "sysbench-ro"},
		})
		resp, err := http.Post("http://"+n1.Addr()+"/fleet/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %s: %d", key, resp.StatusCode)
		}
		var rec Record
		if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
			t.Fatal(err)
		}
		return rec
	}

	keys := make([]string, 6)
	owners := map[string]bool{}
	for i := range keys {
		keys[i] = fmt.Sprintf("acme-task-%d", i)
		rec := submit(keys[i])
		if rec.Key != keys[i] || rec.State != StateAccepted {
			t.Fatalf("submission record %+v", rec)
		}
		owners[rec.Node] = true
	}
	if len(owners) < 2 {
		t.Fatalf("6 keys all landed on one node: %v", owners)
	}

	journal, _ := OpenJournal(vfs.OS, filepath.Join(dir, "jobs"))
	waitCond(t, 2*time.Minute, "all jobs terminal", func() bool {
		for _, k := range keys {
			rec, ok, _ := journal.Get(k)
			if !ok || !rec.Terminal() {
				return false
			}
		}
		return true
	})
	for _, k := range keys {
		rec, _, _ := journal.Get(k)
		if rec.State != server.StateDone {
			t.Fatalf("job %s: %s (%s)", k, rec.State, rec.Error)
		}
	}

	// Re-submitting a finished key converges on its record, no new job.
	before := n1.Manager().Metrics().Submitted + n2.Manager().Metrics().Submitted + n3.Manager().Metrics().Submitted
	dup := submit(keys[0])
	if !dup.Terminal() {
		t.Fatalf("duplicate submit re-ran the job: %+v", dup)
	}
	after := n1.Manager().Metrics().Submitted + n2.Manager().Metrics().Submitted + n3.Manager().Metrics().Submitted
	if after != before {
		t.Fatalf("duplicate submit admitted a session (%d → %d)", before, after)
	}

	// GET /fleet/jobs/{key} serves the record from any node.
	resp, err := http.Get("http://" + n3.Addr() + "/fleet/jobs/" + keys[1])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("journal over HTTP: %d", resp.StatusCode)
	}

	// The shared registry holds CRC-clean models after the run.
	healthy, corrupt := n1.Registry().Verify()
	if healthy == 0 || len(corrupt) != 0 {
		t.Fatalf("registry verify: %d healthy, corrupt %v", healthy, corrupt)
	}
}

// TestFailoverAdoptsDeadNodesJobs pins the failover path deterministically:
// a journal record owned by a member whose lease has expired is adopted by
// a live node — the dead member's lease is stolen (epoch bump), the job
// re-queued locally, and driven to done.
func TestFailoverAdoptsDeadNodesJobs(t *testing.T) {
	dir := t.TempDir()
	ttl := 200 * time.Millisecond
	n1 := startNode(t, dir, "n1", ttl, fastServerConfig(t))

	// A ghost member: lease written once, never renewed — dead after TTL.
	ghost := registry.NewLease(vfs.OS, filepath.Join(dir, "members", "ghost.lease"), "ghost", ttl)
	ghost.SetData("127.0.0.1:1")
	if ok, err := ghost.TryAcquire(); err != nil || !ok {
		t.Fatalf("ghost lease: %v %v", ok, err)
	}
	journal, _ := OpenJournal(vfs.OS, filepath.Join(dir, "jobs"))
	if err := journal.Put(Record{
		Key: "orphan-1", Node: "ghost", JobID: "ghost-job-0000", State: StateAccepted,
		Request: server.JobRequest{Tenant: "acme", Workload: "sysbench-ro"},
	}); err != nil {
		t.Fatal(err)
	}

	waitCond(t, 10*time.Second, "orphan adopted and finished", func() bool {
		rec, ok, _ := journal.Get("orphan-1")
		return ok && rec.Node == "n1" && rec.State == server.StateDone
	})
	rec, _, _ := journal.Get("orphan-1")
	if rec.Requeues != 1 {
		t.Fatalf("requeues = %d, want 1", rec.Requeues)
	}
	st := n1.Stats()
	if st.Failovers < 1 || st.Requeued < 1 {
		t.Fatalf("failover counters: %+v", st)
	}
	// The steal is recorded in the ghost's lease: owner n1, epoch bumped.
	info, ok, err := registry.ReadLeaseFile(vfs.OS, filepath.Join(dir, "members", "ghost.lease"))
	if err != nil || !ok {
		t.Fatalf("ghost lease after steal: %v %v", ok, err)
	}
	if info.Owner != "n1" || info.Epoch != 2 {
		t.Fatalf("ghost lease owner %q epoch %d, want n1/2", info.Owner, info.Epoch)
	}
}

// TestLeaseStallTriggersFailover injects the wedged-process fault: a node
// whose renewals stall past the TTL loses its member lease, a peer adopts
// its still-pending job, and the job completes on the adopter even while
// the stalled process is technically alive.
func TestLeaseStallTriggersFailover(t *testing.T) {
	dir := t.TempDir()
	ttl := 200 * time.Millisecond

	// n2's sessions block at the first instance build until released, so
	// its accepted job is guaranteed still pending when the stall hits.
	blocked := make(chan struct{})
	cfg2 := fastServerConfig(t)
	inner := func(inst simdb.Instance, seed int64) env.Database {
		return simdb.New(knobs.EngineCDB, inst, seed)
	}
	cfg2.MakeDB = func(inst simdb.Instance, seed int64) env.Database {
		<-blocked
		return inner(inst, seed)
	}
	defer close(blocked)

	n1 := startNode(t, dir, "n1", ttl, fastServerConfig(t))
	n2 := startNode(t, dir, "n2", ttl, cfg2)

	waitCond(t, 5*time.Second, "2 live members", func() bool {
		alive, _ := Alive(filepath.Join(dir, "members"))
		return len(alive) == 2
	})

	// Submit straight to n2's local endpoint so the job is owned there.
	body, _ := json.Marshal(SubmitRequest{
		Key:     "stall-1",
		Request: server.JobRequest{Tenant: "acme", Workload: "sysbench-ro"},
	})
	resp, err := http.Post("http://"+n2.Addr()+"/fleet/local", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("local submit: %d", resp.StatusCode)
	}

	// Chaos: stall n2's renewals over the HTTP fault endpoint.
	sbody, _ := json.Marshal(map[string]int{"ms": 5000})
	sresp, err := http.Post("http://"+n2.Addr()+"/fleet/chaos/stall", "application/json", bytes.NewReader(sbody))
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()

	journal, _ := OpenJournal(vfs.OS, filepath.Join(dir, "jobs"))
	waitCond(t, 10*time.Second, "stalled node's job adopted by n1", func() bool {
		rec, ok, _ := journal.Get("stall-1")
		return ok && rec.Node == "n1" && rec.State == server.StateDone
	})
	if st := n1.Stats(); st.Failovers < 1 {
		t.Fatalf("n1 recorded no failover: %+v", st)
	}
}

// TestJournalUpdateTerminalWins pins the stamp-back compare-and-swap: an
// Update that finds a terminal record skips its write, so a slow failover
// stamp can never regress a finished job back to accepted.
func TestJournalUpdateTerminalWins(t *testing.T) {
	j, err := OpenJournal(vfs.OS, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	done := Record{Key: "k", Node: "n1", JobID: "a", State: server.StateDone, Improvement: 0.4}
	if err := j.Put(done); err != nil {
		t.Fatal(err)
	}
	err = j.Update("k", func(cur Record, found bool) (Record, bool) {
		if !found || cur.Terminal() {
			return cur, false
		}
		cur.JobID = "b"
		return cur, true
	})
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := j.Get("k")
	if err != nil || !ok {
		t.Fatalf("get: %v %v", ok, err)
	}
	if got.JobID != "a" || got.State != server.StateDone || got.Improvement != 0.4 {
		t.Fatalf("terminal record was overwritten: %+v", got)
	}

	// A missing key is reported as found=false and may be created.
	err = j.Update("fresh", func(cur Record, found bool) (Record, bool) {
		if found {
			t.Fatalf("phantom record: %+v", cur)
		}
		cur.Node, cur.State = "n1", StateAccepted
		return cur, true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := j.Get("fresh"); !ok || got.Node != "n1" || got.Key != "fresh" {
		t.Fatalf("created record: ok=%v %+v", ok, got)
	}
}
