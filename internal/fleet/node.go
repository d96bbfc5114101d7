package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"cdbtune/internal/registry"
	"cdbtune/internal/server"
	"cdbtune/internal/vfs"
)

// Config assembles one fleet node.
type Config struct {
	// ID is this process's stable node name ("node1"); it prefixes job
	// IDs, names the member lease and owns journal records. Required.
	ID string
	// Dir is the shared fleet directory (registry/, members/, jobs/).
	// Required; every node of one fleet points at the same directory.
	Dir string
	// Addr is the listen address ("127.0.0.1:0" picks a free port).
	Addr string

	// LeaseTTL governs both the registry write lease and the member
	// lease (default registry.DefaultLeaseTTL). Failover latency is one
	// TTL plus a sweep interval.
	LeaseTTL time.Duration

	// Server configures the tuning pipeline. Registry, IDPrefix and
	// OnJobDone are owned by the node and overwritten.
	Server server.Config
	// RegistryOpts apply to the shared registry (WithMaxEntries, ...).
	RegistryOpts []registry.Option

	// Logf receives node log lines (default: the server config's Logf,
	// then log.Printf).
	Logf func(format string, args ...any)
}

// SubmitRequest is the body of POST /fleet/jobs: an idempotency key plus
// the tuning request. Retrying the same Key — against any node, any
// number of times — yields one logical job.
type SubmitRequest struct {
	Key     string            `json:"key"`
	Request server.JobRequest `json:"request"`
}

// Stats is the node snapshot behind GET /fleet/stats.
type Stats struct {
	Node      string            `json:"node"`
	Addr      string            `json:"addr"`
	Members   map[string]string `json:"members"`
	Failovers int               `json:"failovers"`
	Requeued  int               `json:"requeued"`
	Forwarded int               `json:"forwarded"`
	Pending   int               `json:"pending"`

	RegistryLeaseEpoch  int64 `json:"registry_lease_epoch"`
	RegistryLeaseSteals int   `json:"registry_lease_steals"`
	MemberLeaseEpoch    int64 `json:"member_lease_epoch"`
}

// Node is one serve process of the fleet: a tuning Manager/Server pair
// over the shared lease-replicated registry, advertised through a member
// lease, routing sessions by consistent hash, journaling every accepted
// job, and sweeping for dead peers whose pending jobs it adopts.
type Node struct {
	cfg     Config
	reg     *registry.Shared
	mgr     *server.Manager
	srv     *server.Server
	members *Membership
	journal *Journal
	router  *Router
	addr    string
	logf    func(string, ...any)

	stop chan struct{}
	wg   sync.WaitGroup

	mu        sync.Mutex
	failovers int
	requeued  int
	forwarded int
}

// Start opens the shared state, binds the HTTP API and joins the fleet.
func Start(cfg Config) (*Node, error) {
	if cfg.ID == "" || cfg.Dir == "" {
		return nil, errors.New("fleet: Config.ID and Config.Dir are required")
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = registry.DefaultLeaseTTL
	}
	logf := cfg.Logf
	if logf == nil {
		logf = cfg.Server.Logf
	}
	if logf == nil {
		logf = log.Printf
	}

	// Durable mkdir: the node's subtrees must survive a power cut, or every
	// fsync'd lease/record/entry inside vanishes with the directory entry.
	for _, sub := range []string{"registry", "members", "jobs"} {
		if err := vfs.MkdirAllDurable(vfs.OS, filepath.Join(cfg.Dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
	}
	reg, err := registry.OpenShared(filepath.Join(cfg.Dir, "registry"), cfg.ID,
		cfg.RegistryOpts, registry.WithLeaseTTL(cfg.LeaseTTL))
	if err != nil {
		return nil, err
	}
	journal, err := OpenJournal(vfs.OS, filepath.Join(cfg.Dir, "jobs"))
	if err != nil {
		return nil, err
	}

	n := &Node{
		cfg:     cfg,
		reg:     reg,
		journal: journal,
		router:  NewRouter(0, 0),
		stop:    make(chan struct{}),
	}

	n.logf = logf
	scfg := cfg.Server
	scfg.Registry = reg
	scfg.IDPrefix = cfg.ID
	scfg.OnJobDone = n.onJobDone
	n.mgr, err = server.NewManager(scfg)
	if err != nil {
		return nil, err
	}

	n.srv = server.NewServer(n.mgr)
	n.srv.Handle("POST /fleet/jobs", n.handleSubmit)
	n.srv.Handle("POST /fleet/local", n.handleLocal)
	n.srv.Handle("GET /fleet/jobs/{key}", n.handleJob)
	n.srv.Handle("GET /fleet/stats", n.handleStats)
	n.srv.Handle("POST /fleet/chaos/stall", n.handleStall)
	n.srv.SetPromExtra(n.promMetrics)
	n.addr, err = n.srv.Start(cfg.Addr)
	if err != nil {
		n.mgr.Close()
		return nil, err
	}

	n.members, err = NewMembership(filepath.Join(cfg.Dir, "members"), cfg.ID, n.addr, cfg.LeaseTTL, n.logf)
	if err == nil {
		err = n.members.Start()
	}
	if err != nil {
		_ = n.srv.Close()
		return nil, err
	}

	n.wg.Add(1)
	go n.failoverLoop()
	n.logf("fleet: %s serving at %s (lease ttl %s)", cfg.ID, n.addr, cfg.LeaseTTL)
	return n, nil
}

// Addr is the node's bound HTTP address.
func (n *Node) Addr() string { return n.addr }

// Manager exposes the node's tuning pipeline (tests, metrics).
func (n *Node) Manager() *server.Manager { return n.mgr }

// Registry exposes the node's shared registry handle.
func (n *Node) Registry() *registry.Shared { return n.reg }

// Membership exposes the member advertisement (chaos stalls it).
func (n *Node) Membership() *Membership { return n.members }

// Stop leaves the fleet cleanly: the member lease is released (peers see
// the departure at once), the HTTP server drains, queued and running
// sessions finish, the failover loop and registry close last. Pending
// jobs left anyway (drain timeout) are adopted by peers.
func (n *Node) Stop() error {
	close(n.stop)
	n.wg.Wait()
	n.members.Stop()
	err := n.srv.Close()
	if cerr := n.reg.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats snapshots the node's fleet counters.
func (n *Node) Stats() Stats {
	members, _ := Alive(filepath.Join(n.cfg.Dir, "members"))
	pending, _ := n.journal.PendingOn(n.cfg.ID)
	n.mu.Lock()
	defer n.mu.Unlock()
	return Stats{
		Node: n.cfg.ID, Addr: n.addr, Members: members,
		Failovers: n.failovers, Requeued: n.requeued, Forwarded: n.forwarded,
		Pending:             len(pending),
		RegistryLeaseEpoch:  n.reg.Lease().Epoch(),
		RegistryLeaseSteals: n.reg.Lease().Steals(),
		MemberLeaseEpoch:    n.members.Lease().Epoch(),
	}
}

// onJobDone journals a session's terminal state under its idempotency
// key — the write that tells the failover sweep this job needs no
// adoption. The key rides on the job status itself (JobRequest.IdemKey),
// so a session that finishes the instant Submit returns is still
// journaled: there is no side table to miss a racing write.
func (n *Node) onJobDone(st server.JobStatus) {
	key := st.IdemKey
	if key == "" {
		return // a job submitted through the plain API, not the fleet
	}
	err := n.journal.Update(key, func(rec Record, _ bool) (Record, bool) {
		rec.Node, rec.JobID, rec.State = n.cfg.ID, st.ID, st.State
		rec.Improvement, rec.ModelID, rec.Error = st.Improvement, st.ModelID, st.Error
		return rec, true
	})
	if err != nil {
		n.logf("fleet: %s: journaling %s terminal state: %v", n.cfg.ID, key, err)
	}
}

// submitLocal admits a fleet job on this node: journal first look-up for
// idempotency, then Manager.Submit, then the accepted record. A crash
// between Submit and Put re-runs the job on retry — at-least-once, made
// safe by the idempotency key.
func (n *Node) submitLocal(req SubmitRequest) (Record, int, error) {
	if rec, ok, err := n.journal.Get(req.Key); err != nil {
		return Record{}, http.StatusBadRequest, err
	} else if ok && (rec.Terminal() || n.nodeAlive(rec.Node)) {
		return rec, http.StatusOK, nil // duplicate submission: converge on the record
	}
	// The idempotency key travels on the job itself so the terminal-status
	// hook can journal the outcome no matter how fast the session finishes.
	req.Request.IdemKey = req.Key
	st, err := n.mgr.Submit(req.Request)
	if err != nil {
		switch {
		case errors.Is(err, server.ErrQueueFull), errors.Is(err, server.ErrTenantBusy):
			return Record{}, http.StatusTooManyRequests, err
		case errors.Is(err, server.ErrDraining):
			return Record{}, http.StatusServiceUnavailable, err
		}
		return Record{}, http.StatusBadRequest, err
	}
	rec := Record{
		Key: req.Key, Node: n.cfg.ID, JobID: st.ID,
		State: StateAccepted, Request: req.Request,
	}
	// A fast session may have journaled its terminal state already; the
	// accepted record must lose to it, not overwrite it.
	perr := n.journal.Update(req.Key, func(cur Record, found bool) (Record, bool) {
		if found && cur.Terminal() {
			rec = cur
			return cur, false
		}
		return rec, true
	})
	if perr != nil {
		return Record{}, http.StatusInternalServerError, perr
	}
	return rec, http.StatusAccepted, nil
}

func (n *Node) nodeAlive(id string) bool {
	if id == n.cfg.ID {
		return true
	}
	alive, _ := Alive(filepath.Join(n.cfg.Dir, "members"))
	_, ok := alive[id]
	return ok
}

// handleSubmit routes a fleet submission: the key's ring owner admits it;
// an unreachable owner falls through the candidate chain and finally to
// this node, so a submission outlives any single peer.
func (n *Node) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.Key == "" {
		httpError(w, http.StatusBadRequest, errors.New("fleet: submission key required"))
		return
	}
	alive, err := Alive(filepath.Join(n.cfg.Dir, "members"))
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	ids := make([]string, 0, len(alive))
	for id := range alive {
		ids = append(ids, id)
	}
	for _, owner := range NewRing(ids).Candidates(req.Key, 3) {
		if owner == n.cfg.ID {
			break
		}
		addr, ok := alive[owner]
		if !ok {
			continue
		}
		body, _ := json.Marshal(req)
		code, data, err := n.router.Post("http://"+addr+"/fleet/local", body)
		if err != nil {
			n.logf("fleet: %s: forward %s to %s failed: %v", n.cfg.ID, req.Key, owner, err)
			continue // next candidate, ultimately local
		}
		n.mu.Lock()
		n.forwarded++
		n.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_, _ = w.Write(data)
		return
	}
	n.respondLocal(w, req)
}

// handleLocal is the owner-side admission endpoint: no re-routing, so a
// forward can not loop even while peers disagree about the ring.
func (n *Node) handleLocal(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.Key == "" {
		httpError(w, http.StatusBadRequest, errors.New("fleet: submission key required"))
		return
	}
	n.respondLocal(w, req)
}

func (n *Node) respondLocal(w http.ResponseWriter, req SubmitRequest) {
	rec, code, err := n.submitLocal(req)
	if err != nil {
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(server.RetryAfterSec))
		}
		httpError(w, code, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(rec)
}

func (n *Node) handleJob(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	rec, ok, err := n.journal.Get(key)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("fleet: no job %q", key))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(rec)
}

func (n *Node) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(n.Stats())
}

// handleStall injects a lease-renewal stall ({"ms": N}) — the chaos
// harness's wedged-process fault.
func (n *Node) handleStall(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Ms int `json:"ms"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Ms <= 0 {
		httpError(w, http.StatusBadRequest, errors.New("fleet: body must be {\"ms\": N>0}"))
		return
	}
	n.members.StallFor(time.Duration(req.Ms) * time.Millisecond)
	n.logf("fleet: %s: lease renewals stalled for %dms", n.cfg.ID, req.Ms)
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(map[string]any{"stalled_ms": req.Ms})
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// failoverLoop sweeps once per TTL for dead peers with pending journal
// jobs. Adoption is serialized through the dead peer's own member lease:
// the sweeper steals it (epoch bump — the recorded failover), re-submits
// the peer's non-terminal jobs locally, and rewrites their records to
// point here. The steal's one-TTL hold keeps other sweepers off the same
// carcass; records that fail to resubmit (admission pressure) stay on
// the dead node and are retried next sweep.
func (n *Node) failoverLoop() {
	defer n.wg.Done()
	tick := time.NewTicker(n.cfg.LeaseTTL)
	defer tick.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-tick.C:
		}
		if err := n.failoverSweep(); err != nil {
			n.logf("fleet: %s: failover sweep: %v", n.cfg.ID, err)
		}
	}
}

func (n *Node) failoverSweep() error {
	alive, err := Alive(filepath.Join(n.cfg.Dir, "members"))
	if err != nil {
		return err
	}
	all, err := n.journal.All()
	if err != nil {
		return err
	}
	dead := make(map[string][]Record)
	var orphans []Record
	for _, rec := range all {
		if rec.Terminal() {
			continue
		}
		if rec.Node == n.cfg.ID {
			// Our own record with no live session behind it: a crashed
			// prior incarnation of this node ID, or an admission that was
			// journaled but rejected mid-requeue. Re-queue locally.
			if rec.JobID != "" {
				if _, ok := n.mgr.Job(rec.JobID); ok {
					continue
				}
			}
			orphans = append(orphans, rec)
			continue
		}
		if _, ok := alive[rec.Node]; ok {
			continue
		}
		dead[rec.Node] = append(dead[rec.Node], rec)
	}
	n.requeue(orphans)
	for node, recs := range dead {
		n.adopt(node, recs)
	}
	return nil
}

// adopt steals the dead node's member lease and re-queues its jobs here.
func (n *Node) adopt(node string, recs []Record) {
	path := filepath.Join(n.cfg.Dir, "members", node+".lease")
	prev, _, _ := registry.ReadLeaseFile(vfs.OS, path)
	claim := registry.NewLease(vfs.OS, path, n.cfg.ID, n.cfg.LeaseTTL)
	ok, err := claim.TryAcquire()
	if err != nil || !ok {
		// Still within its TTL, or another sweeper beat us to it.
		return
	}
	if prev.Owner == node {
		// A genuine steal from the dead owner — the recorded failover.
		n.mu.Lock()
		n.failovers++
		n.mu.Unlock()
		n.logf("fleet: %s: failover — stole %s's member lease (epoch %d → %d), adopting %d jobs",
			n.cfg.ID, node, prev.Epoch, claim.Epoch(), len(recs))
	}
	n.requeue(recs)
}

// requeue re-admits journal records into this node's pipeline. The record
// is rewritten before Submit: once Submit returns, the session can reach
// its terminal state (and journal it) at any moment, and that write must
// land after this one. A record whose Submit is rejected keeps Node=self
// and no JobID, which the next sweep's self-orphan pass retries.
func (n *Node) requeue(recs []Record) {
	for _, rec := range recs {
		rec.Node, rec.JobID, rec.State = n.cfg.ID, "", StateAccepted
		rec.Requeues++
		rec.Request.IdemKey = rec.Key // records from older journals may predate the field
		if err := n.journal.Put(rec); err != nil {
			n.logf("fleet: %s: rewriting journal %s: %v", n.cfg.ID, rec.Key, err)
			continue
		}
		st, err := n.mgr.Submit(rec.Request)
		if err != nil {
			n.logf("fleet: %s: re-queueing %s: %v (retrying next sweep)", n.cfg.ID, rec.Key, err)
			continue
		}
		n.mu.Lock()
		n.requeued++
		n.mu.Unlock()
		// Stamp the live job ID so the next sweep sees a backed record.
		// The compare-and-swap skips the write when the session already
		// journaled its terminal state — a terminal record is never
		// regressed to accepted by a slow stamp.
		err = n.journal.Update(rec.Key, func(cur Record, found bool) (Record, bool) {
			if !found || cur.Terminal() {
				return cur, false
			}
			cur.JobID = st.ID
			return cur, true
		})
		if err != nil {
			n.logf("fleet: %s: stamping journal %s: %v", n.cfg.ID, rec.Key, err)
		}
	}
}

// promMetrics contributes the fleet layer to the node's /metrics.
func (n *Node) promMetrics() []server.PromMetric {
	st := n.Stats()
	node := map[string]string{"node": st.Node}
	return []server.PromMetric{
		{Name: "cdbtune_fleet_members", Help: "Members with a live lease.", Type: "gauge", Value: float64(len(st.Members))},
		{Name: "cdbtune_fleet_failovers_total", Help: "Dead-peer member leases stolen by this node.", Type: "counter", Labels: node, Value: float64(st.Failovers)},
		{Name: "cdbtune_fleet_requeued_total", Help: "Jobs adopted from dead peers.", Type: "counter", Labels: node, Value: float64(st.Requeued)},
		{Name: "cdbtune_fleet_forwarded_total", Help: "Submissions forwarded to their ring owner.", Type: "counter", Labels: node, Value: float64(st.Forwarded)},
		{Name: "cdbtune_fleet_journal_pending", Help: "Non-terminal journal records owned here.", Type: "gauge", Labels: node, Value: float64(st.Pending)},
		{Name: "cdbtune_registry_lease_epoch", Help: "Registry write-lease epoch as last seen here.", Type: "gauge", Labels: node, Value: float64(st.RegistryLeaseEpoch)},
		{Name: "cdbtune_registry_lease_steals_total", Help: "Registry write-lease steals by this node.", Type: "counter", Labels: node, Value: float64(st.RegistryLeaseSteals)},
		{Name: "cdbtune_member_lease_epoch", Help: "This node's member-lease epoch.", Type: "gauge", Labels: node, Value: float64(st.MemberLeaseEpoch)},
	}
}

// Drain puts the node's manager into draining mode without stopping the
// HTTP listener — operators call it ahead of Stop to shed load early.
func (n *Node) Drain(ctx context.Context) error { return n.mgr.Drain(ctx) }
