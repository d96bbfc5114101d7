package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cdbtune/internal/registry"
	"cdbtune/internal/server"
	"cdbtune/internal/vfs"
)

// jobRec is one job as the benchmark saw it.
type jobRec struct {
	key   string
	node  string
	id    string
	round int
	// due is when the request was due (open loop: its schedule slot;
	// closed loop: when the client issued it); sent when the submit call
	// started; accepted when it returned; end when the job turned
	// terminal.
	due, sent, accepted, end time.Time
	retries429               int
	status                   server.JobStatus
	stages                   []stageEvent
	err                      string
}

func (j *jobRec) latency() time.Duration { return j.end.Sub(j.due) }

func (j *jobRec) done() bool { return j.status.State == server.StateDone }

// probes are the per-layer instruments shared by every node of a run.
type probes struct {
	tr  *tracer
	db  dbStats
	reg regStats
	fs  fsStats
}

func newProbes(trace bool) *probes {
	return &probes{tr: newTracer(trace)}
}

func (p *probes) fsFor(node string) vfs.FS {
	return &countingFS{FS: vfs.OS, stats: &p.fs, tr: p.tr, node: node}
}

// runResult is everything one run measured.
type runResult struct {
	jobs    []*jobRec
	setups  []time.Duration
	rounds  int
	entries int
	// verifyErr is set when the registry failed its CRC audit.
	verifyErr string
	// digests are the deterministic outcome of each closed-loop round.
	digests []string
	fleet   *fleetCounters
	wall    time.Duration
}

// closedManager is one set-up of an in-process Manager on a fresh on-disk
// registry, wired to the benchmark's probes.
type closedManager struct {
	m   *server.Manager
	reg *registry.Registry
}

func startManager(dir string, base server.Config, p *probes, stages *stageLog) (*closedManager, error) {
	reg, err := registry.Open(dir, registry.WithFS(p.fsFor("local")), registry.WithLogf(func(string, ...any) {}))
	if err != nil {
		return nil, err
	}
	cfg := base
	cfg.Registry = &countingStore{Store: reg, stats: &p.reg, tr: p.tr, node: "local"}
	cfg.MakeDB = makeDB(&p.db, p.tr, "local")
	cfg.Logf = stages.logf
	m, err := server.NewManager(cfg)
	if err != nil {
		return nil, err
	}
	return &closedManager{m: m, reg: reg}, nil
}

// runClosed drives one client through rounds of reqs, each round on a
// fresh Manager and registry, until the next round would overrun budget
// (at least one round). Every round issues the same requests, so every
// round's deterministic outcome must match the first.
func runClosed(ctx context.Context, workDir string, base server.Config, reqs []server.JobRequest, budget time.Duration, p *probes) (*runResult, error) {
	res := &runResult{}
	start := time.Now()
	for {
		roundStart := time.Now()
		dir := filepath.Join(workDir, fmt.Sprintf("round%d", res.rounds))
		// Job IDs restart with every Manager, so each round keeps its own
		// stage log.
		stages := newStageLog()
		t0 := time.Now()
		cm, err := startManager(dir, base, p, stages)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.setups = append(res.setups, time.Since(t0))
		var round []*jobRec
		db0 := p.db.snapshot()
		for i, req := range reqs {
			j := &jobRec{key: fmt.Sprintf("r%d-%03d", res.rounds, i), node: "local", round: res.rounds, due: time.Now()}
			j.sent = j.due
			st, err := cm.m.Submit(req)
			j.accepted = time.Now()
			if err != nil {
				j.end, j.err, j.status.State = j.accepted, err.Error(), server.StateFailed
				round = append(round, j)
				continue
			}
			j.id = st.ID
			select {
			case <-stages.terminated(st.ID):
			case <-ctx.Done():
				cm.m.Close()
				return nil, ctx.Err()
			}
			j.end = time.Now()
			j.status, _ = cm.m.Job(st.ID)
			j.stages = stages.of(st.ID)
			round = append(round, j)
		}
		cm.m.Close()
		res.entries = cm.reg.Len()
		if _, corrupt := cm.reg.Verify(); len(corrupt) > 0 {
			res.verifyErr = fmt.Sprintf("round %d: %d corrupt registry entries: %v", res.rounds, len(corrupt), corrupt)
		}
		// Round directories are not reused; keep the disk footprint to one.
		_ = os.RemoveAll(dir)
		db1 := p.db.snapshot()
		res.digests = append(res.digests, roundDigest(round)+fmt.Sprintf("runs=%d deploys=%d restarts=%d virtual_us=%d\n",
			db1.runs-db0.runs, db1.deploys-db0.deploys, db1.restarts-db0.restarts, db1.virtualUs-db0.virtualUs))
		res.jobs = append(res.jobs, round...)
		res.rounds++
		elapsed, last := time.Since(start), time.Since(roundStart)
		if elapsed+last > budget {
			break
		}
	}
	res.wall = time.Since(start)
	return res, nil
}

// roundDigest renders a round's deterministic outcome: per job its path,
// episodes, improvement and dynamic-window counters, bit for bit.
func roundDigest(jobs []*jobRec) string {
	out := ""
	for _, j := range jobs {
		s := j.status
		out += fmt.Sprintf("%s %s ep=%d impr=%x drifts=%d retunes=%d reverts=%d\n",
			s.State, s.Path, s.Episodes, s.Improvement, s.Drifts, s.Retunes, s.Reverts)
	}
	return out
}
