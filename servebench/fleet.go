package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"cdbtune/internal/fleet"
	"cdbtune/internal/registry"
	"cdbtune/internal/server"
)

// fleetNodes is the fleet size: one node per CPU of the reference box.
const fleetNodes = 2

// fleetCounters are the fleet-layer numbers of one run.
type fleetCounters struct {
	submitted  int
	forwarded  int
	leaseSteal int
	failovers  int
	retries429 int
	lateMax    time.Duration
	submitMs   []float64 // submit call time per accepted job, ms
}

// fleetSetup is one started fleet: fleetNodes in-process nodes sharing
// one directory over loopback HTTP.
type fleetSetup struct {
	dir   string
	nodes map[string]*fleet.Node
	ids   []string
}

func startFleet(dir string, p *probes, stages *stageLog) (*fleetSetup, error) {
	fs := &fleetSetup{dir: dir, nodes: make(map[string]*fleet.Node)}
	for i := 0; i < fleetNodes; i++ {
		id := fmt.Sprintf("n%d", i)
		scfg := fastConfig()
		scfg.MakeDB = makeDB(&p.db, p.tr, id)
		scfg.Logf = stages.logf
		n, err := fleet.Start(fleet.Config{
			ID: id, Dir: dir, LeaseTTL: fleetLeaseTTL,
			Server:       scfg,
			RegistryOpts: []registry.Option{registry.WithFS(p.fsFor(id)), registry.WithLogf(func(string, ...any) {})},
			Logf:         func(string, ...any) {},
		})
		if err != nil {
			fs.stop()
			return nil, fmt.Errorf("starting node %s: %w", id, err)
		}
		fs.nodes[id] = n
		fs.ids = append(fs.ids, id)
	}
	// Set-up ends when every node sees the whole membership.
	deadline := time.Now().Add(10 * time.Second)
	for {
		alive, err := fleet.Alive(filepath.Join(dir, "members"))
		if err == nil && len(alive) == fleetNodes {
			return fs, nil
		}
		if time.Now().After(deadline) {
			fs.stop()
			return nil, fmt.Errorf("fleet membership incomplete after 10s: %v", alive)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop stops every node. A node's Stop error (a drain cut short or a
// lease release that failed) changes nothing the run reports: the
// registry audit afterwards checks what the nodes left on disk.
func (fs *fleetSetup) stop() {
	for _, id := range fs.ids {
		_ = fs.nodes[id].Stop()
	}
}

// runFleet offers jobs on schedule (open loop) to a fresh two-node fleet,
// round-robin over the nodes, one keep-alive connection per node. Each
// job is timed from its due time to the terminal event of the session
// that ran it.
func runFleet(ctx context.Context, dir string, jobs []fleetJob, p *probes) (*runResult, error) {
	stages := newStageLog()
	t0 := time.Now()
	fs, err := startFleet(dir, p, stages)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	res := &runResult{setups: []time.Duration{time.Since(t0)}, rounds: 1, fleet: &fleetCounters{}}
	stopped := false
	defer func() {
		if !stopped {
			fs.stop()
		}
	}()

	clients := make([]*http.Client, len(fs.ids))
	for i := range clients {
		clients[i] = &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		}
	}
	defer func() {
		for _, c := range clients {
			c.CloseIdleConnections()
		}
	}()
	recs := make([]*jobRec, len(jobs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range jobs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			node := fs.ids[i%len(fs.ids)]
			recs[i] = submitFleetJob(ctx, clients[i%len(clients)], fs.nodes[node].Addr(), start, jobs[i], i)
		}()
	}
	wg.Wait()

	// Wait for every accepted job's session to end, bounded by the drain
	// limit: a job still open then is lost.
	dctx, dcancel := context.WithTimeout(ctx, fleetDrain)
	defer dcancel()
	for _, j := range recs {
		if j.id == "" {
			continue
		}
		select {
		case <-stages.terminated(j.id):
		case <-dctx.Done():
		}
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	res.wall = time.Since(start)

	// The client's view: every key's journal record must be terminal.
	for _, j := range recs {
		if j.id == "" {
			continue
		}
		evs := stages.of(j.id)
		j.stages = evs
		if len(evs) == 0 || !terminalStage(evs[len(evs)-1].Stage) {
			j.err = "lost: no terminal state within the drain limit"
			continue
		}
		j.end = evs[len(evs)-1].At
		if n, ok := fs.nodes[j.node]; ok {
			j.status, _ = n.Manager().Job(j.id)
		}
		rec, err := fetchRecord(clients[0], fs.nodes[fs.ids[0]].Addr(), j.key)
		switch {
		case err != nil:
			j.err = fmt.Sprintf("journal lookup: %v", err)
			j.status.State = ""
		case !rec.Terminal():
			j.err = fmt.Sprintf("journal record still %s", rec.State)
			j.status.State = ""
		case rec.State != j.status.State:
			j.err = fmt.Sprintf("journal says %s, session says %s", rec.State, j.status.State)
			j.status.State = ""
		}
	}

	fc := res.fleet
	for _, id := range fs.ids {
		st := fs.nodes[id].Stats()
		fc.forwarded += st.Forwarded
		fc.leaseSteal += st.RegistryLeaseSteals
		fc.failovers += st.Failovers
	}
	for _, j := range recs {
		late := j.sent.Sub(j.due)
		if late > fc.lateMax {
			fc.lateMax = late
		}
		fc.retries429 += j.retries429
		if j.id != "" {
			fc.submitted++
			fc.submitMs = append(fc.submitMs, ms(j.accepted.Sub(j.sent)))
		}
	}
	res.entries = fs.nodes[fs.ids[0]].Registry().Len()
	fs.stop()
	stopped = true

	// Audit the shared registry the nodes left behind.
	reg, err := registry.Open(filepath.Join(dir, "registry"), registry.WithLogf(func(string, ...any) {}))
	if err != nil {
		return nil, fmt.Errorf("reopening registry: %w", err)
	}
	if _, corrupt := reg.Verify(); len(corrupt) > 0 {
		res.verifyErr = fmt.Sprintf("%d corrupt registry entries: %v", len(corrupt), corrupt)
	}
	res.jobs = recs
	return res, nil
}

// fleetRetryLimit bounds resubmissions of a job the fleet answers 429;
// past it the job counts as refused.
const fleetRetryLimit = 50

// submitFleetJob waits for the job's due time, then posts it, retrying
// 429 answers after a short jittered pause.
func submitFleetJob(ctx context.Context, client *http.Client, addr string, start time.Time, job fleetJob, i int) *jobRec {
	j := &jobRec{key: job.key, due: start.Add(job.due)}
	select {
	case <-time.After(time.Until(j.due)):
	case <-ctx.Done():
		j.sent, j.end, j.err, j.status.State = time.Now(), time.Now(), ctx.Err().Error(), server.StateFailed
		return j
	}
	j.sent = time.Now()
	body, _ := json.Marshal(fleet.SubmitRequest{Key: job.key, Request: job.req})
	rng := rand.New(rand.NewSource(int64(i) + 1))
	for {
		resp, err := client.Post("http://"+addr+"/fleet/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			j.end, j.err, j.status.State = time.Now(), "submit: "+err.Error(), server.StateFailed
			return j
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted, http.StatusOK:
			var rec fleet.Record
			if err := json.Unmarshal(data, &rec); err != nil || rec.JobID == "" {
				j.end, j.err, j.status.State = time.Now(), fmt.Sprintf("submit: unreadable record %q", data), server.StateFailed
				return j
			}
			j.accepted, j.id, j.node = time.Now(), rec.JobID, rec.Node
			return j
		case http.StatusTooManyRequests:
			j.retries429++
			if j.retries429 > fleetRetryLimit {
				j.end, j.err, j.status.State = time.Now(), "refused: 429 past the retry limit", server.StateFailed
				return j
			}
			time.Sleep(time.Duration(50+rng.Intn(100)) * time.Millisecond)
		default:
			j.end, j.err, j.status.State = time.Now(), fmt.Sprintf("submit: HTTP %d: %s", resp.StatusCode, data), server.StateFailed
			return j
		}
	}
}

func fetchRecord(client *http.Client, addr, key string) (fleet.Record, error) {
	resp, err := client.Get("http://" + addr + "/fleet/jobs/" + key)
	if err != nil {
		return fleet.Record{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fleet.Record{}, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var rec fleet.Record
	err = json.NewDecoder(resp.Body).Decode(&rec)
	return rec, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
