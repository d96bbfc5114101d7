// Command loadgen is the fleet chaos harness: it spawns a multi-process
// tuning fleet (re-executing itself with -node for each serve process),
// drives concurrent simulated tenants through keyed fleet submissions,
// injects process-kill and lease-stall faults mid-run, and asserts the
// robustness contract — zero lost jobs, at least one recorded failover
// via lease steal, bounded submit-to-deploy p99, and a CRC-clean shared
// registry afterwards. `make fleet-smoke` runs it with the defaults.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"cdbtune/internal/chaos"
	"cdbtune/internal/core"
	"cdbtune/internal/fleet"
	"cdbtune/internal/knobs"
	"cdbtune/internal/metrics"
	"cdbtune/internal/registry"
	"cdbtune/internal/rl/ddpg"
	"cdbtune/internal/server"
	"cdbtune/internal/vfs"
)

func main() {
	var (
		nodeMode = flag.Bool("node", false, "run as one fleet serve process (internal)")
		id       = flag.String("id", "", "node ID (with -node)")
		dir      = flag.String("dir", "", "shared fleet directory (default: a temp dir)")
		ttl      = flag.Duration("ttl", 500*time.Millisecond, "lease TTL")
		nodes    = flag.Int("fleet", 3, "fleet size (processes)")
		tenants  = flag.Int("tenants", 50, "concurrent simulated tenants")
		killIdx  = flag.Int("kill", 1, "node index to SIGKILL mid-run (-1 disables)")
		stallIdx = flag.Int("stall", 2, "node index whose lease renewals stall mid-run (-1 disables)")
		timeout  = flag.Duration("timeout", 4*time.Minute, "overall run budget")
		p99Max   = flag.Duration("p99", 60*time.Second, "submit-to-deploy p99 bound")
	)
	flag.Parse()

	if *nodeMode {
		runNode(*id, *dir, *ttl)
		return
	}
	if err := runDriver(*dir, *ttl, *nodes, *tenants, *killIdx, *stallIdx, *timeout, *p99Max); err != nil {
		log.Fatalf("fleet-smoke: FAIL: %v", err)
	}
}

// serveConfig is the harness's fast tuning configuration: an 8-knob
// subset and a small network, so a session costs tens of milliseconds
// against the simulator and 50 tenants finish in seconds.
func serveConfig(logf func(string, ...any)) server.Config {
	full := knobs.MySQL(knobs.EngineCDB)
	idx := make([]int, 8)
	for i := range idx {
		idx[i] = i
	}
	cat := full.Subset(idx)
	return server.Config{
		Workers:             4,
		QueueDepth:          64,
		MaxPerTenant:        2,
		OnlineSteps:         3,
		MinScratchEpisodes:  4,
		MaxScratchEpisodes:  6,
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
		Logf: logf,
	}
}

// runNode is the child-process mode: one fleet serve process that lives
// until SIGTERM (graceful drain) or SIGKILL (the chaos).
func runNode(id, dir string, ttl time.Duration) {
	if id == "" || dir == "" {
		log.Fatal("loadgen -node requires -id and -dir")
	}
	logger := log.New(os.Stderr, "["+id+"] ", log.Ltime|log.Lmicroseconds)
	n, err := fleet.Start(fleet.Config{
		ID: id, Dir: dir, LeaseTTL: ttl,
		Server: serveConfig(logger.Printf),
		Logf:   logger.Printf,
	})
	if err != nil {
		log.Fatalf("starting node %s: %v", id, err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	<-sig
	if err := n.Stop(); err != nil {
		logger.Printf("stop: %v", err)
	}
}

// tenantResult is one simulated tenant's outcome.
type tenantResult struct {
	key     string
	state   string
	errMsg  string
	latency time.Duration
}

func runDriver(dir string, ttl time.Duration, nodes, tenants, killIdx, stallIdx int, timeout, p99Max time.Duration) error {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "fleet-smoke-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	// Spawn the fleet.
	ids := make([]string, nodes)
	procs := make([]*exec.Cmd, nodes)
	for i := range procs {
		ids[i] = fmt.Sprintf("node%d", i)
		cmd := exec.Command(self, "-node", "-id", ids[i], "-dir", dir, "-ttl", ttl.String())
		cmd.Stderr = os.Stderr
		cmd.Stdout = os.Stdout
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("spawning %s: %w", ids[i], err)
		}
		procs[i] = cmd
	}
	defer func() {
		for _, p := range procs {
			if p.Process != nil {
				_ = p.Process.Signal(syscall.SIGTERM)
			}
		}
		for _, p := range procs {
			_ = p.Wait()
		}
	}()

	membersDir := filepath.Join(dir, "members")
	if err := waitUntil(ctx, "all members live", func() bool {
		alive, _ := fleet.Alive(membersDir)
		return len(alive) == nodes
	}); err != nil {
		return err
	}
	log.Printf("fleet-smoke: %d-process fleet up in %s (ttl %s)", nodes, dir, ttl)

	// Launch the tenant herd: one keyed job per tenant, submitted and
	// polled through whatever nodes are alive at each attempt.
	results := make([]tenantResult, tenants)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = runTenant(ctx, membersDir, i)
		}(i)
	}

	// Chaos, armed only once both victims own pending work, so the kill
	// and the stall provably strand jobs for failover to recover.
	journal, err := fleet.OpenJournal(vfs.OS, filepath.Join(dir, "jobs"))
	if err != nil {
		return err
	}
	plan := &chaos.FleetPlan{}
	if stallIdx >= 0 && stallIdx < nodes {
		plan.Events = append(plan.Events, chaos.FleetEvent{
			At: 0, Kind: chaos.FleetStall, Node: stallIdx, Stall: 6 * ttl,
		})
	}
	if killIdx >= 0 && killIdx < nodes {
		plan.Events = append(plan.Events, chaos.FleetEvent{
			At: 100 * time.Millisecond, Kind: chaos.FleetKill, Node: killIdx,
		})
	}
	if len(plan.Events) > 0 {
		if err := waitUntil(ctx, "victims own pending jobs", func() bool {
			for _, ev := range plan.Events {
				pend, _ := journal.PendingOn(ids[ev.Node])
				if len(pend) == 0 {
					return false
				}
			}
			return true
		}); err != nil {
			return err
		}
		plan.Run(ctx, func(ev chaos.FleetEvent) {
			switch ev.Kind {
			case chaos.FleetKill:
				pend, _ := journal.PendingOn(ids[ev.Node])
				log.Printf("fleet-smoke: CHAOS kill %s (%d pending jobs stranded)", ids[ev.Node], len(pend))
				_ = procs[ev.Node].Process.Kill()
			case chaos.FleetStall:
				alive, _ := fleet.Alive(membersDir)
				addr, ok := alive[ids[ev.Node]]
				if !ok {
					log.Printf("fleet-smoke: CHAOS stall target %s already unroutable", ids[ev.Node])
					return
				}
				log.Printf("fleet-smoke: CHAOS stall %s lease renewals for %s", ids[ev.Node], ev.Stall)
				body, _ := json.Marshal(map[string]int{"ms": int(ev.Stall / time.Millisecond)})
				resp, err := http.Post("http://"+addr+"/fleet/chaos/stall", "application/json", bytes.NewReader(body))
				if err != nil {
					log.Printf("fleet-smoke: stall injection failed: %v", err)
					return
				}
				resp.Body.Close()
			}
		})
	}

	wg.Wait()
	elapsed := time.Since(start)

	// ---- Assertions ----
	lost, failed := 0, 0
	var lats []float64
	for _, r := range results {
		switch r.state {
		case server.StateDone:
			lats = append(lats, float64(r.latency)/float64(time.Millisecond))
		case "":
			lost++
			log.Printf("fleet-smoke: job %s LOST: %s", r.key, r.errMsg)
		default:
			failed++
			log.Printf("fleet-smoke: job %s ended %s: %s", r.key, r.state, r.errMsg)
		}
	}
	if lost > 0 || failed > 0 {
		return fmt.Errorf("%d lost and %d failed of %d jobs", lost, failed, tenants)
	}

	sort.Float64s(lats)
	q := func(p float64) float64 { return lats[int(p*float64(len(lats)-1))] }
	p50, p99 := q(0.50), q(0.99)
	if time.Duration(p99)*time.Millisecond > p99Max {
		return fmt.Errorf("submit-to-deploy p99 %.0fms exceeds bound %s", p99, p99Max)
	}

	// At least one failover via lease steal must be on record.
	failovers, requeued := 0, 0
	alive, _ := fleet.Alive(membersDir)
	for _, addr := range alive {
		resp, err := http.Get("http://" + addr + "/fleet/stats")
		if err != nil {
			continue
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var st fleet.Stats
		if json.Unmarshal(data, &st) == nil {
			failovers += st.Failovers
			requeued += st.Requeued
		}
	}
	if len(plan.Events) > 0 && failovers == 0 {
		return fmt.Errorf("chaos fired %d events but no node recorded a failover lease steal", plan.Fired())
	}

	// The shared registry must pass CRC validation after the chaos.
	reg, err := registry.Open(filepath.Join(dir, "registry"))
	if err != nil {
		return fmt.Errorf("reopening registry: %w", err)
	}
	healthy, corrupt := reg.Verify()
	if len(corrupt) > 0 {
		return fmt.Errorf("registry CRC validation: %d corrupt entries: %v", len(corrupt), corrupt)
	}

	log.Printf("fleet-smoke: PASS: %d/%d jobs done in %s, 0 lost; failovers=%d (requeued %d); submit-to-deploy p50=%.0fms p99=%.0fms; registry %d healthy 0 corrupt",
		len(lats), tenants, elapsed.Round(time.Millisecond), failovers, requeued, p50, p99, healthy)
	return nil
}

// runTenant submits one keyed job and polls it to a terminal state,
// riding out dead nodes (retry against whoever is alive) and admission
// pushback (jittered backoff on 429).
func runTenant(ctx context.Context, membersDir string, i int) tenantResult {
	key := fmt.Sprintf("t%04d", i)
	res := tenantResult{key: key}
	rng := rand.New(rand.NewSource(int64(i)*7919 + 1))
	body, _ := json.Marshal(fleet.SubmitRequest{
		Key: key,
		Request: server.JobRequest{
			Tenant:   fmt.Sprintf("tenant-%02d", i%10),
			Workload: []string{"sysbench-ro", "sysbench-rw"}[i%2],
		},
	})
	start := time.Now()

	// Submit until some node accepts (or the record already exists).
	client := &http.Client{Timeout: 10 * time.Second}
	for submitted := false; !submitted; {
		if ctx.Err() != nil {
			res.errMsg = "submit: " + ctx.Err().Error()
			return res
		}
		addr, ok := pickNode(membersDir, rng)
		if !ok {
			time.Sleep(100 * time.Millisecond)
			continue
		}
		resp, err := client.Post("http://"+addr+"/fleet/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			time.Sleep(time.Duration(50+rng.Intn(100)) * time.Millisecond)
			continue
		}
		code := resp.StatusCode
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case code == http.StatusAccepted || code == http.StatusOK:
			submitted = true
		case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
			time.Sleep(time.Duration(100+rng.Intn(200)) * time.Millisecond)
		default:
			res.errMsg = fmt.Sprintf("submit: HTTP %d", code)
			return res
		}
	}

	// Poll the journal record to a terminal state.
	for {
		if ctx.Err() != nil {
			res.errMsg = "poll: " + ctx.Err().Error()
			return res
		}
		addr, ok := pickNode(membersDir, rng)
		if !ok {
			time.Sleep(100 * time.Millisecond)
			continue
		}
		resp, err := client.Get("http://" + addr + "/fleet/jobs/" + key)
		if err != nil {
			time.Sleep(time.Duration(50+rng.Intn(100)) * time.Millisecond)
			continue
		}
		var rec fleet.Record
		derr := json.NewDecoder(resp.Body).Decode(&rec)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || derr != nil {
			time.Sleep(100 * time.Millisecond)
			continue
		}
		if rec.Terminal() {
			res.state, res.errMsg, res.latency = rec.State, rec.Error, time.Since(start)
			return res
		}
		time.Sleep(time.Duration(50+rng.Intn(100)) * time.Millisecond)
	}
}

// pickNode returns a random live member's address.
func pickNode(membersDir string, rng *rand.Rand) (string, bool) {
	alive, err := fleet.Alive(membersDir)
	if err != nil || len(alive) == 0 {
		return "", false
	}
	addrs := make([]string, 0, len(alive))
	for _, a := range alive {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	return addrs[rng.Intn(len(addrs))], true
}

func waitUntil(ctx context.Context, what string, cond func() bool) error {
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	for {
		if cond() {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("timed out waiting for %s", what)
		case <-tick.C:
		}
	}
}
