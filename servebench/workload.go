package main

import (
	"fmt"
	"math/rand"
	"time"

	"cdbtune/internal/core"
	"cdbtune/internal/knobs"
	"cdbtune/internal/metrics"
	"cdbtune/internal/rl/ddpg"
	"cdbtune/internal/server"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// spec is one benchmark workload: how its requests are generated and
// which latency limit its slo_frac counts against.
type spec struct {
	name string
	// slo is the fixed latency limit behind slo_frac. It is set far from
	// any job time the seed produces, so the fraction moves only when the
	// program does.
	slo time.Duration
}

var specs = map[string]spec{
	// The scratch jobs take over a second and the warm ones about a
	// tenth of that; the limit sits between the two populations, a
	// factor of three from each, so machine speed does not move jobs
	// across it.
	"tune-paper": {name: "tune-paper", slo: 400 * time.Millisecond},
	// About thirty times the fleet's median job time, from due time to a
	// deployed configuration: a job over it waited on coordination (lease
	// handoff, the queue behind it), not on its own work.
	"fleet-fast": {name: "fleet-fast", slo: time.Second},
	// A quiet host finishes 99% of drift-fast jobs within 20 ms, and the
	// host's speed has been seen to swing twofold between runs; 2.5 times
	// that p99 keeps slow spells under the limit, so the fraction moves
	// when a change stretches the tail, not with the host.
	"drift-fast": {name: "drift-fast", slo: 50 * time.Millisecond},
}

// Fleet traffic shape: the offered rate, and how far behind its schedule
// the generator may fall before the run is reported invalid.
const (
	fleetRate     = 8.0 // jobs per second
	fleetTenants  = 40
	fleetLateMax  = 250 * time.Millisecond
	fleetLeaseTTL = 500 * time.Millisecond
	fleetDrain    = 60 * time.Second
)

// class is one (workload, instance) pair.
type class struct{ workload, instance string }

func (c class) String() string { return c.workload + "/" + c.instance }

// allClasses are the 30 workload×instance classes.
func allClasses() []class {
	var out []class
	for _, w := range workload.All() {
		for _, in := range simdb.Table1() {
			out = append(out, class{w.Name, in.Name})
		}
	}
	return out
}

// paperClasses are tune-paper's scratch classes: distinct workloads on
// distinct instances, far enough apart in fingerprint space that none
// warm-starts from another, so every seed trains the same scratch set
// and the scratch phase does the same GEMM work whatever the seed.
var paperClasses = []class{
	{"sysbench-rw", "CDB-A"},
	{"tpcc", "CDB-C"},
	{"ycsb", "CDB-E"},
}

// tunePaperRequests is one round of tune-paper: every class once on the
// scratch path in canonical order, then three or four warm requests per
// class (the seed picks which, the same for every class, so the class mix
// stays balanced) in a seeded order. The seed also draws the tenants and
// every request's user-instance seed.
func tunePaperRequests(seed int64) []server.JobRequest {
	rng := rand.New(rand.NewSource(seed))
	var out []server.JobRequest
	req := func(c class) server.JobRequest {
		return server.JobRequest{
			Tenant:   fmt.Sprintf("tenant-%02d", rng.Intn(16)),
			Workload: c.workload, Instance: c.instance,
			Seed: 1 + rng.Int63n(1<<40),
		}
	}
	for _, c := range paperClasses {
		out = append(out, req(c))
	}
	repeats := 3 + rng.Intn(2)
	var warm []class
	for _, c := range paperClasses {
		for i := 0; i < repeats; i++ {
			warm = append(warm, c)
		}
	}
	rng.Shuffle(len(warm), func(i, j int) { warm[i], warm[j] = warm[j], warm[i] })
	for _, c := range warm {
		out = append(out, req(c))
	}
	return out
}

// driftFastRequests is one round of drift-fast: every one of the 30
// classes once, in a seeded order, half of them serving each timeline
// after the tune. Covering every class in every round keeps the class
// mix, and so the work, the same for every seed; most requests take the
// warm path because the fast config's match radius groups the classes.
func driftFastRequests(seed int64) []server.JobRequest {
	rng := rand.New(rand.NewSource(seed))
	all := allClasses()
	timelines := workload.Timelines()
	out := make([]server.JobRequest, len(all))
	for i, j := range rng.Perm(len(all)) {
		c := all[j]
		out[i] = server.JobRequest{
			Tenant:   fmt.Sprintf("tenant-%02d", rng.Intn(16)),
			Workload: c.workload, Instance: c.instance,
			Seed:     1 + rng.Int63n(1<<40),
			Timeline: timelines[j%len(timelines)],
		}
	}
	return out
}

// fleetJob is one open-loop fleet submission.
type fleetJob struct {
	key string
	due time.Duration // offset from the run's start
	req server.JobRequest
}

// fleetFastJobs is fleet-fast's schedule: n keyed jobs at fleetRate,
// cycling through the 30 classes in seeded blocks (each block of 30
// covers every class once), from fleetTenants tenants.
func fleetFastJobs(seed int64, n int) []fleetJob {
	rng := rand.New(rand.NewSource(seed))
	all := allClasses()
	var order []int
	out := make([]fleetJob, n)
	for i := range out {
		if len(order) == 0 {
			order = rng.Perm(len(all))
		}
		c := all[order[0]]
		order = order[1:]
		out[i] = fleetJob{
			key: fmt.Sprintf("s%d-j%05d", seed, i),
			due: time.Duration(float64(i) / fleetRate * float64(time.Second)),
			req: server.JobRequest{
				Tenant:   fmt.Sprintf("tenant-%02d", rng.Intn(fleetTenants)),
				Workload: c.workload, Instance: c.instance,
				Seed: 1 + rng.Int63n(1<<40),
			},
		}
	}
	return out
}

// fastConfig mirrors cmd/loadgen's session config (an 8-knob subset,
// small networks, short episodes).
func fastConfig() server.Config {
	full := knobs.MySQL(knobs.EngineCDB)
	idx := make([]int, 8)
	for i := range idx {
		idx[i] = i
	}
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
		Catalog:             full.Subset(idx),
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
	}
}
