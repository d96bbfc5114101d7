package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"cdbtune/internal/server"
)

// metric is one reported number.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics in report order.
type metricSet []metric

func (ms *metricSet) add(name, unit string, v float64) { *ms = append(*ms, metric{name, v, unit}) }

// jobStats is the job-level view every metric is computed from.
type jobStats struct {
	attempted, done, failed, lost int
	lat, scratch, warm            []float64 // seconds, done jobs
	scratchEpisodes               int
	scratchTrain                  time.Duration
	improvements                  []float64
}

func summarize(jobs []*jobRec) jobStats {
	var s jobStats
	s.attempted = len(jobs)
	for _, j := range jobs {
		switch {
		case j.status.State == "":
			s.lost++
			s.failed++
			continue
		case !j.done():
			s.failed++
			continue
		}
		s.done++
		l := j.latency().Seconds()
		s.lat = append(s.lat, l)
		s.improvements = append(s.improvements, j.status.Improvement)
		if j.status.Path == server.PathScratch {
			s.scratch = append(s.scratch, l)
			s.scratchEpisodes += j.status.Episodes
			s.scratchTrain += stageTotals(j.stages, j.sent)["train"]
		} else {
			s.warm = append(s.warm, l)
		}
	}
	return s
}

// blockJobs is the smallest block the timing metrics are computed over.
const blockJobs = 100

// blocks groups a run's jobs into consecutive whole rounds of at least
// blockJobs jobs each; the last partial group joins the block before it.
// A run with fewer than two blocks' worth of jobs is one block.
func blocks(jobs []*jobRec) [][]*jobRec {
	var out [][]*jobRec
	var cur []*jobRec
	for i, j := range jobs {
		cur = append(cur, j)
		roundEnds := i+1 == len(jobs) || jobs[i+1].round != j.round
		if roundEnds && len(cur) >= blockJobs {
			out = append(out, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		if len(out) == 0 {
			return [][]*jobRec{cur}
		}
		out[len(out)-1] = append(out[len(out)-1], cur...)
	}
	return out
}

// blockMedian evaluates stat on every block and returns the median: a
// slow spell in a shared machine moves a few blocks, not the result.
func blockMedian(bs []jobStats, stat func(jobStats) float64) float64 {
	vals := make([]float64, 0, len(bs))
	for _, b := range bs {
		if v := stat(b); !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	return median(vals)
}

// endToEnd computes the user-visible metrics of a run. Timings are the
// median over blocks of at least blockJobs jobs of the block's statistic
// (one block when the run has fewer than 2·blockJobs jobs); fractions and
// means are over the whole run.
func endToEnd(res *runResult, sp spec, db dbCounts) (metricSet, jobStats) {
	s := summarize(res.jobs)
	var bs []jobStats
	for _, b := range blocks(res.jobs) {
		bs = append(bs, summarize(b))
	}
	within := 0
	for _, j := range res.jobs {
		if j.done() && j.latency() <= sp.slo {
			within++
		}
	}
	setups := make([]float64, len(res.setups))
	for i, d := range res.setups {
		setups[i] = d.Seconds()
	}
	var m metricSet
	m.add("setup_s", "s", median(setups))
	m.add("job_p50_s", "s", blockMedian(bs, func(b jobStats) float64 { return median(b.lat) }))
	m.add("job_p90_s", "s", blockMedian(bs, func(b jobStats) float64 { return quantile(b.lat, 0.9) }))
	m.add("scratch_job_s", "s", blockMedian(bs, func(b jobStats) float64 { return median(b.scratch) }))
	m.add("warm_job_s", "s", blockMedian(bs, func(b jobStats) float64 { return median(b.warm) }))
	m.add("episodes_per_s", "1/s", blockMedian(bs, func(b jobStats) float64 {
		return ratio(float64(b.scratchEpisodes), b.scratchTrain.Seconds())
	}))
	m.add("slo_frac", "fraction", frac(within, s.attempted))
	m.add("done_frac", "fraction", frac(s.done, s.attempted))
	m.add("improvement", "ratio", mean(s.improvements))
	m.add("virtual_h_per_job", "h", float64(db.virtualUs)/1e6/3600/float64(max(s.attempted, 1)))
	return m, s
}

// stageBusy is, over a run's done jobs, each stage's wall time and the
// part of it the env and vfs layers below were busy, from the span tree.
type stageBusy struct {
	wall, env, fs map[string]float64 // ns, by stage name
	count         map[string]int     // stage spans, by stage name
	// trainWall, trainEnv and trainEp split the train stage by path:
	// [0] scratch, [1] warm.
	trainWall, trainEnv, trainEp [2]float64
}

func busyByStage(jobs []*jobRec, spans []span) stageBusy {
	b := stageBusy{wall: map[string]float64{}, env: map[string]float64{}, fs: map[string]float64{}, count: map[string]int{}}
	byKey := make(map[string]*jobRec, len(jobs))
	for _, j := range jobs {
		byKey[j.key] = j
	}
	stageOf := func(i int) int {
		for i >= 0 && spans[i].Layer != layerServer {
			i = spans[i].Parent
		}
		return i
	}
	envIn := make(map[int][]span)
	fsIn := make(map[int][]span)
	for _, sp := range spans {
		if sp.Layer != layerEnv && sp.Layer != layerVFS {
			continue
		}
		st := stageOf(sp.Parent)
		switch {
		case st < 0:
		case sp.Layer == layerEnv:
			envIn[st] = append(envIn[st], sp)
		default:
			fsIn[st] = append(fsIn[st], sp)
		}
	}
	for i, sp := range spans {
		j := byKey[sp.Job]
		if sp.Layer != layerServer || j == nil || !j.done() {
			continue
		}
		env, fs := float64(covered(envIn[i])), float64(covered(fsIn[i]))
		b.wall[sp.Name] += float64(sp.dur())
		b.env[sp.Name] += env
		b.fs[sp.Name] += fs
		b.count[sp.Name]++
		if sp.Name == "train" {
			k := pathIndex(j)
			b.trainWall[k] += float64(sp.dur())
			b.trainEnv[k] += env
		}
	}
	for _, j := range jobs {
		if j.done() {
			b.trainEp[pathIndex(j)] += float64(j.status.Episodes)
		}
	}
	return b
}

func pathIndex(j *jobRec) int {
	if j.status.Path == server.PathWarm {
		return 1
	}
	return 0
}

// leaseWaitMs is the registry stage's time not spent in the filesystem,
// per registry stage: on a fleet, mostly waiting for the write lease.
func (b stageBusy) leaseWaitMs() float64 {
	return ratio(b.wall["registry"]-b.fs["registry"], float64(b.count["registry"])) / 1e6
}

// layerInputs is what the per-layer metrics are computed from: the
// workload's run, and the fleet run behind the fleet metrics (the
// workload itself on fleet-fast, the fleet probe otherwise).
type layerInputs struct {
	res    *runResult
	spans  []span
	db     dbCounts
	reg    regCounts
	fs     fsCounts
	kernel kernelTimes

	fleet      *runResult
	fleetSpans []span
}

// perLayer computes the traced run's layer metrics.
func perLayer(in layerInputs) (metricSet, []string) {
	var notes []string
	res := in.res
	s := summarize(res.jobs)
	b := busyByStage(res.jobs, in.spans)

	var episodes, drifts, retunes, reverts, warmN float64
	var sessionWall, jobWall, uncovered time.Duration
	for _, j := range res.jobs {
		if !j.done() || len(j.stages) == 0 {
			continue
		}
		episodes += float64(j.status.Episodes)
		drifts += float64(j.status.Drifts)
		retunes += float64(j.status.Retunes)
		reverts += float64(j.status.Reverts)
		warmN += float64(pathIndex(j))
		first, last := j.stages[0].At, j.stages[len(j.stages)-1].At
		for _, e := range j.stages {
			if e.Stage == "start" {
				first = e.At
			}
		}
		sessionWall += last.Sub(first)
		jobWall += j.latency()
		uncovered += j.unattributed()
	}
	done := float64(max(s.done, 1))
	perDone := func(stage string) float64 { return b.wall[stage] / 1e6 / done }
	nsToMs := func(ns float64) float64 { return ns / 1e6 }

	var m metricSet
	m.add("mat.gemm_gflops", "GFLOP/s", in.kernel.gemmGflops)
	m.add("ddpg.train_step_ms", "ms", in.kernel.trainStepMs)
	m.add("ddpg.act_ms", "ms", in.kernel.actMs)

	m.add("core.model_ms_per_episode_scratch", "ms", nsToMs(ratio(b.trainWall[0]-b.trainEnv[0], b.trainEp[0])))
	m.add("core.model_ms_per_episode_warm", "ms", nsToMs(ratio(b.trainWall[1]-b.trainEnv[1], b.trainEp[1])))
	m.add("core.env_ms_per_episode", "ms", nsToMs(ratio(b.trainEnv[0]+b.trainEnv[1], b.trainEp[0]+b.trainEp[1])))
	m.add("core.drifts_per_job", "count", drifts/done)
	m.add("core.retunes_per_job", "count", retunes/done)
	m.add("core.reverts_per_job", "count", reverts/done)

	att := float64(max(s.attempted, 1))
	m.add("env.stress_tests_per_job", "count", float64(in.db.runs)/att)
	m.add("env.deploys_per_job", "count", float64(in.db.deploys)/att)
	m.add("env.restarts_per_job", "count", float64(in.db.restarts)/att)
	m.add("simdb.run_us", "us", ratio(float64(in.db.runBusy.Microseconds()), float64(in.db.runs)))
	m.add("simdb.busy_frac", "fraction", ratio((in.db.runBusy+in.db.applyBusy).Seconds(), sessionWall.Seconds()))

	m.add("server.queue_wait_ms", "ms", perDone("queue"))
	m.add("server.fingerprint_ms", "ms", perDone("fingerprint"))
	m.add("server.match_ms", "ms", perDone("match"))
	m.add("server.train_ms", "ms", perDone("train"))
	m.add("server.tune_ms", "ms", perDone("tune"))
	m.add("server.registry_ms", "ms", perDone("registry"))
	m.add("server.warm_frac", "fraction", warmN/done)
	m.add("server.episodes_per_job", "count", episodes/done)
	unattributed := ratio(uncovered.Seconds(), jobWall.Seconds())
	m.add("server.unattributed_frac", "fraction", unattributed)
	if unattributed > 0.10 {
		notes = append(notes, fmt.Sprintf("FINDING: %.1f%% of job wall time is covered by no stage span", 100*unattributed))
	}

	if res.fleet == nil {
		m.add("registry.nearest_ms", "ms", ms(in.reg.nearestBusy)/float64(max(in.reg.nearest, 1)))
		m.add("registry.put_ms", "ms", ms(in.reg.putBusy)/float64(max(in.reg.puts, 1)))
		m.add("registry.put_bytes", "B", float64(in.reg.putBytes)/float64(max(in.reg.puts, 1)))
	} else {
		// A fleet node owns its registry.Store, so the registry calls are
		// timed by the stages that make them: match (nearest) and
		// registry (put), and their bytes by the filesystem beneath.
		m.add("registry.nearest_ms", "ms", perDone("match"))
		m.add("registry.put_ms", "ms", nsToMs(ratio(b.wall["registry"], float64(b.count["registry"]))))
		m.add("registry.put_bytes", "B", ratio(float64(in.fs.writeBytes), float64(b.count["registry"])))
	}
	m.add("registry.lease_wait_ms", "ms", b.leaseWaitMs())
	m.add("registry.entries", "count", float64(res.entries))

	m.add("vfs.syncs_per_job", "count", float64(in.fs.syncs)/att)
	m.add("vfs.sync_ms", "ms", ms(in.fs.syncBusy)/float64(max(in.fs.syncs, 1)))
	m.add("vfs.write_bytes_per_job", "B", float64(in.fs.writeBytes)/att)
	m.add("vfs.renames_per_job", "count", float64(in.fs.renames)/att)

	m = append(m, fleetMetrics(in.fleet, in.fleetSpans)...)
	for i := range m {
		if math.IsNaN(m[i].Value) || math.IsInf(m[i].Value, 0) {
			notes = append(notes, fmt.Sprintf("%s not measured on this run (no samples); reported as 0", m[i].Name))
			m[i].Value = 0
		}
	}
	return m, notes
}

// fleetMetrics are the fleet layer's numbers from an open-loop fleet run.
func fleetMetrics(res *runResult, spans []span) metricSet {
	fc := res.fleet
	s := summarize(res.jobs)
	b := busyByStage(res.jobs, spans)
	within := 0
	for _, j := range res.jobs {
		if j.done() && j.latency() <= specs["fleet-fast"].slo {
			within++
		}
	}
	var m metricSet
	m.add("fleet.submit_ms", "ms", median(fc.submitMs))
	m.add("fleet.forwarded_frac", "fraction", frac(fc.forwarded, max(fc.submitted, 1)))
	m.add("fleet.lease_steals", "count", float64(fc.leaseSteal))
	m.add("fleet.retries_429", "count", float64(fc.retries429))
	m.add("fleet.gen_late_ms", "ms", ms(fc.lateMax))
	m.add("fleet.job_p90_s", "s", quantile(s.lat, 0.9))
	m.add("fleet.slo_frac", "fraction", frac(within, s.attempted))
	m.add("fleet.registry_ms", "ms", ratio(b.wall["registry"], float64(max(s.done, 1)))/1e6)
	m.add("fleet.lease_wait_ms", "ms", b.leaseWaitMs())
	return m
}

// tailAttribution names the stage that dominates the slowest tenth of
// done jobs: their mean time per stage, largest first.
func tailAttribution(jobs []*jobRec) string {
	var lat []float64
	for _, j := range jobs {
		if j.done() {
			lat = append(lat, j.latency().Seconds())
		}
	}
	if len(lat) == 0 {
		return ""
	}
	cut := quantile(lat, 0.9)
	sum := make(map[string]time.Duration)
	var n int
	var total time.Duration
	for _, j := range jobs {
		if !j.done() || j.latency().Seconds() < cut {
			continue
		}
		n++
		total += j.latency()
		for name, d := range stageTotals(j.stages, j.sent) {
			sum[name] += d
		}
	}
	names := make([]string, 0, len(sum))
	for name := range sum {
		names = append(names, name)
	}
	sort.Slice(names, func(a, b int) bool { return sum[names[a]] > sum[names[b]] })
	var sb strings.Builder
	fmt.Fprintf(&sb, "job_p90 attribution: %d jobs at or above p90 (%.3f s); mean per stage:", n, cut)
	for _, name := range names {
		fmt.Fprintf(&sb, " %s=%.0fms(%.0f%%)", name, ms(sum[name])/float64(n), 100*sum[name].Seconds()/total.Seconds())
	}
	if len(names) > 0 {
		fmt.Fprintf(&sb, "\n  tail dominated by stage %q", names[0])
	}
	return sb.String()
}
