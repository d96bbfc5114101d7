package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"cdbtune/internal/core"
	"cdbtune/internal/knobs"
	"cdbtune/internal/mat"
	"cdbtune/internal/metrics"
	"cdbtune/internal/rl"
	"cdbtune/internal/rl/ddpg"
	"cdbtune/internal/simdb"
)

// kernelTimes are the bottom layers timed by direct calls at the paper's
// shapes: 63 internal metrics in, 266 CDB knobs out, the Table 5
// network.
type kernelTimes struct {
	gemmGflops  float64
	trainStepMs float64
	actMs       float64
	updatesPer  int // gradient updates per tuning step (core.DefaultConfig)
}

// GEMM shape: one batch of 64 through a 256-wide critic hidden layer.
const gemmM, gemmK, gemmN = 64, 256, 256

// measureKernels times mat.Mul, ddpg.Agent.TrainStepInfo and
// ddpg.Agent.Act, reporting the median of each.
func measureKernels(seed int64) kernelTimes {
	rng := rand.New(rand.NewSource(seed))
	fill := func(m *mat.Matrix) *mat.Matrix {
		for i := range m.Data {
			m.Data[i] = rng.Float64() - 0.5
		}
		return m
	}
	a, b, dst := fill(mat.New(gemmM, gemmK)), fill(mat.New(gemmK, gemmN)), mat.New(gemmM, gemmN)
	gemm := timeEach(200, func() { mat.Mul(dst, a, b) })
	flops := 2.0 * gemmM * gemmK * gemmN

	cat := knobs.MySQL(knobs.EngineCDB)
	agent := ddpg.New(ddpg.DefaultConfig(metrics.NumMetrics, cat.Len()))
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	for i := 0; i < 256; i++ {
		agent.Observe(rl.Transition{
			State: vec(metrics.NumMetrics), Action: vec(cat.Len()),
			Reward: rng.NormFloat64(), NextState: vec(metrics.NumMetrics),
		})
	}
	train := timeEach(20, func() {
		if _, ok := agent.TrainStepInfo(); !ok {
			panic("replay memory below MinMemory after 256 observations")
		}
	})
	state := vec(metrics.NumMetrics)
	act := timeEach(200, func() { agent.Act(state) })

	return kernelTimes{
		gemmGflops:  flops / gemm.Seconds() / 1e9,
		trainStepMs: ms(train),
		actMs:       ms(act),
		updatesPer:  core.DefaultConfig(cat).UpdatesPerStep,
	}
}

// timeEach runs fn a few times to warm up, then n times, and returns the
// median single-call time.
func timeEach(n int, fn func()) time.Duration {
	for i := 0; i < 3; i++ {
		fn()
	}
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// paper511 are the §5.1.1 per-step costs the paper reports.
var paper511 = struct {
	stressSec, deploySec, restartSec, updateMs, recommendMs float64
}{152.88, 16.68, 120, 28.76, 2.16}

// timingTable renders the measured §5.1.1 breakdown beside the paper's
// values: virtual seconds per stress test, deploy and restart from the
// database wrapper's counts, and the measured model update and
// recommendation times.
func timingTable(db dbCounts, jobs int, kt kernelTimes) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "§5.1.1 per-step costs, measured vs paper (%d jobs)\n", jobs)
	fmt.Fprintf(&sb, "  %-26s %14s %14s %14s\n", "stage", "paper", "measured", "per job")
	stressVirtual := float64(db.virtualUs)/1e6 - float64(db.deploys)*simdb.DeploySec - float64(db.restarts)*simdb.RestartSec
	row := func(name, paper, measured, perJob string) {
		fmt.Fprintf(&sb, "  %-26s %14s %14s %14s\n", name, paper, measured, perJob)
	}
	perJob := func(v float64) string { return fmt.Sprintf("%.1f", v/float64(max(jobs, 1))) }
	row("stress test (virtual)", fmt.Sprintf("%.2f s", paper511.stressSec),
		fmt.Sprintf("%.2f s", ratio(stressVirtual, float64(db.runs))), perJob(float64(db.runs))+" tests")
	row("deployment (virtual)", fmt.Sprintf("%.2f s", paper511.deploySec), fmt.Sprintf("%.2f s", simdb.DeploySec), perJob(float64(db.deploys))+" deploys")
	row("restart (virtual)", fmt.Sprintf("%.0f s", paper511.restartSec), fmt.Sprintf("%.0f s", float64(simdb.RestartSec)), perJob(float64(db.restarts))+" restarts")
	row("model update (wall)", fmt.Sprintf("%.2f ms", paper511.updateMs),
		fmt.Sprintf("%.2f ms", kt.trainStepMs*float64(kt.updatesPer)), fmt.Sprintf("%d x %.2f ms", kt.updatesPer, kt.trainStepMs))
	row("recommendation (wall)", fmt.Sprintf("%.2f ms", paper511.recommendMs), fmt.Sprintf("%.3f ms", kt.actMs), "")
	return sb.String()
}
