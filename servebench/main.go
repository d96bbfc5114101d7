// Command servebench is the repository's end-to-end benchmark. It drives
// one of three serving workloads through the public entry points
// (server.Manager in-process, fleet nodes over loopback HTTP), checks the
// outputs, and prints every end-to-end metric, or with -trace 1 every
// per-layer metric, as the last line of its output:
//
//	servebench -workload tune-paper -seed 1 -seconds 45 -trace 0
//
// README.md in this directory describes the workloads and how to read
// the traced output. run.sh builds and runs it from a checkout.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cdbtune/internal/server"
)

// runLimit bounds one invocation, set-up and checks included.
const runLimit = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload: tune-paper, fleet-fast or drift-fast")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 45, "measurement budget in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		dir     = flag.String("dir", ".bench_build/servebench", "scratch directory for registries, traces and digests")
	)
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(name string, seed int64, budget time.Duration, traced bool, dir string) error {
	sp, ok := specs[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want tune-paper, fleet-fast or drift-fast)", name)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	work := filepath.Join(dir, "work")
	if err := os.RemoveAll(work); err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	// Digests and saved results are kept per build, so a run compares
	// only with earlier runs of the same code in this directory.
	build, err := buildID()
	if err != nil {
		return fmt.Errorf("identifying the build: %w", err)
	}
	kept := filepath.Join(dir, "builds", build)

	setupsBefore, err := measureSetups(sp.name, filepath.Join(work, "setup"))
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	p := newProbes(traced)
	var res *runResult
	switch sp.name {
	case "tune-paper":
		res, err = runClosed(ctx, work, server.Config{}, tunePaperRequests(seed), budget, p)
	case "drift-fast":
		res, err = runClosed(ctx, work, driftConfig(), driftFastRequests(seed), budget, p)
	case "fleet-fast":
		n := int(fleetRate * budget.Seconds())
		res, err = runFleet(ctx, filepath.Join(work, "fleet"), fleetFastJobs(seed, n), p)
	}
	if err != nil {
		return err
	}
	setupsAfter, err := measureSetups(sp.name, filepath.Join(work, "setup"))
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	res.setups = append(append(res.setups, setupsBefore...), setupsAfter...)
	db, reg, fs := p.db.snapshot(), p.reg.snapshot(), p.fs.snapshot()

	e2e, js := endToEnd(res, sp, db)
	var problems []string
	problems = append(problems, checkRun(res, js)...)
	if d := determinism(kept, sp.name, seed, res); d != "" {
		problems = append(problems, d)
	}
	for _, m := range e2e {
		if m.Value != m.Value { // NaN: a metric with no samples
			problems = append(problems, fmt.Sprintf("end-to-end metric %s has no samples", m.Name))
		}
	}

	fmt.Printf("servebench %s seed=%d budget=%s trace=%v: %d jobs in %d round(s), %.1f s wall\n",
		sp.name, seed, budget, traced, js.attempted, res.rounds, res.wall.Seconds())
	fmt.Printf("  jobs: %d done, %d failed (%d lost); failed_frac=%.4f; p90 has %d samples beyond it\n",
		js.done, js.failed, js.lost, frac(js.failed, js.attempted), beyond(js.lat, 0.9))
	for _, j := range res.jobs {
		if j.err != "" || (j.status.State != "" && !j.done()) {
			fmt.Printf("  job %s (%s): %s %s\n", j.key, j.id, j.status.State, firstNonEmpty(j.err, j.status.Error))
		}
	}
	fmt.Printf("  job latency quantiles (s): p10=%.4g p25=%.4g p50=%.4g p75=%.4g p90=%.4g p99=%.4g\n",
		quantile(js.lat, 0.1), quantile(js.lat, 0.25), quantile(js.lat, 0.5), quantile(js.lat, 0.75), quantile(js.lat, 0.9), quantile(js.lat, 0.99))
	printMetrics("end-to-end", e2e)

	out := output{Attempted: js.attempted, Failed: js.failed, Metrics: map[string]metric{}}
	if traced {
		kt := measureKernels(seed)
		spans := p.tr.snapshot()
		spans = append(spans, stageSpansOf(p.tr, res)...)
		resolveParents(spans)
		fleetRes, fleetSpans := res, spans
		if res.fleet == nil {
			fleetRes, fleetSpans, err = fleetProbe(ctx, filepath.Join(work, "probe"), seed)
			if err != nil {
				return fmt.Errorf("fleet probe: %w", err)
			}
			pjs := summarize(fleetRes.jobs)
			fmt.Printf("fleet probe: %d jobs at %.0f/s on %d nodes; %d done, %d failed (%d lost); %d failovers\n",
				pjs.attempted, fleetRate, fleetNodes, pjs.done, pjs.failed, pjs.lost, fleetRes.fleet.failovers)
			problems = append(problems, checkRun(fleetRes, pjs)...)
		}
		layers, notes := perLayer(layerInputs{
			res: res, spans: spans, db: db, reg: reg, fs: fs, kernel: kt,
			fleet: fleetRes, fleetSpans: fleetSpans,
		})
		printMetrics("per-layer", layers)
		for _, n := range notes {
			fmt.Println("  " + n)
		}
		printSelfTimes(spans, js.attempted)
		if a := tailAttribution(res.jobs); a != "" {
			fmt.Println(a)
		}
		if fleetRes != res {
			fmt.Println("fleet probe " + tailAttribution(fleetRes.jobs))
		}
		fmt.Print(timingTable(db, js.attempted, kt))
		printOverhead(kept, sp.name, seed, e2e)
		tracePath := filepath.Join(dir, "traces", sp.name+".jsonl.gz")
		err := os.MkdirAll(filepath.Dir(tracePath), 0o755)
		if err == nil {
			err = writeSpans(tracePath, spans)
		}
		if err != nil {
			fmt.Println("  trace not written:", err)
		} else {
			fmt.Printf("  %d spans written to %s\n", len(spans), tracePath)
		}
		for _, m := range layers {
			out.Metrics[m.Name] = m
		}
	} else {
		saveUntraced(kept, sp.name, seed, e2e)
		for _, m := range e2e {
			if m.Value != m.Value {
				m.Value = 0
			}
			out.Metrics[m.Name] = m
		}
	}
	for _, pr := range problems {
		fmt.Println("CHECK FAILED:", pr)
	}
	out.Correct = len(problems) == 0
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// driftConfig is drift-fast's session config: the fast fleet session with
// a diurnal timeline served after every tune (requests may name
// another).
func driftConfig() server.Config {
	cfg := fastConfig()
	cfg.Timeline = "diurnal24"
	return cfg
}

// setupRepeats is how many extra set-ups a run times before the workload
// and again after it, besides the workload's own, so setup_s is a median
// over samples spread across the run rather than one sample.
const setupRepeats = 100

// measureSetups starts and stops the workload's serving stack
// setupRepeats times on fresh directories and returns the start times.
func measureSetups(name, dir string) ([]time.Duration, error) {
	var out []time.Duration
	for i := 0; i < setupRepeats; i++ {
		d := filepath.Join(dir, fmt.Sprint(i))
		p := newProbes(false)
		t0 := time.Now()
		switch name {
		case "fleet-fast":
			fs, err := startFleet(d, p, newStageLog())
			if err != nil {
				return nil, err
			}
			out = append(out, time.Since(t0))
			fs.stop()
		default:
			base := server.Config{}
			if name == "drift-fast" {
				base = driftConfig()
			}
			cm, err := startManager(d, base, p, newStageLog())
			if err != nil {
				return nil, err
			}
			out = append(out, time.Since(t0))
			cm.m.Close()
		}
		if err := os.RemoveAll(d); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkRun applies the output checks every run must pass.
func checkRun(res *runResult, js jobStats) []string {
	var out []string
	if js.lost > 0 {
		out = append(out, fmt.Sprintf("%d of %d jobs never reached a terminal state (on a fleet: one the journal agrees with)", js.lost, js.attempted))
	}
	if res.verifyErr != "" {
		out = append(out, "registry audit: "+res.verifyErr)
	}
	for i, d := range res.digests {
		if d != res.digests[0] {
			out = append(out, fmt.Sprintf("round %d's outcome differs from round 0's on the same requests", i))
		}
	}
	if fc := res.fleet; fc != nil && fc.lateMax > fleetLateMax {
		out = append(out, fmt.Sprintf("invalid open-loop run: generator fell %s behind schedule (limit %s)", fc.lateMax, fleetLateMax))
	}
	return out
}

// fleetProbeJobs is the length of the fleet probe a traced in-process run
// makes, so the fleet layer is measured on every workload: ten seconds of
// fleet-fast's traffic.
const fleetProbeJobs = 80

func fleetProbe(ctx context.Context, dir string, seed int64) (*runResult, []span, error) {
	p := newProbes(true)
	res, err := runFleet(ctx, dir, fleetFastJobs(seed, fleetProbeJobs), p)
	if err != nil {
		return nil, nil, err
	}
	spans := append(p.tr.snapshot(), stageSpansOf(p.tr, res)...)
	resolveParents(spans)
	return res, spans, nil
}

// buildID names the running binary by a hash of its contents.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// determinism compares a closed-loop run's outcome with the first run of
// the same workload and seed in dir (one build's directory), recording it
// if none is there yet. It returns a problem, or "".
func determinism(dir, name string, seed int64, res *runResult) string {
	if len(res.digests) == 0 {
		return ""
	}
	path := filepath.Join(dir, "digests", fmt.Sprintf("%s-seed%d.txt", name, seed))
	prev, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if err := writeFile(path, []byte(res.digests[0])); err != nil {
			fmt.Println("  outcome digest not recorded:", err)
		}
		return ""
	}
	if err != nil {
		return fmt.Sprintf("reading %s: %v", path, err)
	}
	if string(prev) != res.digests[0] {
		return fmt.Sprintf("outcome differs from the earlier run of seed %d recorded in %s", seed, path)
	}
	return ""
}

// stageSpansOf builds the run's stage spans, plus on a fleet run each
// job's submit call (an in-process submit is the admit stage itself).
func stageSpansOf(t *tracer, res *runResult) []span {
	var out []span
	for _, j := range res.jobs {
		if len(j.stages) > 0 {
			out = append(out, stageSpans(t, j.node, j.key, j.sent, j.stages)...)
		}
		if res.fleet != nil && !j.accepted.IsZero() {
			out = append(out, span{Layer: layerFleet, Name: "submit", Node: j.node, Job: j.key,
				Start: t.ns(j.sent), End: t.ns(j.accepted), Parent: -1})
		}
	}
	return out
}

func printMetrics(title string, ms metricSet) {
	fmt.Printf("%s metrics:\n", title)
	for _, m := range ms {
		fmt.Printf("  %-36s %16.6g %s\n", m.Name, m.Value, m.Unit)
	}
}

func printSelfTimes(spans []span, jobs int) {
	self := selfTimes(spans)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Printf("self time per layer (ms per job, %d jobs):", jobs)
	for _, l := range layers {
		fmt.Printf(" %s=%.2f", l, ms(self[l])/float64(max(jobs, 1)))
	}
	fmt.Println()
}

func resultPath(dir, name string, seed int64) string {
	return filepath.Join(dir, "results", fmt.Sprintf("%s-seed%d.json", name, seed))
}

// saveUntraced keeps an untraced run's end-to-end metrics so a traced run
// of the same seed can report the tracing overhead.
func saveUntraced(dir, name string, seed int64, e2e metricSet) {
	vals := make(map[string]float64, len(e2e))
	for _, m := range e2e {
		if m.Value == m.Value {
			vals[m.Name] = m.Value
		}
	}
	data, err := json.Marshal(vals)
	if err != nil {
		return
	}
	if err := writeFile(resultPath(dir, name, seed), data); err != nil {
		fmt.Println("  untraced result not recorded:", err)
	}
}

// writeFile writes data to path, creating its directory.
func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printOverhead reports the traced run's end-to-end metrics against the
// last untraced run of the same workload and seed.
func printOverhead(dir, name string, seed int64, traced metricSet) {
	data, err := os.ReadFile(resultPath(dir, name, seed))
	var base map[string]float64
	if err == nil {
		err = json.Unmarshal(data, &base)
	}
	if err != nil {
		fmt.Printf("tracing overhead: no untraced run of %s seed %d recorded; run with -trace 0 first\n", name, seed)
		return
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "tracing overhead (traced vs untraced, seed %d):", seed)
	for _, m := range traced {
		b, ok := base[m.Name]
		if !ok || b == 0 {
			continue
		}
		fmt.Fprintf(&sb, " %s %+.1f%%", m.Name, 100*(m.Value/b-1))
	}
	fmt.Println(sb.String())
}

func firstNonEmpty(s ...string) string {
	for _, v := range s {
		if v != "" {
			return v
		}
	}
	return ""
}
