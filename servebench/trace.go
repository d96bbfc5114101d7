package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Layer names used on spans; they match the repo's module names.
const (
	layerServer   = "server"
	layerFleet    = "fleet"
	layerRegistry = "registry"
	layerEnv      = "env"
	layerVFS      = "vfs"
)

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the tracer's origin. Parent is the index of the
// innermost span of an enclosing layer on the same node (-1 = none),
// assigned after the run by resolveParents; Job is the job the span was
// recorded for, or the job of its stage parent.
type span struct {
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Node   string `json:"node"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil or disabled
// tracer records nothing, so the untraced run pays one branch per call.
type tracer struct {
	on     bool
	origin time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.origin).Nanoseconds() }

func (t *tracer) record(layer, name, node, job string, start, end time.Time) {
	if t == nil || !t.on {
		return
	}
	s := span{Layer: layer, Name: name, Node: node, Job: job, Start: t.ns(start), End: t.ns(end), Parent: -1}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// stageEvent is one pipeline stage boundary: the server logs one line per
// session event, and the benchmark stamps it as it arrives.
type stageEvent struct {
	Stage string
	At    time.Time
}

// stageLog collects every session's stage boundaries through the
// server.Config.Logf hook and wakes waiters when a job turns terminal.
type stageLog struct {
	mu     sync.Mutex
	events map[string][]stageEvent
	done   map[string]chan struct{}
}

func newStageLog() *stageLog {
	return &stageLog{events: make(map[string][]stageEvent), done: make(map[string]chan struct{})}
}

// logf is a server.Config.Logf: the manager reports each session event as
// Logf("server: %s [%s] %s", jobID, stage, message). Any other line is
// dropped.
func (l *stageLog) logf(format string, args ...any) {
	if format != "server: %s [%s] %s" || len(args) < 2 {
		return
	}
	id, ok1 := args[0].(string)
	stage, ok2 := args[1].(string)
	if !ok1 || !ok2 {
		return
	}
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events[id] = append(l.events[id], stageEvent{Stage: stage, At: now})
	if terminalStage(stage) {
		close(l.chanLocked(id))
	}
}

func terminalStage(stage string) bool {
	return stage == "done" || stage == "failed" || stage == "canceled"
}

func (l *stageLog) chanLocked(id string) chan struct{} {
	ch, ok := l.done[id]
	if !ok {
		ch = make(chan struct{})
		l.done[id] = ch
	}
	return ch
}

// terminated returns a channel closed once job id reaches a terminal
// stage (already closed if it has).
func (l *stageLog) terminated(id string) <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.chanLocked(id)
}

// of returns a copy of job id's stage boundaries in arrival order.
func (l *stageLog) of(id string) []stageEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]stageEvent(nil), l.events[id]...)
}

// stageName maps the event that closes an interval to the pipeline stage
// the interval belongs to: "start" closes the queue wait, probes are part
// of training, and drift/retune/revert/crash events are part of the
// dynamic window. It returns "" for an interval no stage owns: the one a
// terminal event closes (the session's bookkeeping after its last stage)
// and one closed by an event the benchmark does not know.
func stageName(closing string) string {
	switch closing {
	case "queued":
		return "admit"
	case "start":
		return "queue"
	case "fingerprint", "match", "train", "tune", "registry", "dynamic":
		return closing
	case "probe":
		return "train"
	case "drift", "retune", "revert", "crash":
		return "dynamic"
	}
	return ""
}

// stageSpans turns a job's consecutive stage boundaries into stage spans,
// the first one opening at from (the submit call's start). Intervals no
// stage owns get no span.
func stageSpans(t *tracer, node, job string, from time.Time, evs []stageEvent) []span {
	out := make([]span, 0, len(evs))
	prev := from
	for _, e := range evs {
		if name := stageName(e.Stage); name != "" {
			out = append(out, span{
				Layer: layerServer, Name: name, Node: node, Job: job,
				Start: t.ns(prev), End: t.ns(e.At), Parent: -1,
			})
		}
		prev = e.At
	}
	return out
}

// stageTotals sums a job's stage time per stage name, leaving out the
// intervals no stage owns.
func stageTotals(evs []stageEvent, from time.Time) map[string]time.Duration {
	out := make(map[string]time.Duration)
	prev := from
	for _, e := range evs {
		if name := stageName(e.Stage); name != "" {
			out[name] += e.At.Sub(prev)
		}
		prev = e.At
	}
	return out
}

// unattributed is the part of a job's wall time, from its due time to
// its end, that no stage covers.
func (j *jobRec) unattributed() time.Duration {
	d := j.latency()
	for _, s := range stageTotals(j.stages, j.sent) {
		d -= s
	}
	return d
}

// parentLayers lists, for each child layer, the layers whose spans may
// enclose it, innermost first.
var parentLayers = map[string][]string{
	layerVFS:      {layerRegistry, layerServer},
	layerRegistry: {layerServer},
	layerEnv:      {layerServer},
}

// resolveParents assigns every span the innermost enclosing span of a
// parent layer on the same node, sweeping spans in start order with the
// set of open candidates. Under concurrency (several sessions on one
// node) the innermost enclosing span wins, which can pick a concurrent
// session's stage; closed-loop single-client runs are exact.
func resolveParents(spans []span) {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.dur() > sb.dur() // an enclosing span opens first
	})
	open := make(map[string][]int) // node → candidate parent indices
	for _, i := range order {
		s := &spans[i]
		live := open[s.Node][:0]
		for _, p := range open[s.Node] {
			if spans[p].End > s.Start {
				live = append(live, p)
			}
		}
		open[s.Node] = live
		best := -1
		for _, layer := range parentLayers[s.Layer] {
			for _, p := range live {
				ps := spans[p]
				if ps.Layer != layer || ps.End < s.End {
					continue
				}
				if best < 0 || ps.dur() < spans[best].dur() {
					best = p
				}
			}
			if best >= 0 {
				break
			}
		}
		s.Parent = best
		if best >= 0 && s.Job == "" {
			s.Job = spans[best].Job
		}
		if s.Layer == layerServer || s.Layer == layerRegistry {
			open[s.Node] = append(open[s.Node], i)
		}
	}
}

// selfTimes returns, per layer, the summed span time not covered by the
// span's children.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Layer] += time.Duration(s.dur() - covered(kids[i]))
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := append([]span(nil), spans...)
	sort.Slice(iv, func(a, b int) bool { return iv[a].Start < iv[b].Start })
	total, curS, curE := int64(0), iv[0].Start, iv[0].End
	for _, s := range iv[1:] {
		if s.Start > curE {
			total += curE - curS
			curS, curE = s.Start, s.End
			continue
		}
		if s.End > curE {
			curE = s.End
		}
	}
	return total + curE - curS
}

// writeSpans writes one JSON span per line, gzip-compressed.
func writeSpans(path string, spans []span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return zw.Close()
}
