package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/registry"
	"cdbtune/internal/server"
	"cdbtune/internal/simdb"
	"cdbtune/internal/vfs"
	"cdbtune/internal/workload"
)

// miniRequests is a seeded mini-run: two classes, the second request of
// each on the warm path, one with a dynamic window.
func miniRequests() []server.JobRequest {
	return []server.JobRequest{
		{Workload: "sysbench-rw", Instance: "CDB-A", Seed: 5},
		{Workload: "tpcc", Instance: "CDB-C", Seed: 6},
		{Workload: "sysbench-rw", Instance: "CDB-A", Seed: 7},
		{Workload: "tpcc", Instance: "CDB-C", Seed: 8, Timeline: "flashcrowd"},
	}
}

// runMini serves reqs one at a time on m and returns the terminal
// statuses.
func runMini(t *testing.T, m *server.Manager, stages *stageLog, reqs []server.JobRequest) []server.JobStatus {
	t.Helper()
	var out []server.JobStatus
	for _, req := range reqs {
		st, err := m.Submit(req)
		if err != nil {
			t.Fatalf("submit %+v: %v", req, err)
		}
		<-stages.terminated(st.ID)
		st, _ = m.Job(st.ID)
		if st.State != server.StateDone {
			t.Fatalf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		out = append(out, st)
	}
	return out
}

// registryState reads every entry of the registry at dir, with the
// wall-clock timestamps cleared.
func registryState(t *testing.T, dir string) map[string]registry.Meta {
	t.Helper()
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]registry.Meta)
	for _, m := range reg.List() {
		_, model, err := reg.Get(m.ID)
		if err != nil {
			t.Fatal(err)
		}
		m.CreatedUnix, m.UpdatedUnix = 0, 0
		m.Fingerprint = append(m.Fingerprint, float64(len(model)))
		out[m.ID+"/"+string(model)] = m
	}
	return out
}

func TestWrappedManagerMatchesPlain(t *testing.T) {
	base := fastConfig()
	reqs := miniRequests()

	// Plain: the default simulator, the registry on vfs.OS, no wrappers.
	plainDir := t.TempDir()
	reg, err := registry.Open(plainDir, registry.WithLogf(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	plainStages := newStageLog()
	cfg := base
	cfg.Registry = reg
	cfg.MakeDB = func(inst simdb.Instance, seed int64) env.Database {
		return simdb.New(knobs.EngineCDB, inst, seed)
	}
	cfg.Logf = plainStages.logf
	m, err := server.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain := runMini(t, m, plainStages, reqs)
	m.Close()

	// Wrapped: every probe on, tracing included.
	wrapDir := t.TempDir()
	p := newProbes(true)
	wrapStages := newStageLog()
	cm, err := startManager(wrapDir, base, p, wrapStages)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := runMini(t, cm.m, wrapStages, reqs)
	cm.m.Close()

	for i := range plain {
		a, b := plain[i], wrapped[i]
		a.QueueWaitMs, b.QueueWaitMs = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Errorf("job %d differs:\nplain   %+v\nwrapped %+v", i, a, b)
		}
	}
	if pa, wr := registryState(t, plainDir), registryState(t, wrapDir); !reflect.DeepEqual(pa, wr) {
		t.Errorf("registry contents differ: plain %d entries, wrapped %d", len(pa), len(wr))
	}
	if wrapped[2].Path != server.PathWarm {
		t.Errorf("mini-run's repeat request took the %s path; the test wants a warm one", wrapped[2].Path)
	}

	// The probes saw the run.
	db, rs, fs := p.db.snapshot(), p.reg.snapshot(), p.fs.snapshot()
	if db.runs == 0 || db.deploys == 0 || db.virtualUs == 0 {
		t.Errorf("database counters empty: %+v", db)
	}
	if rs.puts < len(reqs) || rs.nearest < len(reqs) || rs.putBytes == 0 {
		t.Errorf("registry counters short: %+v", rs)
	}
	if fs.syncs == 0 || fs.renames < len(reqs) || fs.writeBytes < rs.putBytes {
		t.Errorf("filesystem counters short: %+v (model bytes put %d)", fs, rs.putBytes)
	}
	if len(p.tr.snapshot()) == 0 {
		t.Error("traced mini-run recorded no spans")
	}
}

// fsScript runs the registry's kind of durable write sequence against
// fsys under dir.
func fsScript(t *testing.T, fsys vfs.FS, dir string) {
	t.Helper()
	if err := vfs.MkdirAllDurable(fsys, filepath.Join(dir, "a", "b"), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.CreateTemp(filepath.Join(dir, "a"), "tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello, ")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("world"), 7); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	tmp := f.Name()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, "a", "entry")); err != nil {
		t.Fatal(err)
	}
	if err := fsys.SyncDir(filepath.Join(dir, "a")); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Link(filepath.Join(dir, "a", "entry"), filepath.Join(dir, "a", "b", "link")); err != nil {
		t.Fatal(err)
	}
	g, err := fsys.OpenFile(filepath.Join(dir, "a", "b", "log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := g.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove(filepath.Join(dir, "a", "b", "link")); err != nil {
		t.Fatal(err)
	}
}

// tree reads every regular file under dir, keyed by relative path.
func tree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if info.IsDir() {
			out[rel+"/"] = ""
			return nil
		}
		data, err := os.ReadFile(path)
		out[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCountingFSMatchesOS(t *testing.T) {
	plainDir, wrapDir := t.TempDir(), t.TempDir()
	fsScript(t, vfs.OS, plainDir)
	st := &fsStats{}
	fsScript(t, &countingFS{FS: vfs.OS, stats: st, tr: newTracer(true)}, wrapDir)

	if a, b := tree(t, plainDir), tree(t, wrapDir); !reflect.DeepEqual(a, b) {
		t.Fatalf("on-disk trees differ:\nplain   %v\nwrapped %v", a, b)
	}
	got := st.snapshot()
	// One file fsync, one explicit SyncDir and MkdirAllDurable's parent
	// syncs (the missing "a" and "a/b" share none: two parents).
	if got.renames != 1 || got.writeBytes != int64(len("hello, world")+len("0123456789")) || got.syncs < 3 {
		t.Errorf("counters = %+v", got)
	}
	if got.busy < got.syncBusy || got.syncBusy <= 0 {
		t.Errorf("busy %v must cover sync busy %v > 0", got.busy, got.syncBusy)
	}
}

func TestCountingDBMatchesSimulator(t *testing.T) {
	cat := fastConfig().Catalog
	w, err := workload.ByName("sysbench-rw")
	if err != nil {
		t.Fatal(err)
	}
	plain := simdb.New(knobs.EngineCDB, simdb.CDBB, 42)
	st := &dbStats{}
	wrapped := makeDB(st, newTracer(true), "n")(simdb.CDBB, 42)

	rng := rand.New(rand.NewSource(9))
	for step := 0; step < 12; step++ {
		x := make([]float64, cat.Len())
		for i := range x {
			x[i] = rng.Float64()
		}
		r1, e1 := plain.ApplyKnobs(cat, x)
		r2, e2 := wrapped.ApplyKnobs(cat, x)
		if r1 != r2 || (e1 == nil) != (e2 == nil) {
			t.Fatalf("step %d apply: plain (%v, %v) wrapped (%v, %v)", step, r1, e1, r2, e2)
		}
		a, e1 := plain.RunWorkload(w, simdb.StressTestSec)
		b, e2 := wrapped.RunWorkload(w, simdb.StressTestSec)
		if !reflect.DeepEqual(a, b) || (e1 == nil) != (e2 == nil) {
			t.Fatalf("step %d run differs:\nplain   %+v %v\nwrapped %+v %v", step, a, e1, b, e2)
		}
	}
	if !reflect.DeepEqual(plain.CurrentKnobs(cat), wrapped.CurrentKnobs(cat)) || plain.Runs() != wrapped.Runs() {
		t.Fatal("final database state differs")
	}
	got := st.snapshot()
	if got.runs != 12 || got.deploys == 0 || got.deploys > 12 || got.virtualUs < micros(12*simdb.StressTestSec) {
		t.Errorf("counters = %+v", got)
	}
}

func TestResolveParentsAndSelfTime(t *testing.T) {
	spans := []span{
		{Layer: layerServer, Name: "registry", Node: "n", Job: "j1", Start: 0, End: 100, Parent: -1},
		{Layer: layerRegistry, Name: "put", Node: "n", Start: 10, End: 60, Parent: -1},
		{Layer: layerVFS, Name: "sync", Node: "n", Start: 20, End: 30, Parent: -1},
		{Layer: layerVFS, Name: "write", Node: "n", Start: 25, End: 40, Parent: -1},
		{Layer: layerVFS, Name: "sync", Node: "n", Start: 70, End: 80, Parent: -1},
		{Layer: layerVFS, Name: "sync", Node: "other", Start: 70, End: 80, Parent: -1},
	}
	resolveParents(spans)
	want := []int{-1, 0, 1, 1, 0, -1}
	for i, s := range spans {
		if s.Parent != want[i] {
			t.Errorf("span %d parent = %d, want %d", i, s.Parent, want[i])
		}
	}
	if spans[2].Job != "j1" || spans[4].Job != "j1" {
		t.Errorf("children did not inherit the stage's job: %+v", spans)
	}
	self := selfTimes(spans)
	// server: 100 - (50 + 10) = 40; registry: 50 - union(20..40) = 30.
	if self[layerServer] != 40 || self[layerRegistry] != 30 || self[layerVFS] != 10+15+10+10 {
		t.Errorf("self times = %v", self)
	}
}

func msDur(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestStageSpansCoverSession(t *testing.T) {
	tr := newTracer(true)
	at := func(ms int) stageEvent { return stageEvent{At: tr.origin.Add(msDur(ms))} }
	evs := []stageEvent{at(1), at(3), at(4), at(10), at(11), at(30), at(32), at(33), at(34)}
	for i, name := range []string{"queued", "start", "fingerprint", "match", "probe", "train", "tune", "registry", "done"} {
		evs[i].Stage = name
	}
	spans := stageSpans(tr, "n", "j", tr.origin, evs)
	var names []string
	for _, s := range spans {
		names = append(names, s.Name)
	}
	want := []string{"admit", "queue", "fingerprint", "match", "train", "train", "tune", "registry"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("stage names = %v, want %v", names, want)
	}
	tot := stageTotals(evs, tr.origin)
	if tot["train"] != msDur(20) || tot["queue"] != msDur(2) {
		t.Errorf("stage totals = %v", tot)
	}
	// The 1 ms the terminal event closes belongs to no stage.
	if c := covered(spans); c != msDur(33).Nanoseconds() {
		t.Errorf("stage spans cover %d ns, want the 33 ms up to the last stage", c)
	}
}

func TestUnattributedCountsUnownedIntervals(t *testing.T) {
	t0 := time.Unix(0, 0)
	job := func(stages ...any) *jobRec {
		j := &jobRec{due: t0, sent: t0}
		for i := 0; i < len(stages); i += 2 {
			j.stages = append(j.stages, stageEvent{Stage: stages[i].(string), At: t0.Add(msDur(stages[i+1].(int)))})
		}
		j.end = j.stages[len(j.stages)-1].At
		return j
	}
	for _, tc := range []struct {
		name string
		j    *jobRec
		want time.Duration
	}{
		{"every interval owned", job("queued", 1, "start", 2, "train", 90, "registry", 99, "done", 100), msDur(1)},
		{"long finish", job("queued", 1, "start", 2, "train", 50, "registry", 60, "done", 100), msDur(40)},
		{"unknown event", job("queued", 1, "start", 2, "train", 20, "rebalance", 80, "registry", 90, "done", 90), msDur(60)},
	} {
		if got := tc.j.unattributed(); got != tc.want {
			t.Errorf("%s: unattributed = %v, want %v", tc.name, got, tc.want)
		}
	}
	late := job("queued", 11, "start", 12, "train", 99, "done", 100)
	late.due = t0.Add(-msDur(20))
	if got := late.unattributed(); got != msDur(21) {
		t.Errorf("late send: unattributed = %v, want the 20 ms before the send and the 1 ms finish", got)
	}
}

func TestStageLogParsesServerLines(t *testing.T) {
	l := newStageLog()
	l.logf("fleet: %s serving at %s", "n0", "addr") // ignored
	l.logf("server: %s [%s] %s", "job-0001", "queued", "msg")
	select {
	case <-l.terminated("job-0001"):
		t.Fatal("job reported terminal before its terminal event")
	default:
	}
	l.logf("server: %s [%s] %s", "job-0001", "done", "session done")
	<-l.terminated("job-0001")
	evs := l.of("job-0001")
	if len(evs) != 2 || evs[0].Stage != "queued" || evs[1].Stage != "done" {
		t.Fatalf("events = %+v", evs)
	}
}

func TestRequestGenerationIsSeeded(t *testing.T) {
	if !reflect.DeepEqual(tunePaperRequests(3), tunePaperRequests(3)) ||
		!reflect.DeepEqual(driftFastRequests(3), driftFastRequests(3)) ||
		!reflect.DeepEqual(fleetFastJobs(3, 50), fleetFastJobs(3, 50)) {
		t.Fatal("the same seed must give the same requests")
	}
	if reflect.DeepEqual(tunePaperRequests(3), tunePaperRequests(4)) ||
		reflect.DeepEqual(driftFastRequests(3), driftFastRequests(4)) ||
		reflect.DeepEqual(fleetFastJobs(3, 50), fleetFastJobs(4, 50)) {
		t.Fatal("different seeds must give different requests")
	}
	// tune-paper trains the same scratch classes, in the same order, for
	// every seed.
	for _, seed := range []int64{1, 2, 3} {
		reqs := tunePaperRequests(seed)
		for i, c := range paperClasses {
			if reqs[i].Workload != c.workload || reqs[i].Instance != c.instance {
				t.Fatalf("seed %d request %d = %s/%s, want scratch class %s", seed, i, reqs[i].Workload, reqs[i].Instance, c)
			}
		}
		if n := len(reqs); n != len(paperClasses)*4 && n != len(paperClasses)*5 {
			t.Fatalf("seed %d: %d requests", seed, len(reqs))
		}
	}
	jobs := fleetFastJobs(1, 17)
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = j.key
		if i > 0 && j.due <= jobs[i-1].due {
			t.Fatal("fleet schedule must be strictly increasing")
		}
	}
	sort.Strings(keys)
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			t.Fatalf("duplicate idempotency key %s", keys[i])
		}
	}
}
