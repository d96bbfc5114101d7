package main

import (
	"errors"
	"math"
	"os"
	"sync"
	"time"

	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/registry"
	"cdbtune/internal/simdb"
	"cdbtune/internal/vfs"
	"cdbtune/internal/workload"
)

// The wrappers below are passthroughs: each forwards every call to the
// wrapped value unchanged and only counts and times it. wrap_test.go
// checks that a wrapped mini-run gives the same results and the same
// on-disk state as an unwrapped one.

// dbStats accumulates what every wrapped database did. Virtual seconds
// are what a real database would have cost: each stress test's requested
// duration plus metric collection, a deploy per applied configuration, a
// restart per restart or crash, and any stall the engine reports.
type dbStats struct {
	mu sync.Mutex
	dbCounts
}

type dbCounts struct {
	runs, deploys, restarts int
	// virtualUs is kept in whole microseconds so per-round differences
	// are exact and comparable bit for bit.
	virtualUs          int64
	runBusy, applyBusy time.Duration
}

func (s *dbStats) snapshot() dbCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dbCounts
}

func micros(sec float64) int64 { return int64(math.Round(sec * 1e6)) }

// countingDB wraps an env.Database.
type countingDB struct {
	env.Database
	stats *dbStats
	tr    *tracer
	node  string
}

// makeDB returns a server.Config.MakeDB that builds the default
// simulator and wraps it.
func makeDB(stats *dbStats, tr *tracer, node string) func(simdb.Instance, int64) env.Database {
	return func(inst simdb.Instance, seed int64) env.Database {
		return &countingDB{Database: simdb.New(knobs.EngineCDB, inst, seed), stats: stats, tr: tr, node: node}
	}
}

func (d *countingDB) ApplyKnobs(cat *knobs.Catalog, x []float64) (bool, error) {
	t0 := time.Now()
	restarted, err := d.Database.ApplyKnobs(cat, x)
	t1 := time.Now()
	d.stats.mu.Lock()
	d.stats.applyBusy += t1.Sub(t0)
	if err == nil {
		d.stats.deploys++
		d.stats.virtualUs += micros(simdb.DeploySec)
		if restarted {
			d.stats.restarts++
			d.stats.virtualUs += micros(simdb.RestartSec)
		}
	}
	d.stats.mu.Unlock()
	d.tr.record(layerEnv, "apply", d.node, "", t0, t1)
	return restarted, err
}

func (d *countingDB) RunWorkload(w workload.Workload, durationSec float64) (simdb.Result, error) {
	t0 := time.Now()
	res, err := d.Database.RunWorkload(w, durationSec)
	t1 := time.Now()
	d.stats.mu.Lock()
	d.stats.runBusy += t1.Sub(t0)
	d.stats.runs++
	d.stats.virtualUs += micros(durationSec + simdb.MetricsCollectSec)
	if errors.Is(err, simdb.ErrCrashed) {
		d.stats.restarts++
		d.stats.virtualUs += micros(simdb.RestartSec)
	}
	d.stats.mu.Unlock()
	d.tr.record(layerEnv, "run", d.node, "", t0, t1)
	return res, err
}

// TakeStallSeconds forwards env.Staller, so wrapping a stalling engine
// keeps its stalls on the environment's clock.
func (d *countingDB) TakeStallSeconds() float64 {
	s, ok := d.Database.(env.Staller)
	if !ok {
		return 0
	}
	extra := s.TakeStallSeconds()
	d.stats.mu.Lock()
	d.stats.virtualUs += micros(extra)
	d.stats.mu.Unlock()
	return extra
}

// regStats accumulates registry.Store calls.
type regStats struct {
	mu sync.Mutex
	regCounts
}

type regCounts struct {
	nearest, puts        int
	nearestBusy, putBusy time.Duration
	putBytes             int64
}

func (s *regStats) snapshot() regCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.regCounts
}

// countingStore wraps a registry.Store.
type countingStore struct {
	registry.Store
	stats *regStats
	tr    *tracer
	node  string
}

func (s *countingStore) Put(meta registry.Meta, model []byte) (registry.Meta, error) {
	t0 := time.Now()
	out, err := s.Store.Put(meta, model)
	t1 := time.Now()
	s.stats.mu.Lock()
	s.stats.puts++
	s.stats.putBusy += t1.Sub(t0)
	s.stats.putBytes += int64(len(model))
	s.stats.mu.Unlock()
	s.tr.record(layerRegistry, "put", s.node, "", t0, t1)
	return out, err
}

func (s *countingStore) Nearest(fp []float64) (registry.Match, bool) {
	t0 := time.Now()
	m, ok := s.Store.Nearest(fp)
	s.noteNearest(t0)
	return m, ok
}

func (s *countingStore) NearestWithin(fp []float64, radius float64) (registry.Match, bool) {
	t0 := time.Now()
	m, ok := s.Store.NearestWithin(fp, radius)
	s.noteNearest(t0)
	return m, ok
}

func (s *countingStore) noteNearest(t0 time.Time) {
	t1 := time.Now()
	s.stats.mu.Lock()
	s.stats.nearest++
	s.stats.nearestBusy += t1.Sub(t0)
	s.stats.mu.Unlock()
	s.tr.record(layerRegistry, "nearest", s.node, "", t0, t1)
}

// fsStats accumulates filesystem calls under the registry.
type fsStats struct {
	mu sync.Mutex
	fsCounts
}

type fsCounts struct {
	syncs      int // file and directory fsyncs
	renames    int
	writeBytes int64
	syncBusy   time.Duration
	busy       time.Duration // every call, syncs included
}

func (s *fsStats) snapshot() fsCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fsCounts
}

// countingFS wraps a vfs.FS; files it opens are wrapped too.
type countingFS struct {
	vfs.FS
	stats *fsStats
	tr    *tracer
	node  string
}

// op times one call, charging it to busy (and to syncBusy for fsyncs).
func (f *countingFS) op(name string, t0 time.Time) {
	t1 := time.Now()
	d := t1.Sub(t0)
	f.stats.mu.Lock()
	f.stats.busy += d
	switch name {
	case "sync", "syncdir":
		f.stats.syncs++
		f.stats.syncBusy += d
	case "rename":
		f.stats.renames++
	}
	f.stats.mu.Unlock()
	f.tr.record(layerVFS, name, f.node, "", t0, t1)
}

func (f *countingFS) wrapFile(file vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{File: file, fs: f}, nil
}

func (f *countingFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	defer f.op("open", time.Now())
	return f.wrapFile(f.FS.OpenFile(name, flag, perm))
}

func (f *countingFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	defer f.op("open", time.Now())
	return f.wrapFile(f.FS.CreateTemp(dir, pattern))
}

func (f *countingFS) Rename(oldpath, newpath string) error {
	defer f.op("rename", time.Now())
	return f.FS.Rename(oldpath, newpath)
}

func (f *countingFS) Remove(name string) error {
	defer f.op("remove", time.Now())
	return f.FS.Remove(name)
}

func (f *countingFS) Link(oldname, newname string) error {
	defer f.op("link", time.Now())
	return f.FS.Link(oldname, newname)
}

func (f *countingFS) Stat(name string) (os.FileInfo, error) {
	defer f.op("stat", time.Now())
	return f.FS.Stat(name)
}

func (f *countingFS) ReadFile(name string) ([]byte, error) {
	defer f.op("read", time.Now())
	return f.FS.ReadFile(name)
}

func (f *countingFS) ReadDir(name string) ([]os.DirEntry, error) {
	defer f.op("readdir", time.Now())
	return f.FS.ReadDir(name)
}

func (f *countingFS) Glob(pattern string) ([]string, error) {
	defer f.op("glob", time.Now())
	return f.FS.Glob(pattern)
}

func (f *countingFS) MkdirAll(path string, perm os.FileMode) error {
	defer f.op("mkdir", time.Now())
	return f.FS.MkdirAll(path, perm)
}

func (f *countingFS) SyncDir(dir string) error {
	defer f.op("syncdir", time.Now())
	return f.FS.SyncDir(dir)
}

// countingFile wraps a vfs.File opened through countingFS.
type countingFile struct {
	vfs.File
	fs *countingFS
}

func (c *countingFile) wrote(n int) {
	c.fs.stats.mu.Lock()
	c.fs.stats.writeBytes += int64(n)
	c.fs.stats.mu.Unlock()
}

func (c *countingFile) Write(p []byte) (int, error) {
	defer c.fs.op("write", time.Now())
	n, err := c.File.Write(p)
	c.wrote(n)
	return n, err
}

func (c *countingFile) WriteAt(p []byte, off int64) (int, error) {
	defer c.fs.op("write", time.Now())
	n, err := c.File.WriteAt(p, off)
	c.wrote(n)
	return n, err
}

func (c *countingFile) Read(p []byte) (int, error) {
	defer c.fs.op("read", time.Now())
	return c.File.Read(p)
}

func (c *countingFile) ReadAt(p []byte, off int64) (int, error) {
	defer c.fs.op("read", time.Now())
	return c.File.ReadAt(p, off)
}

func (c *countingFile) Sync() error {
	defer c.fs.op("sync", time.Now())
	return c.File.Sync()
}

func (c *countingFile) Truncate(size int64) error {
	defer c.fs.op("truncate", time.Now())
	return c.File.Truncate(size)
}

func (c *countingFile) Close() error {
	defer c.fs.op("close", time.Now())
	return c.File.Close()
}
