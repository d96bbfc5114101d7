package controller

import (
	"bytes"
	"context"
	"testing"

	"cdbtune/internal/core"
	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/metrics"
	"cdbtune/internal/rl/ddpg"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

func testTuner(t *testing.T) (*core.Tuner, *knobs.Catalog) {
	t.Helper()
	full := knobs.MySQL(knobs.EngineCDB)
	idx := make([]int, 8)
	for i := range idx {
		idx[i] = i
	}
	cat := full.Subset(idx)
	cfg := core.DefaultConfig(cat)
	d := ddpg.DefaultConfig(metrics.NumMetrics, cat.Len())
	d.ActorHidden = []int{24, 24}
	d.CriticHidden = []int{32, 24}
	cfg.DDPG = d
	cfg.StepsPerEpisode = 6
	cfg.UpdatesPerStep = 1
	tn, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tn, cat
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing tuner must error")
	}
	tn, _ := testTuner(t)
	c, err := New(Config{Tuner: tn})
	if err != nil {
		t.Fatal(err)
	}
	// OnlineSteps stays 0: its default lives in core.Tuner.OnlineTune.
	if c.cfg.CaptureSec != 150 || c.cfg.OnlineSteps != 0 {
		t.Fatalf("defaults not applied: %+v", c.cfg)
	}
}

func TestTuningRequestEndToEnd(t *testing.T) {
	tn, cat := testTuner(t)
	// A little training so the tuner has a remembered best.
	mk := func(ep int) *env.Env {
		db := simdb.New(knobs.EngineCDB, simdb.CDBA, int64(100+ep))
		return env.New(db, cat, workload.SysbenchRW())
	}
	if _, err := tn.OfflineTrain(context.Background(), mk, core.TrainOptions{Episodes: 4}); err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Tuner: tn, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	db := simdb.New(knobs.EngineCDB, simdb.CDBA, 999)
	res, err := c.HandleTuningRequest(context.Background(), db, workload.SysbenchRW())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Approved {
		t.Fatal("auto-approver must approve")
	}
	if res.Replayed.Name != "replayed" {
		t.Fatalf("request did not replay the captured workload: %q", res.Replayed.Name)
	}
	if res.Replayed.ReadFraction < 0.6 || res.Replayed.ReadFraction > 0.8 {
		t.Fatalf("replayed profile lost the RW mix: %v", res.Replayed.ReadFraction)
	}
	if len(res.Values) != cat.Len() {
		t.Fatalf("values dim %d", len(res.Values))
	}
	if c.Requests() != 1 {
		t.Fatalf("Requests = %d", c.Requests())
	}
}

func TestRejectionRollsBack(t *testing.T) {
	tn, cat := testTuner(t)
	// Impossible threshold: nothing is ever approved.
	c, err := New(Config{Tuner: tn, Approver: ThresholdApprover{MinImprovement: 1e9}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	db := simdb.New(knobs.EngineCDB, simdb.CDBA, 42)
	hw := db.Instance().HW
	before := cat.Denormalize(db.CurrentKnobs(cat), hw.RAMGB, hw.DiskGB)
	res, err := c.HandleTuningRequest(context.Background(), db, workload.TPCC())
	if err != nil {
		t.Fatal(err)
	}
	if res.Approved {
		t.Fatal("threshold approver should have rejected")
	}
	after := cat.Denormalize(db.CurrentKnobs(cat), hw.RAMGB, hw.DiskGB)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("knob %s not rolled back: %v vs %v", cat.Knobs[i].Name, after[i], before[i])
		}
	}
}

func TestThresholdApprover(t *testing.T) {
	a := ThresholdApprover{MinImprovement: 0.05}
	if a.Approve(nil, nil, 0.04) {
		t.Fatal("should reject below threshold")
	}
	if !a.Approve(nil, nil, 0.06) {
		t.Fatal("should approve above threshold")
	}
}

func TestTrainingRequest(t *testing.T) {
	tn, cat := testTuner(t)
	c, err := New(Config{Tuner: tn})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(ep int) *env.Env {
		db := simdb.New(knobs.EngineCDB, simdb.CDBA, int64(500+ep))
		return env.New(db, cat, workload.SysbenchWO())
	}
	rep, err := c.HandleTrainingRequest(context.Background(), mk, core.TrainOptions{Episodes: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Episodes != 3 {
		t.Fatalf("Episodes = %d", rep.Episodes)
	}
	// Parallel path.
	rep, err = c.HandleTrainingRequest(context.Background(), mk, core.TrainOptions{Episodes: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Episodes != 4 {
		t.Fatalf("parallel Episodes = %d", rep.Episodes)
	}
}

func TestModelPersistence(t *testing.T) {
	tn, cat := testTuner(t)
	c, err := New(Config{Tuner: tn})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	tn2, _ := testTuner(t)
	c2, err := New(Config{Tuner: tn2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.LoadModel(&buf); err != nil {
		t.Fatal(err)
	}
	s := make([]float64, metrics.NumMetrics)
	a, b := tn.Agent().Act(s), tn2.Agent().Act(s)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("model differs after reload")
		}
	}
	_ = cat
}
