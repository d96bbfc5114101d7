package core

import (
	"context"
	"testing"

	"cdbtune/internal/chaos"
	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

func dynamicEnv(t *testing.T, cat *knobs.Catalog, seed int64) *env.Env {
	t.Helper()
	db := simdb.New(knobs.EngineCDB, simdb.CDBA, seed)
	base := workload.SysbenchRW()
	e := env.New(db, cat, base)
	e.Timeline = workload.FlashCrowd(base)
	return e
}

func TestServeDynamicRequiresTimeline(t *testing.T) {
	cat := testCat(t)
	tn, err := New(testConfig(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	db := simdb.New(knobs.EngineCDB, simdb.CDBA, 1)
	e := env.New(db, cat, workload.SysbenchRW())
	if _, err := tn.ServeDynamic(context.Background(), e, DynamicOptions{}); err == nil {
		t.Fatal("ServeDynamic accepted a stationary environment")
	}
}

func TestDynamicServeRetunesOnBurst(t *testing.T) {
	cat := testCat(t)
	tn, err := New(testConfig(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	e := dynamicEnv(t, cat, 11)

	var events []DynamicEvent
	rep, err := tn.ServeDynamic(context.Background(), e, DynamicOptions{
		HorizonHours: 6,
		WarmSeed: func(state []float64, w workload.Workload) (string, bool) {
			if len(state) == 0 || w.Threads == 0 {
				t.Error("WarmSeed called with empty state or workload")
			}
			return "test-seed", true
		},
		OnEvent: func(ev DynamicEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatalf("ServeDynamic: %v", err)
	}
	if rep.Drifts < 1 || len(rep.Retunes) < 1 {
		t.Fatalf("drifts %d, retunes %d — want ≥ 1 each", rep.Drifts, len(rep.Retunes))
	}
	// The 3× flash crowd is the drift: the first re-tune must trigger
	// inside the burst phase.
	if got := rep.Retunes[0].Phase; got != "burst" {
		t.Errorf("first re-tune phase = %q, want burst", got)
	}
	if rep.Unreverted != 0 {
		t.Errorf("Unreverted = %d, want 0", rep.Unreverted)
	}
	if rep.Retunes[0].Seed != "test-seed" {
		t.Errorf("retune seed = %q, want test-seed", rep.Retunes[0].Seed)
	}
	// Events mirror the report: at least one drift followed by a retune.
	var sawDrift, sawRetune bool
	for _, ev := range events {
		switch ev.Kind {
		case "drift":
			sawDrift = true
		case "retune":
			if !sawDrift {
				t.Error("retune event before any drift event")
			}
			sawRetune = true
		}
	}
	if !sawDrift || !sawRetune {
		t.Errorf("event stream missing drift/retune: %v", events)
	}
	if len(rep.Samples) == 0 || rep.Final.Throughput <= 0 {
		t.Errorf("report lacks samples (%d) or final measurement (%v)", len(rep.Samples), rep.Final)
	}
}

func TestDynamicServeRevertsOnChaos(t *testing.T) {
	cat := testCat(t)
	tn, err := New(testConfig(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	base := workload.SysbenchRW()
	inner := simdb.New(knobs.EngineCDB, simdb.CDBA, 5)
	inj := chaos.New(chaos.Config{Seed: 5, CrashProb: 0.22})
	e := env.New(inj.Wrap(inner), cat, base)
	e.Timeline = workload.FlashCrowd(base)

	var stats []EpisodeStats
	rep, err := tn.ServeDynamic(context.Background(), e, DynamicOptions{
		HorizonHours: 8,
		OnEpisode:    func(s EpisodeStats) { stats = append(stats, s) },
	})
	if err != nil {
		t.Fatalf("ServeDynamic under chaos: %v", err)
	}
	if rep.Crashes < 1 {
		t.Fatalf("chaos injected no crashes (counters %+v)", inj.Counters())
	}
	if rep.Reverts < 1 {
		t.Fatalf("crashes observed (%d) but no revert recorded", rep.Crashes)
	}
	// Every crash was recovered: the window ends healthy.
	if rep.Unreverted != 0 {
		t.Fatalf("Unreverted = %d, want 0", rep.Unreverted)
	}
	if rep.Final.Throughput <= 0 {
		t.Fatalf("final measurement missing: %+v", rep.Final)
	}
	// EpisodeStats records carry the drift telemetry fields.
	for _, s := range stats {
		if s.Phase == "" || s.DriftEWMA <= 0 {
			t.Errorf("retune EpisodeStats missing drift fields: %+v", s)
		}
	}
}

func TestDynamicServeCancellation(t *testing.T) {
	cat := testCat(t)
	tn, err := New(testConfig(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	e := dynamicEnv(t, cat, 3)
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	_, err = tn.ServeDynamic(ctx, e, DynamicOptions{
		HorizonHours: 100,
		OnSample: func(DynamicSample) {
			n++
			if n == 2 {
				cancel()
			}
		},
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n > 3 {
		t.Fatalf("kept sampling after cancellation (%d samples)", n)
	}
}

// TestDriftSmoke is the `make drift-smoke` gate: a compressed flash-crowd
// timeline must produce at least one drift-triggered re-tune with zero
// unreverted guardrail violations.
func TestDriftSmoke(t *testing.T) {
	cat := testCat(t)
	tn, err := New(testConfig(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	e := dynamicEnv(t, cat, 1)
	rep, err := tn.ServeDynamic(context.Background(), e, DynamicOptions{HorizonHours: 6})
	if err != nil {
		t.Fatalf("ServeDynamic: %v", err)
	}
	if len(rep.Retunes) < 1 {
		t.Fatalf("no drift-triggered re-tune in %v simulated hours (%d drifts)", rep.Hours, rep.Drifts)
	}
	if rep.Unreverted != 0 {
		t.Fatalf("unreverted guardrail violations: %d", rep.Unreverted)
	}
	t.Logf("drift smoke: %d samples, %d drifts, %d retunes, %d reverts over %.1f simulated hours",
		len(rep.Samples), rep.Drifts, len(rep.Retunes), rep.Reverts, rep.Hours)
}
