package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"cdbtune/internal/metrics"
	"cdbtune/internal/rl"
	"cdbtune/internal/workload"
)

// TestConcurrentObserveSampleAct hammers the tuner's three hot-path agent
// operations from 8 goroutines at once — Observe into the sharded pool
// (no agent lock), batched Act through the inference batcher, and
// TrainStepInfo (Sample + UpdatePriorities + gradient update) under the agent
// lock. Its job is to fail under the race detector (`make check` runs the
// suite with -race) if the concurrency contract in doc.go is ever broken.
func TestConcurrentObserveSampleAct(t *testing.T) {
	cat := testCat(t)
	cfg := testConfig(t, cat)
	cfg.MemoryShards = 8
	tn, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !tn.concMem {
		t.Fatal("MemoryShards=8 must enable lock-free observe")
	}
	tn.infer = newInferBatcher(tn, 4)
	defer func() {
		tn.infer.stop()
		tn.infer = nil
	}()

	const goroutines = 8
	const iters = 60
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			tn.agentMu.Lock()
			noise := tn.agent.Noise.Fork()
			tn.agentMu.Unlock()
			state := make([]float64, metrics.NumMetrics)
			for i := range state {
				state[i] = rng.Float64()
			}
			for i := 0; i < iters; i++ {
				act := tn.selectAction(state, i%2 == 0, noise)
				if len(act) != cat.Len() {
					t.Errorf("action dim %d, want %d", len(act), cat.Len())
					return
				}
				tn.observe(rl.Transition{
					State: state, Action: act,
					Reward: rng.Float64(), NextState: state,
				})
				if i%4 == 0 {
					tn.agentMu.Lock()
					tn.agent.TrainStepInfo()
					tn.agentMu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := tn.agent.Memory.Len(), goroutines*iters; got != want {
		t.Fatalf("memory holds %d transitions after concurrent run, want %d", got, want)
	}
	if mean := tn.infer.meanBatch(); mean < 1 {
		t.Fatalf("mean inference batch %v < 1", mean)
	}
}

// A multi-worker training run with sharding and batching enabled must
// produce the same accounting guarantees as the single-lock path: every
// episode reported once, all transitions stored, batch stats surfaced.
func TestParallelTrainingWithShardsAndBatching(t *testing.T) {
	cat := testCat(t)
	cfg := testConfig(t, cat)
	cfg.MemoryShards = 4
	cfg.SnapshotEvery = -1
	tn, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const episodes, workers = 8, 4
	var recs []EpisodeStats
	rep, err := tn.OfflineTrain(context.Background(), mkEnvFactory(cat, workload.SysbenchRW(), 4200), TrainOptions{
		Episodes:  episodes,
		Workers:   workers,
		OnEpisode: func(s EpisodeStats) { recs = append(recs, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Episodes != episodes || len(recs) != episodes {
		t.Fatalf("episodes %d, telemetry records %d, want %d", rep.Episodes, len(recs), episodes)
	}
	for _, r := range recs {
		if r.MemoryShards != 4 {
			t.Fatalf("telemetry shards %d, want 4", r.MemoryShards)
		}
		if r.InferBatchMean < 1 {
			t.Fatalf("telemetry mean batch %v < 1", r.InferBatchMean)
		}
	}
	// Every step stores exactly one transition (crashed steps store their
	// penalty transition) — the sharded pool must not lose any.
	steps := 0
	for _, r := range recs {
		steps += r.Steps
	}
	if got := tn.agent.Memory.Len(); got != steps {
		t.Fatalf("memory holds %d transitions, telemetry counted %d steps", got, steps)
	}
	if tn.infer != nil {
		t.Fatal("batcher must be torn down after training")
	}
}
