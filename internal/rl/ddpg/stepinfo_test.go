package ddpg

import (
	"math"
	"math/rand"
	"testing"

	"cdbtune/internal/rl"
)

func TestTrainStepInfoPolicyDelay(t *testing.T) {
	cfg := smallConfig(3, 2)
	cfg.PolicyDelay = 2
	a := New(cfg)
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < cfg.MinMemory; i++ {
		a.Observe(rl.Transition{
			State:     []float64{rng.Float64(), rng.Float64(), rng.Float64()},
			Action:    []float64{rng.Float64(), rng.Float64()},
			Reward:    rng.Float64(),
			NextState: []float64{rng.Float64(), rng.Float64(), rng.Float64()},
		})
	}
	first, ok := a.TrainStepInfo()
	if !ok {
		t.Fatal("TrainStepInfo should run at MinMemory")
	}
	if first.ActorUpdated || first.ActorLoss != 0 {
		t.Fatalf("PolicyDelay=2 must skip the actor on the first critic update: %+v", first)
	}
	second, ok := a.TrainStepInfo()
	if !ok {
		t.Fatal("second TrainStepInfo refused")
	}
	if !second.ActorUpdated {
		t.Fatal("second update must include the actor")
	}
	if math.IsNaN(second.ActorLoss) || math.IsInf(second.ActorLoss, 0) {
		t.Fatalf("actor loss = %v", second.ActorLoss)
	}
	if first.CriticLoss < 0 || second.CriticLoss < 0 {
		t.Fatalf("critic loss is a weighted square, must be ≥ 0: %v, %v", first.CriticLoss, second.CriticLoss)
	}
	if a.TrainSteps() != 2 {
		t.Fatalf("TrainSteps = %d, want 2", a.TrainSteps())
	}
}
