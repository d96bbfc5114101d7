package ddpg

import (
	"fmt"

	"cdbtune/internal/nn"
)

// WeightSnapshot is a cheap in-memory copy of the agent's learnable state:
// the four networks' parameters and BatchNorm statistics plus the
// self-imitation target. It is what the learner-health supervisor rolls
// back to on divergence — no serialization, just slice copies, so taking
// one on a healthy cadence costs microseconds, not a disk round-trip.
type WeightSnapshot struct {
	nets     []*nn.NetworkState
	bcTarget []float64
}

// Snapshot captures the agent's current weights. Callers must hold the
// same lock that serializes TrainStepInfo.
func (a *Agent) Snapshot() *WeightSnapshot {
	s := &WeightSnapshot{}
	for _, n := range a.networks() {
		s.nets = append(s.nets, n.State())
	}
	if a.bcTarget != nil {
		s.bcTarget = append([]float64(nil), a.bcTarget...)
	}
	return s
}

// Restore rolls the agent's weights back to a snapshot taken from this
// agent (or one with an identical Config) and resets both optimizers'
// Adam moments — moments estimated on the diverged trajectory would push
// the restored weights straight back toward the divergence. The replay
// memory, train-step counter and noise process are left untouched.
func (a *Agent) Restore(s *WeightSnapshot) error {
	nets := a.networks()
	if len(s.nets) != len(nets) {
		return fmt.Errorf("ddpg: snapshot has %d networks, want %d", len(s.nets), len(nets))
	}
	for i, n := range nets {
		if err := n.CheckState(s.nets[i]); err != nil {
			return fmt.Errorf("ddpg: restore snapshot: %w", err)
		}
	}
	for i, n := range nets {
		if err := n.SetState(s.nets[i]); err != nil {
			return fmt.Errorf("ddpg: restore snapshot: %w", err)
		}
	}
	a.bcTarget = nil
	if s.bcTarget != nil {
		a.bcTarget = append([]float64(nil), s.bcTarget...)
	}
	a.actorOpt.Reset()
	a.criticOpt.Reset()
	return nil
}

// ScaleLR multiplies both optimizers' learning rates by f — the
// supervisor's backoff after a rollback. It returns the critic's new rate
// for logging.
func (a *Agent) ScaleLR(f float64) float64 {
	a.actorOpt.LR *= f
	a.criticOpt.LR *= f
	return a.criticOpt.LR
}

// networks lists the four networks in Save/Load order.
func (a *Agent) networks() []*nn.Network {
	return []*nn.Network{a.actor, a.actorTarget, a.critic.net(), a.critTarget.net()}
}
