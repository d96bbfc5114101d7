package ddpg

import (
	"cdbtune/internal/nn"
)

// Restore rolls the agent's weights back to a snapshot taken from this
// agent (or one with an identical Config) — SetWeights, plus a reset of
// both optimizers' Adam moments: moments estimated on the diverged
// trajectory would push the restored weights straight back toward the
// divergence. The replay memory, train-step counter and noise process are
// left untouched.
func (a *Agent) Restore(s *WeightSnapshot) error {
	if err := a.applyWeights(s, "restore snapshot"); err != nil {
		return err
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
