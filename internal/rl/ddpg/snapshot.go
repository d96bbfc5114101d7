package ddpg

import (
	"fmt"
	"io"

	"cdbtune/internal/nn"
)

// WeightSnapshot is a cheap in-memory copy of the agent's learnable state:
// the four networks' parameters and BatchNorm statistics plus the
// self-imitation target. It is what the tuner keeps as its best policy
// during training and what the learner-health supervisor rolls back to on
// divergence — no serialization, just slice copies. Encode and
// DecodeSnapshot move it to and from the byte layout Agent.Save writes.
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

// SetWeights applies a snapshot to the agent with the checks Load runs:
// every network's shape must match the architecture Config builds, every
// weight and BatchNorm statistic must be finite, and a self-imitation
// target must fit ActionDim and be finite. Everything is checked before
// anything is written, so a rejected snapshot leaves the agent exactly as
// it was. The optimizers' Adam moments, the replay memory, the train-step
// counter and the noise process are kept (Restore is the variant that
// also resets the moments). The snapshot stays independent of the agent
// and may be applied again.
func (a *Agent) SetWeights(s *WeightSnapshot) error {
	return a.applyWeights(s, "set weights")
}

// applyWeights is SetWeights with verb labelling its errors, so Load,
// SetWeights and Restore share one validation path.
func (a *Agent) applyWeights(s *WeightSnapshot, verb string) error {
	nets := a.networks()
	if len(s.nets) != len(nets) {
		return fmt.Errorf("ddpg: %s: snapshot has %d networks, want %d", verb, len(s.nets), len(nets))
	}
	for i, st := range s.nets {
		if err := nets[i].CheckState(st); err != nil {
			return fmt.Errorf("ddpg: %s %s: model does not match Config (state %d, action %d): %w",
				verb, netNames[i], a.cfg.StateDim, a.cfg.ActionDim, err)
		}
		if err := st.Finite(); err != nil {
			return fmt.Errorf("ddpg: %s %s: corrupt model: %w", verb, netNames[i], err)
		}
	}
	if s.bcTarget != nil {
		if len(s.bcTarget) != a.cfg.ActionDim {
			return fmt.Errorf("ddpg: %s extras: best-action target has %d dims, want %d", verb, len(s.bcTarget), a.cfg.ActionDim)
		}
		for _, v := range s.bcTarget {
			if !finite(v) {
				return fmt.Errorf("ddpg: %s extras: best-action target contains non-finite value %v", verb, v)
			}
		}
	}
	for i, st := range s.nets {
		if err := nets[i].SetState(st); err != nil {
			return fmt.Errorf("ddpg: %s %s: %w", verb, netNames[i], err)
		}
	}
	a.bcTarget = nil
	if s.bcTarget != nil {
		a.bcTarget = append([]float64(nil), s.bcTarget...)
	}
	return nil
}

// Encode writes the snapshot in the layout Agent.Save uses, so the bytes
// load with Agent.Load as well as DecodeSnapshot.
func (s *WeightSnapshot) Encode(w io.Writer) error {
	for i, st := range s.nets {
		if err := nn.WriteState(w, st); err != nil {
			return fmt.Errorf("ddpg: encode %s: %w", netNames[i], err)
		}
	}
	if err := writeBCTarget(w, s.bcTarget); err != nil {
		return fmt.Errorf("ddpg: encode extras: %w", err)
	}
	return nil
}

// DecodeSnapshot reads one snapshot written by Encode or Agent.Save. It
// checks only the encoding; shape and finiteness are SetWeights' job,
// since only an agent knows its Config.
func DecodeSnapshot(r io.Reader) (*WeightSnapshot, error) {
	s := &WeightSnapshot{nets: make([]*nn.NetworkState, len(netNames))}
	for i := range s.nets {
		st, err := nn.ReadState(r)
		if err != nil {
			return nil, fmt.Errorf("ddpg: decode %s: %w", netNames[i], err)
		}
		s.nets[i] = st
	}
	ex, err := nn.ReadState(r)
	if err != nil {
		return nil, fmt.Errorf("ddpg: decode extras: %w", err)
	}
	if len(ex.Params) > 1 || len(ex.RunningMeans) > 0 || len(ex.RunningVars) > 0 {
		return nil, fmt.Errorf("ddpg: decode extras: %d/%d/%d tensors, want at most one best-action target",
			len(ex.Params), len(ex.RunningMeans), len(ex.RunningVars))
	}
	if len(ex.Params) == 1 && len(ex.Params[0]) > 0 {
		s.bcTarget = ex.Params[0]
	}
	return s, nil
}

// writeBCTarget writes the extras block that ends every encoded agent: a
// network state whose only tensor is the self-imitation target, or no
// tensor when none is set.
func writeBCTarget(w io.Writer, bc []float64) error {
	var ex nn.NetworkState
	if len(bc) > 0 {
		ex.Params = [][]float64{bc}
	}
	return nn.WriteState(w, &ex)
}
