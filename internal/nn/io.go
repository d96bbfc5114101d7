package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
)

// NetworkState is a deep copy of everything Save persists for a Network:
// parameter tensors in layer order plus BatchNorm running statistics. It
// doubles as the in-memory snapshot format the learner-health supervisor
// rolls back to, so capturing and restoring it must stay cheap (no
// encoding, just copies).
type NetworkState struct {
	Params       [][]float64
	RunningMeans [][]float64
	RunningVars  [][]float64
}

// State captures the network's current parameters and BatchNorm running
// statistics as an independent copy.
func (n *Network) State() *NetworkState {
	st := &NetworkState{}
	for _, p := range n.Params() {
		st.Params = append(st.Params, append([]float64(nil), p.Value.Data...))
	}
	for _, l := range n.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			st.RunningMeans = append(st.RunningMeans, append([]float64(nil), bn.RunningMean...))
			st.RunningVars = append(st.RunningVars, append([]float64(nil), bn.RunningVar...))
		}
	}
	return st
}

// CheckState verifies that st is shape-compatible with the network —
// parameter count, per-parameter length, and BatchNorm statistics — without
// modifying anything. SetState performs the same checks; callers that must
// apply several states atomically check them all first.
func (n *Network) CheckState(st *NetworkState) error {
	ps := n.Params()
	if len(st.Params) != len(ps) {
		return fmt.Errorf("nn: state has %d params, network has %d", len(st.Params), len(ps))
	}
	for i, p := range ps {
		if len(st.Params[i]) != len(p.Value.Data) {
			return fmt.Errorf("nn: param %d has %d values, want %d", i, len(st.Params[i]), len(p.Value.Data))
		}
	}
	var bi int
	for _, l := range n.Layers {
		bn, ok := l.(*BatchNorm)
		if !ok {
			continue
		}
		if bi >= len(st.RunningMeans) || bi >= len(st.RunningVars) {
			return fmt.Errorf("nn: state missing running stats for BatchNorm %d", bi)
		}
		if len(st.RunningMeans[bi]) != bn.Dim || len(st.RunningVars[bi]) != bn.Dim {
			return fmt.Errorf("nn: BatchNorm %d stats dim %d, want %d", bi, len(st.RunningMeans[bi]), bn.Dim)
		}
		bi++
	}
	return nil
}

// SetState restores a state captured from an identically-shaped network
// (via State or ReadState), validating shapes before touching anything.
func (n *Network) SetState(st *NetworkState) error {
	if err := n.CheckState(st); err != nil {
		return err
	}
	for i, p := range n.Params() {
		copy(p.Value.Data, st.Params[i])
	}
	var bi int
	for _, l := range n.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			copy(bn.RunningMean, st.RunningMeans[bi])
			copy(bn.RunningVar, st.RunningVars[bi])
			bi++
		}
	}
	return nil
}

// Finite returns a descriptive error if any parameter value or BatchNorm
// running statistic in the state is NaN or infinite — the validation gate
// that keeps a corrupt serialized model from being silently loaded.
func (st *NetworkState) Finite() error {
	for i, p := range st.Params {
		for _, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: param %d contains non-finite value %v", i, v)
			}
		}
	}
	for i, m := range st.RunningMeans {
		for _, v := range m {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: BatchNorm %d running mean contains non-finite value %v", i, v)
			}
		}
	}
	for i, m := range st.RunningVars {
		for _, v := range m {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: BatchNorm %d running variance contains non-finite value %v", i, v)
			}
		}
	}
	return nil
}

// ReadState decodes one serialized NetworkState from r without applying it
// to any network, so callers can validate (CheckState, Finite) before
// mutating weights.
func ReadState(r io.Reader) (*NetworkState, error) {
	var st NetworkState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("nn: decode network state: %w", err)
	}
	return &st, nil
}

// Save writes the network's parameters and normalization statistics to w
// in gob format. The architecture itself is not serialized: Load must be
// called on a network built with the same layer structure.
func (n *Network) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(n.State())
}

// Load restores parameters previously written by Save into a network with
// an identical architecture.
func (n *Network) Load(r io.Reader) error {
	st, err := ReadState(r)
	if err != nil {
		return err
	}
	return n.SetState(st)
}
