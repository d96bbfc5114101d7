package nn

import (
	"encoding/binary"
	"errors"
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
	st := n.stateView()
	for _, group := range [...][][]float64{st.Params, st.RunningMeans, st.RunningVars} {
		for i, v := range group {
			group[i] = append([]float64(nil), v...)
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

// stateMagic opens every encoded NetworkState (see "Serialization" in the
// package doc). A stream that does not start with it — a gob-encoded model
// from an earlier build, or unrelated bytes — is rejected before anything
// else is read.
var stateMagic = [4]byte{'n', 'n', 's', '1'}

// chunkFloats bounds how many values one read or write moves through the
// codec's scratch buffer (64 KiB).
const chunkFloats = 8192

// WriteState encodes st to w in the binary layout described under
// "Serialization" in the package doc: the magic tag, then the parameter,
// running-mean and running-variance groups, each a uint32 tensor count
// followed by every tensor as a uint32 length and its float64 bit
// patterns, all little-endian. Values round-trip bit for bit.
func WriteState(w io.Writer, st *NetworkState) error {
	sw := stateWriter{w: w, buf: make([]byte, 0, 8*chunkFloats)}
	sw.buf = append(sw.buf, stateMagic[:]...)
	for _, group := range [...][][]float64{st.Params, st.RunningMeans, st.RunningVars} {
		sw.putUint32(len(group))
		for _, v := range group {
			sw.putUint32(len(v))
			for _, x := range v {
				if len(sw.buf)+8 > cap(sw.buf) {
					sw.flush()
				}
				sw.buf = binary.LittleEndian.AppendUint64(sw.buf, math.Float64bits(x))
			}
		}
	}
	sw.flush()
	return sw.err
}

// stateWriter batches WriteState's output through one fixed scratch
// buffer, remembering the first write error.
type stateWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func (sw *stateWriter) putUint32(n int) {
	if len(sw.buf)+4 > cap(sw.buf) {
		sw.flush()
	}
	sw.buf = binary.LittleEndian.AppendUint32(sw.buf, uint32(n))
}

func (sw *stateWriter) flush() {
	if sw.err == nil && len(sw.buf) > 0 {
		_, sw.err = sw.w.Write(sw.buf)
	}
	sw.buf = sw.buf[:0]
}

// ReadState decodes one NetworkState written by WriteState (or
// Network.Save) from r without applying it to any network, so callers can
// validate (CheckState, Finite) before mutating weights. It consumes
// exactly the encoded bytes, leaving r positioned after them. Length
// prefixes are never trusted for allocation: tensors are read in bounded
// chunks, so a corrupt prefix claiming more data than the stream holds
// fails with io.ErrUnexpectedEOF instead of allocating the claimed size.
func ReadState(r io.Reader) (*NetworkState, error) {
	st, err := readState(r)
	if err != nil {
		return nil, fmt.Errorf("nn: decode network state: %w", err)
	}
	return st, nil
}

func readState(r io.Reader) (*NetworkState, error) {
	sr := stateReader{r: r}
	magic, err := sr.read(4)
	if err != nil {
		return nil, err
	}
	if [4]byte(magic) != stateMagic {
		return nil, fmt.Errorf("bad magic %q, want %q (not a network state, or written by an older version)", magic, stateMagic[:])
	}
	var groups [3][][]float64
	for g := range groups {
		n, err := sr.uint32()
		if err != nil {
			return nil, err
		}
		// Each tensor costs at least its 4-byte length prefix, so the
		// group grows with what is actually read rather than trusting n.
		for i := 0; i < n; i++ {
			v, err := sr.floats()
			if err != nil {
				return nil, err
			}
			groups[g] = append(groups[g], v)
		}
	}
	return &NetworkState{Params: groups[0], RunningMeans: groups[1], RunningVars: groups[2]}, nil
}

// stateReader reads ReadState's fields through one scratch buffer, grown
// only as far as the largest chunk actually requested.
type stateReader struct {
	r   io.Reader
	buf []byte
}

// read returns the next n bytes of the stream, valid until the next call.
func (sr *stateReader) read(n int) ([]byte, error) {
	if cap(sr.buf) < n {
		sr.buf = make([]byte, n)
	}
	b := sr.buf[:n]
	if _, err := io.ReadFull(sr.r, b); err != nil {
		return nil, eofIsUnexpected(err)
	}
	return b, nil
}

// uint32 reads one little-endian count or length prefix.
func (sr *stateReader) uint32() (int, error) {
	b, err := sr.read(4)
	if err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint32(b)), nil
}

// floats reads one length-prefixed tensor, at most chunkFloats values at
// a time. When the stream reports how many unread bytes it holds
// (bytes.Reader, bytes.Buffer), a length that overruns them fails before
// any allocation and the tensor is allocated once at its exact size;
// otherwise the tensor grows only as its values actually arrive.
func (sr *stateReader) floats() ([]float64, error) {
	n, err := sr.uint32()
	if err != nil {
		return nil, err
	}
	out := []float64{}
	if lr, ok := sr.r.(interface{ Len() int }); ok {
		if n > lr.Len()/8 {
			return nil, fmt.Errorf("tensor of %d values overruns the %d bytes left: %w", n, lr.Len(), io.ErrUnexpectedEOF)
		}
		out = make([]float64, 0, n)
	}
	for len(out) < n {
		b, err := sr.read(8 * min(n-len(out), chunkFloats))
		if err != nil {
			return nil, err
		}
		for i := 0; i < len(b); i += 8 {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(b[i:])))
		}
	}
	return out, nil
}

// eofIsUnexpected reports a stream that ends inside an encoding — even
// at a field boundary — as truncation.
func eofIsUnexpected(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// stateView is State without the copies: a NetworkState whose tensors
// alias the network's live parameter and statistic buffers, valid only
// until the network next changes.
func (n *Network) stateView() *NetworkState {
	ps := n.Params()
	st := &NetworkState{Params: make([][]float64, len(ps))}
	for i, p := range ps {
		st.Params[i] = p.Value.Data
	}
	for _, l := range n.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			st.RunningMeans = append(st.RunningMeans, bn.RunningMean)
			st.RunningVars = append(st.RunningVars, bn.RunningVar)
		}
	}
	return st
}

// Save writes the network's parameters and normalization statistics to w
// with WriteState. The architecture itself is not serialized: Load must be
// called on a network built with the same layer structure.
func (n *Network) Save(w io.Writer) error {
	return WriteState(w, n.stateView())
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
