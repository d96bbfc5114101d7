// Package nn implements the small feed-forward neural-network stack used by
// CDBTune's deep reinforcement-learning agents: dense, ReLU, Tanh, Sigmoid,
// Dropout and BatchNorm layers with hand-written backpropagation, plus SGD
// and Adam optimizers. The layer set is exactly what Table 5 of the paper's
// actor-critic architecture requires.
//
// # Buffer ownership
//
// Layers pool their output, gradient and inference buffers via mat.Reuse,
// so a steady-state train step (Forward + Backward + optimizer Step)
// allocates nothing. The matrix returned by a layer's Forward, Backward or
// Infer is owned by that layer and valid only until its next call of the
// same kind — callers that need the values past that point must Clone.
// Network.Forward/Infer results follow the same rule: the DDPG agent
// copies action rows out before the next pass, and anything retaining a
// network output across passes must do the same.
//
// Forward (training or evaluation mode) and Infer use disjoint buffers:
// an Infer call between a training Forward and its Backward leaves the
// cached activations untouched. Eval-mode Forward does NOT have that
// guarantee — it overwrites the caches — which is exactly why Infer
// exists.
//
// # Concurrency
//
// A layer, and hence a Network, is single-threaded: its scratch buffers
// are unsynchronized, so two concurrent passes through the same network
// race. Distinct Network instances are fully independent and may run
// concurrently (the DDPG learner overlaps target-network and online-
// network passes this way). Within one pass the mat kernels may fan out
// across goroutines internally; that is invisible to callers.
//
// # Serialization
//
// WriteState (and Network.Save, which writes the live buffers without a
// copy) encodes a NetworkState in a fixed binary layout; ReadState (and
// Network.Load) decodes it. All integers and floats are little-endian:
//
//	magic   4 bytes   "nns1"
//	group × 3         parameters (layer order), BatchNorm running means,
//	                  BatchNorm running variances
//	  count  uint32   number of tensors in the group
//	  tensor × count
//	    len  uint32   number of values
//	    vals len × 8  IEEE-754 float64 bit patterns
//
// Values round-trip bit for bit, so a saved and reloaded network computes
// exactly what the original did. The architecture is not encoded: Load
// checks the decoded shapes against the receiving network. A stream with
// another magic tag — including the gob encoding earlier builds wrote — is
// refused. ReadState never allocates on the strength of a length prefix
// alone: tensors are read in bounded chunks, and a prefix that claims more
// values than the stream holds fails as truncation (io.ErrUnexpectedEOF).
// The DDPG agent's model format is five such blocks in a row (see
// ddpg.Agent.Save).
//
// # Weight decay
//
// SGD and Adam apply L2 weight decay to weight matrices only. Bias rows
// ("b"), BatchNorm shift ("beta") and BatchNorm scale ("gamma") are
// exempt: decaying gamma toward 0 or the others toward identity-breaking
// values regularizes nothing and measurably skews BatchNorm statistics.
package nn
