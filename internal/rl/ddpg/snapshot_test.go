package ddpg

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// tinyCodecConfig keeps encodings to a few kilobytes so tests can afford
// to decode every prefix of one.
func tinyCodecConfig() Config {
	cfg := DefaultConfig(3, 2)
	cfg.ActorHidden = []int{4, 3}
	cfg.CriticHidden = []int{4, 3}
	cfg.Seed = 9
	return cfg
}

func savedBytes(t testing.TB, a *Agent) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadTruncatedAtEveryBoundary: every proper prefix of a saved agent
// fails Load as truncation and leaves the destination agent untouched.
func TestLoadTruncatedAtEveryBoundary(t *testing.T) {
	src := New(tinyCodecConfig())
	src.SetBCTarget([]float64{0.25, 0.75})
	enc := savedBytes(t, src)

	cfg := tinyCodecConfig()
	cfg.Seed = 10
	dst := New(cfg)
	before := savedBytes(t, dst)
	for k := 0; k < len(enc); k++ {
		err := dst.Load(bytes.NewReader(enc[:k]))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("prefix of %d/%d bytes: err = %v, want io.ErrUnexpectedEOF", k, len(enc), err)
		}
		if !bytes.Equal(savedBytes(t, dst), before) {
			t.Fatalf("failed Load of a %d-byte prefix modified the agent", k)
		}
	}
	if err := dst.Load(bytes.NewReader(enc)); err != nil {
		t.Fatalf("the full encoding must load: %v", err)
	}
	if !bytes.Equal(savedBytes(t, dst), enc) {
		t.Fatal("a loaded agent does not save back to the bytes it loaded")
	}
}

// TestLoadRejectsBadMagic: a corrupted tag in any of the five blocks is
// refused before any weight moves.
func TestLoadRejectsBadMagic(t *testing.T) {
	src := New(tinyCodecConfig())
	enc := savedBytes(t, src)
	dst := New(tinyCodecConfig())
	// The actor block starts the stream; the extras block is the last 16
	// bytes (magic + three zero counts) when no target is set.
	for _, off := range []int{0, len(enc) - 16} {
		bad := bytes.Clone(enc)
		bad[off] ^= 0xff
		before := savedBytes(t, dst)
		err := dst.Load(bytes.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), "bad magic") {
			t.Fatalf("offset %d: err = %v, want a bad-magic error", off, err)
		}
		if !bytes.Equal(savedBytes(t, dst), before) {
			t.Fatalf("offset %d: failed Load modified the agent", off)
		}
	}
}

// legacyExtras mirrors the gob-encoded trailer earlier builds wrote.
type legacyExtras struct {
	BCTarget []float64
}

// TestLoadRejectsLegacyGobModel: a model in the earlier gob layout (one
// gob stream per network, then one for the extras) is refused with a
// clear error and leaves the agent unchanged — the serving layer then
// trains from scratch.
func TestLoadRejectsLegacyGobModel(t *testing.T) {
	src := New(tinyCodecConfig())
	var legacy bytes.Buffer
	for _, n := range src.networks() {
		if err := gob.NewEncoder(&legacy).Encode(n.State()); err != nil {
			t.Fatal(err)
		}
	}
	if err := gob.NewEncoder(&legacy).Encode(legacyExtras{BCTarget: []float64{0.5, 0.5}}); err != nil {
		t.Fatal(err)
	}

	cfg := tinyCodecConfig()
	cfg.Seed = 11
	dst := New(cfg)
	before := savedBytes(t, dst)
	err := dst.Load(bytes.NewReader(legacy.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "older version") {
		t.Fatalf("err = %v, want a refusal naming an older version", err)
	}
	if !bytes.Equal(savedBytes(t, dst), before) || dst.BCTarget() != nil {
		t.Fatal("failed Load of a legacy model modified the agent")
	}
}

// TestSnapshotEncodeMatchesSave: Encode of a fresh snapshot writes the
// same bytes as Save, DecodeSnapshot reads them back, and SetWeights of
// the decoded snapshot reproduces the agent bit for bit.
func TestSnapshotEncodeMatchesSave(t *testing.T) {
	src := New(tinyCodecConfig())
	src.SetBCTarget([]float64{0.1, 0.9})
	enc := savedBytes(t, src)

	var buf bytes.Buffer
	if err := src.Snapshot().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), enc) {
		t.Fatal("WeightSnapshot.Encode and Agent.Save encodings differ")
	}
	s, err := DecodeSnapshot(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyCodecConfig()
	cfg.Seed = 12
	dst := New(cfg)
	if err := dst.SetWeights(s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(savedBytes(t, dst), enc) {
		t.Fatal("SetWeights of a decoded snapshot does not reproduce the source agent")
	}
	// The snapshot stays independent: mutating the agent leaves it intact.
	dst.SetBCTarget([]float64{0.3, 0.3})
	if s.bcTarget[0] != 0.1 {
		t.Fatal("SetWeights aliased the snapshot's best-action target")
	}
}

// paperShapeAgent is the Table 5 network over the paper's 63 metrics and
// 266 knobs — the shape whose 4.6 MB model the serving warm path moves.
func paperShapeAgent() *Agent {
	a := New(DefaultConfig(63, 266))
	a.SetBCTarget(randUnitSlice(rand.New(rand.NewSource(5)), 266))
	return a
}

// TestSaveLoadAllocsBounded pins the codec's allocation contract at the
// paper shape: Save writes straight from the network buffers with a
// constant number of allocations, and Load allocates a bounded number per
// tensor (the decoded copy it validates before applying), never per value.
func TestSaveLoadAllocsBounded(t *testing.T) {
	a := paperShapeAgent()
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	enc := bytes.Clone(buf.Bytes())

	const maxSaveAllocs = 32
	saveAllocs := testing.AllocsPerRun(3, func() {
		buf.Reset()
		if err := a.Save(&buf); err != nil {
			t.Fatal(err)
		}
	})
	if saveAllocs > maxSaveAllocs {
		t.Fatalf("Save made %.0f allocations, want at most %d", saveAllocs, maxSaveAllocs)
	}

	tensors := 1 // the best-action target
	for _, st := range a.Snapshot().nets {
		tensors += len(st.Params) + len(st.RunningMeans) + len(st.RunningVars)
	}
	maxLoadAllocs := 2*tensors + 40
	loadAllocs := testing.AllocsPerRun(3, func() {
		if err := a.Load(bytes.NewReader(enc)); err != nil {
			t.Fatal(err)
		}
	})
	if loadAllocs > float64(maxLoadAllocs) {
		t.Fatalf("Load made %.0f allocations for %d tensors, want at most %d", loadAllocs, tensors, maxLoadAllocs)
	}
	t.Logf("Save %.0f allocs, Load %.0f allocs over %d tensors (%d bytes)", saveAllocs, loadAllocs, tensors, len(enc))
}
