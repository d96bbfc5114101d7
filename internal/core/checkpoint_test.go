package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cdbtune/internal/vfs"
	"cdbtune/internal/workload"
)

// TestCheckpointCRCDetectsCorruption writes a real checkpoint through a
// short training run, then damages it the two ways disk corruption
// presents: a flipped bit mid-payload and a truncated tail. Both must be
// rejected with a descriptive error before any state is restored, and the
// pristine bytes must still load.
func TestCheckpointCRCDetectsCorruption(t *testing.T) {
	cat := testCat(t)
	tn, err := New(testConfig(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt.gob")
	ck := &Checkpointer{Path: path, Every: 1}
	if _, err := tn.OfflineTrain(context.Background(), mkEnvFactory(cat, workload.SysbenchRW(), 60), TrainOptions{
		Episodes: 2, Workers: 1, Checkpoint: ck,
	}); err != nil {
		t.Fatal(err)
	}

	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pristine) < 16 {
		t.Fatalf("checkpoint implausibly small: %d bytes", len(pristine))
	}
	if !bytes.Equal(pristine[len(pristine)-8:len(pristine)-4], checkpointMagic[:]) {
		t.Fatal("checkpoint does not end with the integrity footer magic")
	}

	freshTuner := func() *Tuner {
		nt, err := New(testConfig(t, cat))
		if err != nil {
			t.Fatal(err)
		}
		return nt
	}

	// A single flipped bit anywhere in the payload must fail the CRC.
	flipped := append([]byte(nil), pristine...)
	flipped[len(flipped)/3] ^= 0x40
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ck.Load(freshTuner()); err == nil {
		t.Fatal("bit-flipped checkpoint loaded without error")
	} else if !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("bit-flip error should blame the CRC, got: %v", err)
	}

	// A truncated file (e.g. a partial copy) loses the footer entirely.
	if err := os.WriteFile(path, pristine[:len(pristine)-12], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ck.Load(freshTuner()); err == nil {
		t.Fatal("truncated checkpoint loaded without error")
	} else if !strings.Contains(err.Error(), "integrity footer") {
		t.Fatalf("truncation error should mention the footer, got: %v", err)
	}

	// The pristine bytes still restore cleanly.
	if err := os.WriteFile(path, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, found, err := ck.Load(freshTuner())
	if err != nil || !found {
		t.Fatalf("pristine checkpoint must load: found=%v err=%v", found, err)
	}
	if rep.Episodes != 2 {
		t.Fatalf("restored report has %d episodes, want 2", rep.Episodes)
	}
}

// TestCheckpointRejectsOlderVersion: a version-2 checkpoint, whose agent
// bytes are in the earlier gob layout, is refused with the version error
// before any of its agent bytes are decoded.
func TestCheckpointRejectsOlderVersion(t *testing.T) {
	cat := testCat(t)
	tn, err := New(testConfig(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(checkpointBlob{
		Version:      2,
		Iterations:   7,
		Agent:        []byte("gob-encoded agent of an earlier build"),
		BestSnapshot: []byte("gob-encoded best policy of an earlier build"),
	}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "old.ckpt")
	if err := WriteCheckpointPayload(vfs.OS, path, payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	_, found, err := (&Checkpointer{Path: path}).Load(tn)
	if err == nil || found {
		t.Fatalf("a version-2 checkpoint loaded: found=%v err=%v", found, err)
	}
	if !strings.Contains(err.Error(), "has version 2, want 3") {
		t.Fatalf("want the version error, got: %v", err)
	}
	if tn.Iterations() != 0 {
		t.Fatal("a refused checkpoint restored the iteration counter")
	}
}
