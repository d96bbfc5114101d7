package registry

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cdbtune/internal/core"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// fakeModel builds distinguishable model bytes.
func fakeModel(tag string) []byte {
	return []byte("model-bytes-" + tag + strings.Repeat("x", 64))
}

// fp builds a fingerprint whose metric block is a constant v — entries
// with different v are far apart, same v identical.
func fp(v float64) []float64 {
	w := workload.SysbenchRW()
	state := make([]float64, 63)
	for i := range state {
		state[i] = v * 1e6 // raw scale; Normalize squashes into [0,1)
	}
	return Fingerprint(state, w, simdb.CDBA.HW)
}

func quietOpen(t *testing.T, dir string, opts ...Option) *Registry {
	t.Helper()
	opts = append(opts, WithLogf(t.Logf))
	r, err := Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFingerprintShapeAndDistance(t *testing.T) {
	a := fp(1)
	if len(a) != FingerprintDim {
		t.Fatalf("fingerprint dim %d, want %d", len(a), FingerprintDim)
	}
	for i, v := range a {
		if v < 0 || v > 1 {
			t.Fatalf("component %d = %v out of [0,1]", i, v)
		}
	}
	d, err := Distance(a, fp(1))
	if err != nil || d != 0 {
		t.Fatalf("identical fingerprints: d=%v err=%v", d, err)
	}
	far, err := Distance(a, fp(50))
	if err != nil {
		t.Fatal(err)
	}
	if far <= 0.01 {
		t.Fatalf("different workloads should be far apart, d=%v", far)
	}
	if _, err := Distance(a, a[:10]); err == nil {
		t.Fatal("dimension mismatch must error")
	}
	c, err := Cosine(a, a)
	if err != nil || c < 0.999 {
		t.Fatalf("self-cosine = %v err=%v", c, err)
	}
	// Read/write ratio separates otherwise-identical metric blocks.
	ro, wo := workload.SysbenchRO(), workload.SysbenchWO()
	state := make([]float64, 63)
	fa := Fingerprint(state, ro, simdb.CDBA.HW)
	fb := Fingerprint(state, wo, simdb.CDBA.HW)
	d, _ = Distance(fa, fb)
	if d == 0 {
		t.Fatal("read/write ratio must separate fingerprints")
	}
}

func TestPutGetVersioning(t *testing.T) {
	r := quietOpen(t, t.TempDir())
	m1, err := r.Put(Meta{Workload: "sysbench-rw", Instance: "CDB-A", Fingerprint: fp(1), Episodes: 6, ScratchEpisodes: 6}, fakeModel("a"))
	if err != nil {
		t.Fatal(err)
	}
	if m1.ID == "" || m1.Version != 1 {
		t.Fatalf("new entry meta: %+v", m1)
	}
	// Fine-tune update: same ID, version bumps, no duplicate.
	m2, err := r.Put(Meta{ID: m1.ID, Workload: "sysbench-rw", Instance: "CDB-A", Fingerprint: fp(1), Episodes: 8}, fakeModel("a2"))
	if err != nil {
		t.Fatal(err)
	}
	if m2.Version != 2 || m2.ID != m1.ID {
		t.Fatalf("update meta: %+v", m2)
	}
	if m2.ScratchEpisodes != 6 {
		t.Fatalf("update must inherit ScratchEpisodes, got %d", m2.ScratchEpisodes)
	}
	if r.Len() != 1 {
		t.Fatalf("fine-tune duplicated the entry: %d entries", r.Len())
	}
	meta, model, err := r.Get(m1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(model) != string(fakeModel("a2")) || meta.Episodes != 8 {
		t.Fatalf("round-trip lost the update: %+v", meta)
	}

	// Reopen: the entry persists, version and seq intact.
	r2 := quietOpen(t, r.Dir())
	if r2.Len() != 1 {
		t.Fatalf("reopen lost entries: %d", r2.Len())
	}
	if got := r2.List()[0]; got.Version != 2 || got.ID != m1.ID {
		t.Fatalf("reopen meta: %+v", got)
	}
	// A fresh Put after reopen must not collide with the existing ID.
	m3, err := r2.Put(Meta{Workload: "tpcc", Fingerprint: fp(3)}, fakeModel("b"))
	if err != nil {
		t.Fatal(err)
	}
	if m3.ID == m1.ID {
		t.Fatalf("ID collision after reopen: %s", m3.ID)
	}
}

// TestCorruptEntrySkippedLoudly is the registry round-trip satellite:
// save N models, corrupt one on disk, verify lookup skips it loudly and
// nearest-fingerprint returns the right survivor.
func TestCorruptEntrySkippedLoudly(t *testing.T) {
	dir := t.TempDir()
	r := quietOpen(t, dir)
	ids := make([]string, 3)
	for i, v := range []float64{1, 5, 30} {
		m, err := r.Put(Meta{Workload: fmt.Sprintf("w%d", i), Fingerprint: fp(v)}, fakeModel(fmt.Sprint(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = m.ID
	}

	// Corrupt the entry that *would* win a lookup near fp(1): flip bytes in
	// the middle of ids[0]'s file, leaving the length intact.
	victim := filepath.Join(dir, ids[0]+".model")
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(data) / 2; i < len(data)/2+8; i++ {
		data[i] ^= 0xff
	}
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Lookup must skip the corrupt winner loudly and hand back the
	// next-nearest survivor (ids[1], fp(5) is closer to fp(1) than fp(30)).
	match, ok := r.Nearest(fp(1))
	if !ok {
		t.Fatal("no survivor returned")
	}
	if match.Meta.ID != ids[1] {
		t.Fatalf("nearest survivor = %s, want %s", match.Meta.ID, ids[1])
	}
	if string(match.Model) != string(fakeModel("1")) {
		t.Fatal("survivor model bytes wrong")
	}
	if len(r.Corrupt()) != 1 {
		t.Fatalf("corruption not recorded: %v", r.Corrupt())
	}
	if _, _, err := r.Get(ids[0]); err == nil {
		t.Fatal("Get of corrupt entry must error")
	}
	if r.Len() != 2 {
		t.Fatalf("corrupt entry still indexed: %d", r.Len())
	}

	// Reopen: the corrupt file is skipped at scan time too.
	r2 := quietOpen(t, dir)
	if r2.Len() != 2 || len(r2.Corrupt()) != 1 {
		t.Fatalf("reopen: %d entries, corrupt %v", r2.Len(), r2.Corrupt())
	}
	// A truncated file is rejected as loudly as a bit-flip.
	trunc := filepath.Join(dir, ids[1]+".model")
	data, _ = os.ReadFile(trunc)
	os.WriteFile(trunc, data[:len(data)-5], 0o644)
	r3 := quietOpen(t, dir)
	if r3.Len() != 1 || len(r3.Corrupt()) != 2 {
		t.Fatalf("truncation not caught: %d entries, corrupt %v", r3.Len(), r3.Corrupt())
	}
}

func TestNearestPrefersPinnedOnNearTie(t *testing.T) {
	r := quietOpen(t, t.TempDir())
	a, _ := r.Put(Meta{Workload: "a", Fingerprint: fp(2)}, fakeModel("a"))
	b, _ := r.Put(Meta{Workload: "b", Fingerprint: fp(2)}, fakeModel("b"))
	if err := r.Promote(b.ID); err != nil {
		t.Fatal(err)
	}
	match, ok := r.Nearest(fp(2))
	if !ok || match.Meta.ID != b.ID {
		t.Fatalf("pinned entry should win the tie, got %+v", match.Meta)
	}
	_ = a
	// Promote survives reopen and does not bump the version.
	if got := quietOpen(t, r.Dir()).List(); !pinnedByID(got, b.ID) {
		t.Fatalf("promotion lost on reopen: %+v", got)
	}
	if match.Meta.Version != 1 {
		t.Fatalf("promote bumped version: %d", match.Meta.Version)
	}
}

func pinnedByID(ms []Meta, id string) bool {
	for _, m := range ms {
		if m.ID == id {
			return m.Pinned
		}
	}
	return false
}

func TestEvictionSparesPinned(t *testing.T) {
	r := quietOpen(t, t.TempDir(), WithMaxEntries(2))
	a, _ := r.Put(Meta{Workload: "a", Fingerprint: fp(1)}, fakeModel("a"))
	if err := r.Promote(a.ID); err != nil {
		t.Fatal(err)
	}
	b, _ := r.Put(Meta{Workload: "b", Fingerprint: fp(2)}, fakeModel("b"))
	c, _ := r.Put(Meta{Workload: "c", Fingerprint: fp(3)}, fakeModel("c"))
	if r.Len() != 2 {
		t.Fatalf("eviction did not bound the collection: %d", r.Len())
	}
	if _, _, err := r.Get(b.ID); err == nil {
		t.Fatal("oldest unpinned entry should have been evicted")
	}
	for _, id := range []string{a.ID, c.ID} {
		if _, _, err := r.Get(id); err != nil {
			t.Fatalf("%s should have survived: %v", id, err)
		}
	}
	if _, err := os.Stat(filepath.Join(r.Dir(), b.ID+".model")); !os.IsNotExist(err) {
		t.Fatal("evicted entry file still on disk")
	}
}

func TestDelete(t *testing.T) {
	r := quietOpen(t, t.TempDir())
	m, _ := r.Put(Meta{Workload: "a", Fingerprint: fp(1)}, fakeModel("a"))
	if err := r.Delete(m.ID); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatal("delete left the entry indexed")
	}
	if err := r.Delete(m.ID); err == nil {
		t.Fatal("double delete must error")
	}
	if _, ok := r.Nearest(fp(1)); ok {
		t.Fatal("empty registry must report no match")
	}
}

func TestPutValidation(t *testing.T) {
	r := quietOpen(t, t.TempDir())
	if _, err := r.Put(Meta{Fingerprint: fp(1)}, nil); err == nil {
		t.Fatal("empty model must be rejected")
	}
	if _, err := r.Put(Meta{}, fakeModel("x")); err == nil {
		t.Fatal("missing fingerprint must be rejected")
	}
}

func TestNearestWithinRadius(t *testing.T) {
	r := quietOpen(t, t.TempDir())
	a, err := r.Put(Meta{Workload: "a", Fingerprint: fp(0.2)}, fakeModel("a"))
	if err != nil {
		t.Fatal(err)
	}
	// Exact fingerprint: inside any radius.
	if m, ok := r.NearestWithin(fp(0.2), 0.05); !ok || m.Meta.ID != a.ID {
		t.Fatalf("NearestWithin exact = %v/%v, want %s", m.Meta.ID, ok, a.ID)
	}
	// A distant query must be rejected by a tight radius but pass
	// unrestricted.
	far := fp(50)
	if _, ok := r.NearestWithin(far, 0.05); ok {
		t.Fatal("NearestWithin matched beyond its radius")
	}
	if m, ok := r.NearestWithin(far, 0); !ok || m.Meta.ID != a.ID {
		t.Fatalf("unrestricted NearestWithin = %v/%v, want %s", m.Meta.ID, ok, a.ID)
	}
	// Empty registry: never a match.
	r2 := quietOpen(t, t.TempDir())
	if _, ok := r2.NearestWithin(fp(0.2), 0); ok {
		t.Fatal("NearestWithin matched in an empty registry")
	}
}

// TestLegacyEntryRefused: an entry file in the earlier layout (the whole
// entry gob-encoded inside a reg1 frame) is not served. Open and Verify
// both report it with a reason naming the older version, and Nearest
// skips it even when it is the closest fingerprint.
func TestLegacyEntryRefused(t *testing.T) {
	dir := t.TempDir()
	r := quietOpen(t, dir)
	if _, err := r.Put(Meta{ID: "far", Workload: "w", Fingerprint: fp(50)}, fakeModel("far")); err != nil {
		t.Fatal(err)
	}

	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(entryBlob{Meta: Meta{ID: "old", Workload: "w", Fingerprint: fp(1), Version: 1}, Model: fakeModel("old")}); err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := core.WriteFramed(&file, legacyEntryMagic, blob.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "old.model"), file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	r = quietOpen(t, dir)
	if reason := r.Corrupt()["old.model"]; !strings.Contains(reason, "written by an older version") {
		t.Fatalf("Corrupt()[old.model] = %q, want the older-version reason", reason)
	}
	healthy, corrupt := r.Verify()
	if healthy != 1 || !strings.Contains(corrupt["old.model"], "written by an older version") {
		t.Fatalf("Verify() = %d healthy, %v; want 1 healthy and old.model refused as older", healthy, corrupt)
	}
	m, ok := r.Nearest(fp(1))
	if !ok || m.Meta.ID != "far" || !bytes.Equal(m.Model, fakeModel("far")) {
		t.Fatalf("Nearest = %+v, %v; want the healthy entry, skipping the legacy one", m.Meta, ok)
	}
}

// TestEntryModelBytesVerbatim: the model bytes a lookup returns are the
// stored bytes exactly, and a metadata length prefix that overruns the
// payload is refused as corruption.
func TestEntryModelBytesVerbatim(t *testing.T) {
	dir := t.TempDir()
	r := quietOpen(t, dir)
	model := append(fakeModel("v"), 0, 0xff, 0)
	stored, err := r.Put(Meta{Workload: "w", Fingerprint: fp(3)}, model)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := r.Get(stored.ID)
	if err != nil || !bytes.Equal(got, model) {
		t.Fatalf("Get returned %q, %v; want the stored bytes", got, err)
	}

	path := filepath.Join(dir, stored.ID+".model")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(data[:len(data)-8])
	bad[3] = 0x7f // metadata length far past the payload
	var file bytes.Buffer
	if err := core.WriteFramed(&file, entryMagic, bad); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Get(stored.ID); err == nil || !strings.Contains(err.Error(), "overruns") {
		t.Fatalf("Get of an overrunning metadata length: err = %v", err)
	}
}
