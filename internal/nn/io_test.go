package nn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"cdbtune/internal/mat"
)

// codecTestNet builds a small network with BatchNorm statistics moved off
// their initial values, so every tensor group of the encoding is
// non-trivial.
func codecTestNet() *Network {
	rng := rand.New(rand.NewSource(5))
	n := NewNetwork(NewDense(3, 4), NewBatchNorm(4), NewTanh(), NewDense(4, 2))
	n.InitNormal(rng, 0.5)
	x := mat.New(6, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64() * 2
	}
	n.Forward(x, true)
	return n
}

func encodedState(t testing.TB, n *Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriteStateRoundTripsBits: every float64 bit pattern — signed zero,
// subnormals, infinities, NaN payloads — survives WriteState/ReadState,
// and ReadState consumes exactly the encoded bytes.
func TestWriteStateRoundTripsBits(t *testing.T) {
	odd := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff8_0000_dead_beef), 1.0 / 3}
	st := &NetworkState{
		Params:       [][]float64{odd, {}, {42}},
		RunningMeans: [][]float64{{1, 2}},
		RunningVars:  [][]float64{{3, 4}},
	}
	var buf bytes.Buffer
	if err := WriteState(&buf, st); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("trailer")
	r := bytes.NewReader(buf.Bytes())
	got, err := ReadState(r)
	if err != nil {
		t.Fatal(err)
	}
	if rest, _ := io.ReadAll(r); string(rest) != "trailer" {
		t.Fatalf("ReadState left %q unread, want exactly the trailer", rest)
	}
	for g, pair := range [][2][][]float64{{st.Params, got.Params}, {st.RunningMeans, got.RunningMeans}, {st.RunningVars, got.RunningVars}} {
		want, have := pair[0], pair[1]
		if len(want) != len(have) {
			t.Fatalf("group %d: %d tensors, want %d", g, len(have), len(want))
		}
		for i := range want {
			if len(want[i]) != len(have[i]) {
				t.Fatalf("group %d tensor %d: %d values, want %d", g, i, len(have[i]), len(want[i]))
			}
			for j := range want[i] {
				if math.Float64bits(want[i][j]) != math.Float64bits(have[i][j]) {
					t.Fatalf("group %d tensor %d[%d]: bits %x, want %x", g, i, j,
						math.Float64bits(have[i][j]), math.Float64bits(want[i][j]))
				}
			}
		}
	}
}

// TestSaveMatchesWriteState: Network.Save writes from the live buffers,
// byte-identical to encoding a State copy.
func TestSaveMatchesWriteState(t *testing.T) {
	n := codecTestNet()
	var buf bytes.Buffer
	if err := WriteState(&buf, n.State()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), encodedState(t, n)) {
		t.Fatal("Save and WriteState(State()) encodings differ")
	}
}

// TestReadStateTruncatedAtEveryBoundary: every proper prefix of a valid
// encoding fails cleanly as truncation, both through a reader that
// reports its length and through one that does not.
func TestReadStateTruncatedAtEveryBoundary(t *testing.T) {
	enc := encodedState(t, codecTestNet())
	for k := 0; k < len(enc); k++ {
		for _, r := range []io.Reader{bytes.NewReader(enc[:k]), iotest.HalfReader(bytes.NewReader(enc[:k]))} {
			if _, err := ReadState(r); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("prefix of %d/%d bytes: err = %v, want io.ErrUnexpectedEOF", k, len(enc), err)
			}
		}
	}
	if _, err := ReadState(bytes.NewReader(enc)); err != nil {
		t.Fatalf("the full encoding must decode: %v", err)
	}
}

// TestReadStateBadMagic: a stream that does not open with the magic tag —
// including a gob-encoded state from an earlier build — is refused
// without decoding further.
func TestReadStateBadMagic(t *testing.T) {
	enc := encodedState(t, codecTestNet())
	enc[0] ^= 0xff
	_, err := ReadState(bytes.NewReader(enc))
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("err = %v, want a bad-magic error", err)
	}
}

// TestReadStateOversizedLengthBoundedAlloc: a length prefix claiming far
// more values than the stream holds fails without allocating anywhere
// near the claimed size, whether or not the reader reports its length.
func TestReadStateOversizedLengthBoundedAlloc(t *testing.T) {
	// One param tensor claiming 2^31 values (16 GiB), of which three are
	// present.
	enc := append([]byte{}, stateMagic[:]...)
	enc = binary.LittleEndian.AppendUint32(enc, 1)
	enc = binary.LittleEndian.AppendUint32(enc, 1<<31)
	enc = append(enc, make([]byte, 8*3)...)

	for name, mk := range map[string]func() io.Reader{
		"sized":   func() io.Reader { return bytes.NewReader(enc) },
		"unsized": func() io.Reader { return iotest.HalfReader(bytes.NewReader(enc)) },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadState(mk())
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: err = %v, want io.ErrUnexpectedEOF", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: rejecting an oversized length allocated %d bytes", name, grew)
		}
	}
}

// FuzzReadState: arbitrary bytes never panic ReadState, and whatever it
// accepts re-encodes to exactly the bytes it consumed.
func FuzzReadState(f *testing.F) {
	f.Add(encodedState(f, codecTestNet()))
	f.Add(encodedState(f, NewNetwork(NewDense(1, 1))))
	f.Add([]byte("nns1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		st, err := ReadState(r)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteState(&buf, st); err != nil {
			t.Fatal(err)
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(buf.Bytes(), consumed) {
			t.Fatalf("re-encoding differs from the %d consumed bytes", len(consumed))
		}
	})
}
