package ddpg

import (
	"bytes"
	"math/rand"
	"testing"

	"cdbtune/internal/rl"
)

// newBenchmarkAgent mirrors the tuner's production shape: the paper's
// default architecture over 63 metrics and a 20-knob action space, with
// a warm replay pool.
func newBenchmarkAgent() *Agent {
	cfg := DefaultConfig(63, 20)
	a := New(cfg)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 512; i++ {
		a.Observe(rl.Transition{
			State:     randUnitSlice(rng, 63),
			Action:    randUnitSlice(rng, 20),
			Reward:    rng.NormFloat64(),
			NextState: randUnitSlice(rng, 63),
		})
	}
	a.SetBCTarget(randUnitSlice(rng, 20))
	return a
}

func randUnitSlice(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

func BenchmarkTrainStepInfo(b *testing.B) {
	a := newBenchmarkAgent()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := a.TrainStepInfo(); !ok {
			b.Fatal("train step refused to run")
		}
	}
}

func BenchmarkActBatch8(b *testing.B) {
	a := newBenchmarkAgent()
	rng := rand.New(rand.NewSource(4))
	states := make([][]float64, 8)
	for i := range states {
		states[i] = randUnitSlice(rng, 63)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ActBatch(states)
	}
}

// BenchmarkAgentSaveLoad round-trips the paper-shape agent (63 metrics →
// 266 knobs, Table 5 network) through Save and Load — the model codec
// cost a registry match and write-back pay per serving job.
func BenchmarkAgentSaveLoad(b *testing.B) {
	a := paperShapeAgent()
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := a.Save(&buf); err != nil {
			b.Fatal(err)
		}
		if err := a.Load(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
