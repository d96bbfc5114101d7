package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	}
	for _, c := range cases {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile must not reorder its input")
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("even-length median = %v, want 2.5", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("single-sample median = %v", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(mean(nil)) {
		t.Error("an empty sample must read NaN, not a plausible number")
	}
}

func TestBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := beyond(xs, 0.9); got != 10 {
		t.Errorf("beyond(p90 of 1..100) = %d, want 10", got)
	}
	if got := beyond(xs[:20], 0.9); got != 2 {
		t.Errorf("beyond(p90 of 1..20) = %d, want 2", got)
	}
	if beyond(nil, 0.5) != 0 {
		t.Error("beyond on an empty sample")
	}
}

func TestFractions(t *testing.T) {
	if frac(3, 4) != 0.75 || frac(0, 4) != 0 {
		t.Error("frac")
	}
	if !math.IsNaN(frac(1, 0)) || !math.IsNaN(ratio(1, 0)) {
		t.Error("a zero base must read NaN")
	}
	if ratio(3, 1.5) != 2 {
		t.Error("ratio")
	}
	if mean([]float64{1, 2, 6}) != 3 {
		t.Error("mean")
	}
}

func TestBlocksKeepRoundsWhole(t *testing.T) {
	var jobs []*jobRec
	for r := 0; r < 9; r++ {
		for i := 0; i < 30; i++ {
			jobs = append(jobs, &jobRec{round: r})
		}
	}
	bs := blocks(jobs)
	// 270 jobs in rounds of 30: blocks of 4 rounds (120 jobs), the last
	// round joining the second block.
	if len(bs) != 2 || len(bs[0]) != 120 || len(bs[1]) != 150 {
		t.Fatalf("block sizes %d", len(bs))
	}
	for _, b := range bs {
		if b[0].round != b[len(b)-1].round && len(b) < blockJobs {
			t.Fatal("block below the minimum size")
		}
	}
	if got := blocks(jobs[:150]); len(got) != 1 || len(got[0]) != 150 {
		t.Fatalf("a run under two blocks' worth must be one block, got %d", len(got))
	}
	fleet := make([]*jobRec, 250) // one open-loop round
	for i := range fleet {
		fleet[i] = &jobRec{}
	}
	if got := blocks(fleet); len(got) != 1 {
		t.Fatalf("one round is one block, got %d", len(got))
	}
}

func TestBlockMedianSkipsEmptyBlocks(t *testing.T) {
	bs := []jobStats{{lat: []float64{1}}, {lat: []float64{3}}, {}, {lat: []float64{2}}}
	if got := blockMedian(bs, func(b jobStats) float64 { return median(b.lat) }); got != 2 {
		t.Fatalf("blockMedian = %v, want 2", got)
	}
}
