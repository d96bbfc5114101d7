package controller

import (
	"context"
	"sync"
	"testing"

	"cdbtune/internal/knobs"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// TestConcurrentTuningRequests is the multi-tenant regression test: 8
// sessions hammer one controller (one shared tuner, one shared guardrail)
// through HandleTuningRequest at once. Run under -race this pins down
// the controller's concurrency contract — the request counter, the
// capture rng and the guardrail must all be synchronized, and every
// request must still produce a valid, approved result against its own
// instance.
func TestConcurrentTuningRequests(t *testing.T) {
	tn, cat := testTuner(t)
	c, err := New(Config{Tuner: tn, Seed: 7, OnlineSteps: 3})
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 8
	loads := workload.All()
	var wg sync.WaitGroup
	results := make([]RequestResult, sessions)
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			db := simdb.New(knobs.EngineCDB, simdb.CDBA, int64(1000+i))
			results[i], errs[i] = c.HandleTuningRequest(context.Background(), db, loads[i%len(loads)])
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if len(results[i].Values) != cat.Len() {
			t.Fatalf("session %d: %d values, want %d", i, len(results[i].Values), cat.Len())
		}
		if !results[i].Approved {
			t.Fatalf("session %d: auto-approver must approve", i)
		}
	}
	if got := c.Requests(); got != sessions {
		t.Fatalf("Requests = %d, want %d", got, sessions)
	}
}
