package sched

import (
	"testing"

	"repro/internal/splitmix"
)

// The satellite fix behind these tests: gpuNames re-sorted into a fresh
// slice and finishAssignment re-allocated its Load map on every call. The
// Into variants sort/recompute into caller-owned buffers; these regression
// tests pin the steady-state allocation counts at zero.

func TestFinishAssignmentIntoAllocFree(t *testing.T) {
	tm := twoGPUTimes()
	a := Assignment{GPUOf: []string{"fast", "slow", "fast", "slow"}}
	load := make(map[string]float64, len(tm))
	finishAssignmentInto(&a, tm, load) // warm the map's buckets
	allocs := testing.AllocsPerRun(100, func() {
		finishAssignmentInto(&a, tm, load)
	})
	if allocs != 0 {
		t.Fatalf("finishAssignmentInto allocated %.1f objects per call, want 0", allocs)
	}
}

func TestGPUNamesIntoAllocFree(t *testing.T) {
	tm := twoGPUTimes()
	buf := make([]string, 0, len(tm))
	allocs := testing.AllocsPerRun(100, func() {
		buf = tm.gpuNamesInto(buf)
	})
	if allocs != 0 {
		t.Fatalf("gpuNamesInto allocated %.1f objects per call with a warm buffer, want 0", allocs)
	}
}

// TestMoveEvalAllocFree pins the //dnnperf:allocfree contract of the
// incremental hot path: evaluating and applying moves/swaps in steady
// state allocates nothing.
func TestMoveEvalAllocFree(t *testing.T) {
	dt := Synthetic(2000, 8, 3)
	rng := splitmix.New(9)
	s := randomState(dt, &rng)
	allocs := testing.AllocsPerRun(1000, func() {
		i := rng.Intn(s.n)
		to := int32(rng.Intn(s.g - 1))
		if to >= s.gpuOf[i] {
			to++
		}
		_ = s.evalMove(i, to)
		j := rng.Intn(s.n)
		if s.gpuOf[i] != s.gpuOf[j] {
			if s.evalSwap(i, j) < 2*s.span {
				s.applySwap(i, j) // swap application is list-append-free
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state move evaluation allocated %.2f objects per round, want 0", allocs)
	}
}
