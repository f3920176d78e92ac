package sched

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"sort"
	"testing"
)

// scheduleGoldenDigest is the SHA-256 of every map-form entry point's
// output over goldenShapes (see TestScheduleGolden). It was recorded before
// the map-form algorithms were rebuilt on DenseTimes; any drift in a task
// placement, a load bit or a makespan bit changes it.
const scheduleGoldenDigest = "62fa566db1189f55b77d8ea1193b532b5773218258a46be02a7f5cf86ed127f1"

// goldenShapes straddle the brute-force limits (≤ 16 tasks, ≤ 4 GPUs), so
// Auto's exact path and its local-search fallback both contribute.
var goldenShapes = []struct {
	n, g int
	seed int64
}{
	{1, 1, 1}, {4, 1, 2}, {3, 2, 3}, {6, 3, 4}, {9, 2, 5}, {16, 2, 6},
	{5, 4, 7}, {10, 4, 8}, {12, 3, 9},
	{17, 2, 10}, {6, 5, 11}, {40, 3, 12}, {200, 8, 13}, {1000, 8, 14},
}

// quantise rounds every entry up to a multiple of 50 ms, so tasks and GPUs
// tie often and every tie-break rule is exercised.
func quantise(dt *DenseTimes) *DenseTimes {
	for g := 0; g < dt.NumGPUs(); g++ {
		row := dt.Row(g)
		for i, v := range row {
			row[i] = math.Ceil(v*20) / 20
		}
	}
	return dt
}

func hashFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

func hashNames(h hash.Hash, names []string) {
	fmt.Fprintf(h, "%d:", len(names))
	for _, s := range names {
		fmt.Fprintf(h, "%s\x00", s)
	}
}

func hashAssignment(h hash.Hash, a Assignment) {
	hashNames(h, a.GPUOf)
	keys := make([]string, 0, len(a.Load))
	for g := range a.Load {
		keys = append(keys, g)
	}
	sort.Strings(keys)
	for _, g := range keys {
		fmt.Fprintf(h, "%s=", g)
		hashFloat(h, a.Load[g])
	}
	hashFloat(h, a.Makespan)
}

// hashErr records an error's class: search-space refusals are part of the
// contract, anything else is a failure.
func hashErr(t *testing.T, h hash.Hash, what string, err error) bool {
	t.Helper()
	if err == nil {
		return true
	}
	if errors.Is(err, ErrSearchSpace) {
		fmt.Fprintf(h, "%s:search-space", what)
		return false
	}
	t.Fatalf("%s: %v", what, err)
	return false
}

// TestScheduleGolden pins BruteForce, Greedy, GreedyInOrder, ChooseGPU,
// MakespanOf and Auto bit for bit on seeded Synthetic tables, raw and
// quantised: GPUOf, every Load bit, every Makespan bit, Auto's exact flag
// and each search-space refusal feed one digest.
func TestScheduleGolden(t *testing.T) {
	h := sha256.New()
	for _, sh := range goldenShapes {
		for _, quant := range []bool{false, true} {
			dt, other := Synthetic(sh.n, sh.g, sh.seed), Synthetic(sh.n, sh.g, sh.seed+100)
			if quant {
				quantise(dt)
				quantise(other)
			}
			tm, re := dt.Times(), other.Times()
			fmt.Fprintf(h, "|%dx%d/%d/%t|", sh.n, sh.g, sh.seed, quant)

			choice, err := ChooseGPU(tm, sh.n)
			hashErr(t, h, "ChooseGPU", err)
			hashNames(h, choice)

			var plans []Assignment
			if a, err := BruteForce(tm, sh.n); hashErr(t, h, "BruteForce", err) {
				hashAssignment(h, a)
				plans = append(plans, a)
			}
			for _, run := range []struct {
				name string
				f    func(Times, int) (Assignment, error)
			}{{"Greedy", Greedy}, {"GreedyInOrder", GreedyInOrder}} {
				a, err := run.f(tm, sh.n)
				hashErr(t, h, run.name, err)
				hashAssignment(h, a)
				plans = append(plans, a)
			}
			a, exact, err := Auto(tm, sh.n)
			hashErr(t, h, "Auto", err)
			fmt.Fprintf(h, "exact=%t", exact)
			hashAssignment(h, a)
			plans = append(plans, a)

			// Re-cost every plan under an independent table of the same
			// shape, as Figure 19 re-costs a predicted plan with measured
			// times.
			for _, p := range plans {
				span, err := MakespanOf(p.GPUOf, re)
				hashErr(t, h, "MakespanOf", err)
				hashFloat(h, span)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != scheduleGoldenDigest {
		t.Fatalf("schedule golden digest = %s, want %s", got, scheduleGoldenDigest)
	}
}

// TestMapEntryPointsRejectDegenerateTables: every map-form entry point runs
// on the dense table, so each rejects what NewDenseTimes rejects even where
// Times.Validate accepts it — an empty task list and an empty GPU name.
func TestMapEntryPointsRejectDegenerateTables(t *testing.T) {
	for _, tc := range []struct {
		name string
		tm   Times
		n    int
	}{
		{"zero-tasks", Times{"a": {}, "b": {}}, 0},
		{"empty-gpu-name", Times{"": {1, 2}, "b": {2, 1}}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.tm.Validate(tc.n); err != nil {
				t.Fatalf("Validate rejects the table (%v); the case no longer tests the dense path", err)
			}
			gpuOf := make([]string, tc.n)
			for i := range gpuOf {
				gpuOf[i] = "b"
			}
			var checks [7]struct {
				name string
				err  error
			}
			_, checks[0].err = ChooseGPU(tc.tm, tc.n)
			_, checks[1].err = BruteForce(tc.tm, tc.n)
			_, checks[2].err = Greedy(tc.tm, tc.n)
			_, checks[3].err = GreedyInOrder(tc.tm, tc.n)
			_, _, checks[4].err = Auto(tc.tm, tc.n)
			_, checks[5].err = MakespanOf(gpuOf, tc.tm)
			_, checks[6].err = FromTimes(tc.tm, tc.n)
			for i, name := range []string{"ChooseGPU", "BruteForce", "Greedy", "GreedyInOrder", "Auto", "MakespanOf", "FromTimes"} {
				checks[i].name = name
			}
			for _, c := range checks {
				if c.err == nil {
					t.Errorf("%s accepted the table", c.name)
				} else if errors.Is(c.err, ErrSearchSpace) {
					t.Errorf("%s: %v is a search-space refusal, want a validation error", c.name, c.err)
				}
			}
		})
	}
}
