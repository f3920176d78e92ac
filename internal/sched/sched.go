// Package sched implements case study 3 (§6): using the performance models
// to make real-time scheduling decisions across heterogeneous GPUs — both
// per-network GPU selection (Figure 18) and whole-queue makespan-minimizing
// assignment (Figure 19), where the models' speed makes brute-force search
// practical.
//
// Beyond the paper's 6-task scale, the package is a cluster-scale makespan
// optimizer: DenseTimes holds the time table flat and gpu-major and is the
// only table any algorithm reads, Schedule runs LPT-lookahead construction
// plus multi-start annealed local search with O(1) incremental move
// evaluation, and LowerBound certifies the optimality gap. AutoSchedule
// routes between the two regimes by instance size.
package sched

import (
	"errors"
	"fmt"
	"math"
)

// Task is one network inference job in the queue.
type Task struct {
	// Name identifies the network.
	Name string
	// Batch is the inference batch size.
	Batch int
}

// Times holds per-GPU execution time estimates (or measurements) for a task
// list: Times[gpuName][i] is task i's time on that GPU, in seconds. It is
// the input format of the map-form entry points; FromTimes converts it to
// the DenseTimes every algorithm reads.
type Times map[string][]float64

// Validate checks that every GPU has one time per task and all are positive.
func (tm Times) Validate(nTasks int) error {
	if len(tm) == 0 {
		return fmt.Errorf("sched: no GPUs")
	}
	for g, ts := range tm {
		if len(ts) != nTasks {
			return fmt.Errorf("sched: GPU %q has %d times for %d tasks", g, len(ts), nTasks)
		}
		for i, t := range ts {
			if t <= 0 || math.IsNaN(t) || math.IsInf(t, 0) {
				return fmt.Errorf("sched: GPU %q task %d has non-positive time %v", g, i, t)
			}
		}
	}
	return nil
}

// Assignment maps each task index to a GPU and reports the resulting
// per-GPU loads and makespan. It is the name-form result of the map-form
// entry points; DenseAssignment.Assignment builds it.
type Assignment struct {
	// GPUOf[i] is the GPU task i runs on.
	GPUOf []string
	// Load is each GPU's total assigned time, seconds.
	Load map[string]float64
	// Makespan is the maximum load — the overall completion time.
	Makespan float64
}

// The map-form entry points below are the small-instance API the case
// studies and the facade call. Each converts its table with FromTimes (GPU
// ids in sorted name order, so ties resolve toward the lexicographically
// first GPU), runs the dense algorithm and expands the result. FromTimes
// rejects two inputs Validate alone accepts: an empty task list and an
// empty GPU name.

// onDense runs a dense scheduling algorithm on a map-form table.
func onDense(tm Times, nTasks int, schedule func(*DenseTimes) (*DenseAssignment, error)) (Assignment, error) {
	dt, err := FromTimes(tm, nTasks)
	if err != nil {
		return Assignment{}, err
	}
	a, err := schedule(dt)
	if err != nil {
		return Assignment{}, err
	}
	return a.Assignment(dt), nil
}

// ChooseGPU returns, for each task, the GPU with the smallest time — the
// per-network decision of Figure 18 ("which GPU runs the network faster").
func ChooseGPU(tm Times, nTasks int) ([]string, error) {
	dt, err := FromTimes(tm, nTasks)
	if err != nil {
		return nil, err
	}
	out := make([]string, nTasks)
	for i, g := range taskMins(dt).arg {
		out[i] = dt.gpus[g]
	}
	return out, nil
}

// BruteForce is BruteForceSchedule on a map-form table.
func BruteForce(tm Times, nTasks int) (Assignment, error) {
	return onDense(tm, nTasks, BruteForceSchedule)
}

// Greedy is the longest-processing-time (LPT) heuristic, ListSchedule with
// lookahead 1: tasks sorted by their best-GPU time descending, each placed
// on the GPU minimizing the resulting completion time. Sorting
// longest-first is what buys the classical approximation guarantee — on
// identical machines LPT is within 4/3 − 1/(3g) of optimal (Graham 1969),
// versus 2 − 1/g for arbitrary-order list scheduling — and heterogeneous
// fleets inherit it as a strong baseline. GreedyInOrder keeps the unsorted
// variant for comparison.
func Greedy(tm Times, nTasks int) (Assignment, error) {
	return onDense(tm, nTasks, func(dt *DenseTimes) (*DenseAssignment, error) {
		return ListSchedule(dt, 1)
	})
}

// GreedyInOrder is list scheduling in input order (InOrderPolicy): each
// task in turn goes to the GPU minimizing its completion time, with no LPT
// sort. This is the order-sensitive variant (worst case 2 − 1/g on
// identical machines) kept for golden comparisons and for queues whose
// arrival order is meaningful.
func GreedyInOrder(tm Times, nTasks int) (Assignment, error) {
	return onDense(tm, nTasks, InOrderPolicy{}.Schedule)
}

// Auto is AutoSchedule on a map-form table.
func Auto(tm Times, nTasks int) (Assignment, bool, error) {
	dt, err := FromTimes(tm, nTasks)
	if err != nil {
		return Assignment{}, false, err
	}
	a, exact, err := AutoSchedule(dt)
	if err != nil {
		return Assignment{}, false, err
	}
	return a.Assignment(dt), exact, nil
}

// MakespanOf evaluates an existing assignment under a different time table —
// e.g. a predicted-time assignment re-costed with measured times, the
// comparison behind Figure 19's "identical to the oracle" claim.
func MakespanOf(gpuOf []string, tm Times) (float64, error) {
	dt, err := FromTimes(tm, len(gpuOf))
	if err != nil {
		return 0, err
	}
	ids := make([]int32, len(gpuOf))
	for i, name := range gpuOf {
		g, ok := dt.GPUIndex(name)
		if !ok {
			return 0, fmt.Errorf("sched: assignment references unknown GPU %q", name)
		}
		ids[i] = int32(g)
	}
	return dt.Makespan(ids)
}

// maxBruteForceTasks and maxBruteForceGPUs bound the exhaustive search
// (g^n assignments).
const (
	maxBruteForceTasks = 16
	maxBruteForceGPUs  = 4
)

// ErrSearchSpace marks a scheduling request whose exhaustive search space is
// too large to enumerate (g^n assignments blow up exponentially). Callers
// detect it with errors.Is and fall back to ListSchedule — or call
// AutoSchedule, which falls back to Schedule.
var ErrSearchSpace = errors.New("sched: search space too large for brute force")

// BruteForceSchedule enumerates every assignment of tasks to GPUs and
// returns one with minimal makespan ("thanks to the extremely fast
// execution, we can easily run a brute force design space search", §6);
// among equal makespans the first enumerated wins. It requires at most 16
// tasks and at most 4 GPUs; beyond either limit it returns an error
// wrapping ErrSearchSpace.
func BruteForceSchedule(dt *DenseTimes) (*DenseAssignment, error) {
	if dt == nil {
		return nil, errNilTable
	}
	if err := dt.Validate(); err != nil {
		return nil, err
	}
	n, g := dt.n, len(dt.gpus)
	if n > maxBruteForceTasks {
		return nil, fmt.Errorf("%w: limited to %d tasks, got %d", ErrSearchSpace, maxBruteForceTasks, n)
	}
	if g > maxBruteForceGPUs {
		return nil, fmt.Errorf("%w: limited to %d GPUs, got %d", ErrSearchSpace, maxBruteForceGPUs, g)
	}

	total := 1
	for i := 0; i < n; i++ {
		total *= g
	}
	best := math.Inf(1)
	bestChoice := make([]int32, n)
	choice := make([]int32, n)
	loads := make([]float64, g)
	for code := 0; code < total; code++ {
		c := code
		clear(loads)
		for i := 0; i < n; i++ {
			gp := c % g
			c /= g
			choice[i] = int32(gp)
			loads[gp] += dt.t[gp*n+i]
		}
		span := 0.0
		for _, l := range loads {
			if l > span {
				span = l
			}
		}
		if span < best {
			best = span
			copy(bestChoice, choice)
		}
	}
	a := &DenseAssignment{GPUOf: bestChoice}
	finishDense(a, dt)
	return a, nil
}

// AutoSchedule runs BruteForceSchedule when the search space permits; when
// it reports ErrSearchSpace it routes to the cluster-scale path —
// LPT-lookahead construction and multi-start local search via Schedule with
// default options. The returned flag is true when the assignment is the
// exact optimum (brute force ran); validation errors are returned as-is,
// never masked by the fallback.
func AutoSchedule(dt *DenseTimes) (*DenseAssignment, bool, error) {
	a, err := BruteForceSchedule(dt)
	if err == nil {
		return a, true, nil
	}
	if !errors.Is(err, ErrSearchSpace) {
		return nil, false, err
	}
	res, err := Schedule(dt, SearchOptions{})
	if err != nil {
		return nil, false, err
	}
	return res.Dense, false, nil
}
