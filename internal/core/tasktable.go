package core

import (
	"fmt"
	"sort"

	"repro/internal/dnn"
)

// Task-table construction: the cluster-scale scheduler consumes a dense
// (GPU × task) time table for queues of up to 10⁶ tasks, where each task
// is one of a handful of networks at some batch size. Predicting per task
// would pay the per-call overhead a million times; instead TaskTimes runs
// one PredictGrid over the referenced networks and the queue's UNIQUE batch
// sizes — bit-identical to per-task prediction by the SweepPredictor
// contract — and scatters the handful of predicted values across the
// million task slots.

// TaskTimes builds the gpu-major time table for a task list: taskNet[i]
// and taskBatch[i] give task i's network (an index into nets) and batch
// size. The result rows follow the models' order (names from GPUName), and
// row g holds task i's seconds at gpuTimes[g*len(taskNet)+i] — the layout
// sched.NewDenseTimes fills via Row. Every referenced network is swept over
// the sorted union of the queue's batch sizes, so a batch beyond one
// network's plan limit (Plan.MaxBatch) fails the table even when only
// another network's tasks use it.
func TaskTimes(models []SweepPredictor, nets []*dnn.Network, taskNet, taskBatch []int) ([]string, []float64, error) {
	nTasks := len(taskNet)
	if nTasks == 0 {
		return nil, nil, fmt.Errorf("core: task table with no tasks")
	}
	if len(taskBatch) != nTasks {
		return nil, nil, fmt.Errorf("core: %d task networks but %d task batches", nTasks, len(taskBatch))
	}
	if len(models) == 0 {
		return nil, nil, fmt.Errorf("core: task table with no models")
	}

	// Grid axes: the referenced networks in input order, and the unique
	// batch sizes sorted so sweep inputs are order-independent.
	col := make([]int, len(nets)) // network → grid network index + 1; 0 if unreferenced
	batchIdx := map[int]int{}     // batch → grid batch index
	for i, nj := range taskNet {
		if nj < 0 || nj >= len(nets) {
			return nil, nil, fmt.Errorf("core: task %d references network %d of %d", i, nj, len(nets))
		}
		if taskBatch[i] <= 0 {
			return nil, nil, fmt.Errorf("core: task %d has non-positive batch %d", i, taskBatch[i])
		}
		col[nj] = 1
		batchIdx[taskBatch[i]] = 0
	}
	var refNets []*dnn.Network
	for j, n := range nets {
		if col[j] != 0 {
			refNets = append(refNets, n)
			col[j] = len(refNets)
		}
	}
	batches := make([]int, 0, len(batchIdx))
	for b := range batchIdx {
		batches = append(batches, b)
	}
	sort.Ints(batches)
	for k, b := range batches {
		batchIdx[b] = k
	}

	grid, err := PredictGrid(models, refNets, batches)
	if err != nil {
		return nil, nil, err
	}

	// Scatter the per-(net, batch) predictions across the task slots.
	taskBatchIdx := make([]int32, nTasks)
	for i, b := range taskBatch {
		taskBatchIdx[i] = int32(batchIdx[b])
	}
	table := make([]float64, len(models)*nTasks)
	for g, secs := range grid.Seconds {
		row := table[g*nTasks : (g+1)*nTasks]
		for i, nj := range taskNet {
			row[i] = secs[col[nj]-1][taskBatchIdx[i]].Float64()
		}
	}
	return grid.GPUs, table, nil
}
