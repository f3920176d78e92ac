package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/fleetsim"
	"repro/internal/gpu"
	"repro/internal/loadgen"
	"repro/internal/sched"
)

// The capacity workload answers the fleetsim capacity question over the
// quick-lab cluster oracle (8 GPU types): a fleetsim.Sweep grid crossing
// fleet sizes on both sides of the knee (≈40 rps saturates 8 replicas),
// the online policies jsq and rr, the whole-trace planned policies lpt and
// search, and Poisson and bursty arrivals. It loads the fleetsim event
// loop, loadgen arrival processes, sched list scheduling, local search and
// lower bounds at 10⁵ tasks per planned cell, and PredictSweep (building
// the step table); it bypasses HTTP.

const (
	capacityRequests = 100_000 // requests per cell: 10⁵ tasks per planned cell
	capacityRate     = 40.0    // rps; saturates 8 replicas of this fleet
	capacityMaxBatch = 8
	capacityPostProc = 200e-6 // seconds, dnnperf fleetsim's default
	capacityP99      = 1.0    // seconds, target of the capacity answer
	capacityCanary   = "perfbench/capacity_canary.sha256"
	capacitySetups   = 3 // oracle fits per run; setup_s is their median
	// capacityCellPasses is how often each cell is timed for p50_ms.
	capacityCellPasses = 3
)

var (
	capacityFleets   = []int{4, 8, 12}
	capacityPolicies = []string{"jsq", "rr", "lpt", "search"}
	capacityArrivals = []loadgen.Arrival{loadgen.Poisson, loadgen.Bursty}
)

// capacityGrid is the seeded scenario grid: Grid's fleet × rate product
// for each arrival process and policy.
func capacityGrid(seed int64, requests int, fleets []int) []fleetsim.Scenario {
	var out []fleetsim.Scenario
	for ai, a := range capacityArrivals {
		for pi, pol := range capacityPolicies {
			// Each (arrival, policy) row replays its own trace across the
			// fleet sizes, so a run averages over several independent
			// traces instead of one.
			base := fleetsim.Scenario{
				Arrival:   a,
				Requests:  requests,
				MaxBatch:  capacityMaxBatch,
				PostProcS: capacityPostProc,
				Seed:      seed*64 + int64(ai*len(capacityPolicies)+pi),
			}
			for _, sc := range fleetsim.Grid(base, fleets, []float64{capacityRate}, []string{pol}) {
				sc.Name = string(a) + "-" + sc.Name
				out = append(out, sc)
			}
		}
	}
	return out
}

// capacityAnswer is the checked output: every cell's simulated statistics
// and the smallest fleet meeting the p99 target per (arrival, rate, policy).
type capacityAnswer struct {
	Cells    []fleetsim.ScenarioResult `json:"cells"`
	MinFleet map[string]map[string]int `json:"min_fleet_for_p99"`
}

func answerOf(results []fleetsim.ScenarioResult) capacityAnswer {
	a := capacityAnswer{Cells: results, MinFleet: map[string]map[string]int{}}
	// MinFleetForP99 keys cells by (rate, policy), so each arrival process
	// gets its own call.
	for _, arr := range capacityArrivals {
		var sub []fleetsim.ScenarioResult
		for _, r := range results {
			if r.Scenario.Arrival == arr {
				sub = append(sub, r)
			}
		}
		a.MinFleet[string(arr)] = fleetsim.MinFleetForP99(sub, capacityP99)
	}
	return a
}

func (a capacityAnswer) digest() string {
	b, err := json.Marshal(a)
	if err != nil {
		// A NaN or Inf statistic cannot be encoded; the digest then
		// matches nothing, so the check fails.
		return "unencodable: " + err.Error()
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// checkCells counts cells whose statistics break the simulator's
// invariants: every request served, events = arrivals + batches, ordered
// quantiles.
func checkCells(o *outcome, results []fleetsim.ScenarioResult) {
	for _, r := range results {
		o.attempted++
		res, sc := r.Result, r.Scenario
		ok := res.Requests == int64(sc.Requests) && res.Unfinished == 0 &&
			res.Events == res.Requests+res.Batches &&
			res.P50S > 0 && res.P50S <= res.P99S && res.P99S <= res.MaxS
		if !ok {
			o.fail(1, "cell %s: inconsistent result %+v", sc.Name, res)
		}
	}
}

func runCapacity(e *env) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	tr := e.tr

	// Set-up: fit the oracle and compile the step table, three times.
	var (
		st           *fleetsim.StepTable
		lab          *bench.Lab
		fitS, tableS []float64
		points       int
	)
	setupRoot := tr.begin("capacity.setup", spanRef{})
	setupS, err := repeatSetup(capacitySetups, func() error {
		lab = bench.NewQuickLab()
		sp := tr.begin("core.fit_oracle_s", setupRoot)
		models, nets, err := bench.FleetOracle(lab)
		fitS = append(fitS, sp.end(nil).Seconds())
		if err != nil {
			return err
		}
		sp = tr.begin("fleetsim.steptable_s", setupRoot)
		t0 := time.Now()
		st, err = fleetsim.BuildStepTable(models, nets, capacityMaxBatch)
		tableS = append(tableS, time.Since(t0).Seconds())
		sp.end(nil)
		points = len(models) * len(nets) * capacityMaxBatch
		return err
	})
	setupRoot.end(nil)
	if err != nil {
		return nil, err
	}

	// Canary: a fixed-seed grid whose answer is recorded in the
	// benchmark, so a change in simulated results shows whatever the seed.
	canary, err := fleetsim.Sweep(st, capacityGrid(1, 10_000, []int{8}), 0)
	if err != nil {
		return nil, err
	}
	o.attempted++
	if want, err := os.ReadFile(capacityCanary); err != nil {
		return nil, err
	} else if got := answerOf(canary).digest(); strings.TrimSpace(string(want)) != got {
		o.fail(1, "capacity canary digest %s, want %s", got, strings.TrimSpace(string(want)))
	}

	grid := capacityGrid(e.seed, capacityRequests, capacityFleets)
	var (
		walls, simRPS []float64
		first         string
	)
	// The measured sweeps run on one worker: on a shared 2-core host a
	// two-worker sweep's wall time follows how its cells happen to
	// interleave with the host's other load (run medians 1.45–2.1 s at one
	// seed), where one worker's stays within ±5%. The parallel sweep is
	// timed in the traced run, for fleetsim.sweep_parallel_eff.
	measureStart := time.Now()
	for len(walls) == 0 || (tr == nil && time.Since(measureStart).Seconds() < e.seconds) {
		t0 := time.Now()
		results, err := fleetsim.Sweep(st, grid, 1)
		wall := time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		walls = append(walls, wall)
		var reqs int64
		for _, r := range results {
			reqs += r.Result.Requests
		}
		simRPS = append(simRPS, float64(reqs)/wall)
		checkCells(o, results)
		// Every repeat of the sweep must reproduce the first exactly.
		d := answerOf(results).digest()
		o.attempted++
		if first == "" {
			first = d
		} else if d != first {
			o.fail(1, "sweep repeat digest %s differs from first %s", d, first)
		}
	}
	o.e2e["wall_s"] = median(walls)
	o.e2e["setup_s"] = setupS
	o.e2e["peak_rps"] = median(simRPS)

	cellMS, err := cellLatencies(st, grid)
	if err != nil {
		return nil, err
	}
	o.e2e["p50_ms"] = median(cellMS)
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	o.e2e["peak_rss_mb"] = rss
	if err := quickLabAccuracy(o, lab); err != nil {
		return nil, err
	}

	if tr == nil {
		return o, nil
	}
	o.layers["core.fit_oracle_s"] = median(fitS)
	o.layers["fleetsim.steptable_s"] = median(tableS)
	o.layers["core.sweep_ns_per_point"] = median(tableS) * 1e9 / float64(points)
	return o, tracedSweep(o, tr, st, grid, walls[0], first)
}

// cellLatencies times every cell of the grid alone (Scenario.Run on one
// goroutine, so no cell shares the CPU with another), capacityCellPasses
// times, and returns each cell's median in ms: the latency of one capacity
// query.
func cellLatencies(st *fleetsim.StepTable, grid []fleetsim.Scenario) ([]float64, error) {
	per := make([][]float64, len(grid))
	for pass := 0; pass < capacityCellPasses; pass++ {
		for i := range grid {
			t0 := time.Now()
			if _, err := grid[i].Run(st); err != nil {
				return nil, err
			}
			per[i] = append(per[i], time.Since(t0).Seconds()*1e3)
		}
	}
	out := make([]float64, len(grid))
	for i, xs := range per {
		out[i] = median(xs)
	}
	return out, nil
}

// quickLabAccuracy holds model accuracy fixed on the quick lab the
// workload runs on: Figure 13's held-out KW error on A100 and Figure 14's
// IGKW error on the unseen TITAN RTX.
func quickLabAccuracy(o *outcome, lab *bench.Lab) error {
	f13, err := bench.Figure13(lab, gpu.A100)
	if err != nil {
		return err
	}
	f14, err := bench.Figure14(lab)
	if err != nil {
		return err
	}
	o.e2e["kw_err"] = f13.Curve.MeanError
	o.e2e["igkw_err"] = f14.Curve.MeanError
	return nil
}

// gapPolicy is sched's local-search policy, keeping the certified
// optimality gap that SearchPolicy discards.
type gapPolicy struct {
	mu   *sync.Mutex
	gaps *[]float64
}

func (gapPolicy) Name() string { return sched.SearchPolicy{}.Name() }

func (p gapPolicy) Schedule(dt *sched.DenseTimes) (*sched.DenseAssignment, error) {
	res, err := sched.Schedule(dt, sched.SearchOptions{})
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	*p.gaps = append(*p.gaps, res.Gap)
	p.mu.Unlock()
	return res.Dense, nil
}

// tracedSweep replays the grid cell by cell on one goroutine, as the
// untraced sweeps do, with one span per layer call. The cells are built
// from the public pieces Scenario.Build composes (arrivals, trace, route
// plan, sim), so planning and replay are timed apart; the answer must
// equal Sweep's. A final untraced fleetsim.Sweep on GOMAXPROCS workers
// gives the parallel efficiency against the one-worker sweep.
func tracedSweep(o *outcome, tr *tracer, st *fleetsim.StepTable, grid []fleetsim.Scenario, untracedWall float64, want string) error {
	var (
		mu                           sync.Mutex
		gaps                         []float64
		buildSum, replaySum, planSum float64
		events, batches              int64
	)
	results := make([]fleetsim.ScenarioResult, len(grid))
	root := tr.begin("fleetsim.sweep", spanRef{})
	start := time.Now()
	for i, sc := range grid {
		cell := tr.begin("fleetsim.cell", root)
		res, build, plan, replay, err := tracedCell(tr, cell, st, sc, gapPolicy{&mu, &gaps})
		cell.end(map[string]any{"scenario": sc.Name})
		if err != nil {
			return fmt.Errorf("cell %s: %w", sc.Name, err)
		}
		results[i] = fleetsim.ScenarioResult{Scenario: sc, Result: res}
		buildSum += build
		planSum += plan
		replaySum += replay
		events += res.Events
		batches += res.Batches
	}
	wall := time.Since(start).Seconds()
	root.end(nil)
	o.attempted++
	if got := answerOf(results).digest(); got != want {
		o.fail(1, "traced sweep digest %s differs from fleetsim.Sweep's %s", got, want)
	}

	workers := min(runtime.GOMAXPROCS(0), len(grid))
	sp := tr.begin("fleetsim.sweep_parallel", spanRef{})
	t0 := time.Now()
	par, err := fleetsim.Sweep(st, grid, workers)
	parWall := time.Since(t0).Seconds()
	sp.end(map[string]any{"workers": workers})
	if err != nil {
		return err
	}
	o.attempted++
	if got := answerOf(par).digest(); got != want {
		o.fail(1, "parallel sweep digest %s differs from the one-worker sweep's %s", got, want)
	}

	o.layers["trace.overhead_s"] = wall - untracedWall
	o.layers["fleetsim.build_s"] = buildSum
	o.layers["sched.plan_s"] = planSum
	o.layers["fleetsim.replay_s"] = replaySum
	o.layers["fleetsim.events_per_s"] = float64(events) / replaySum
	// Σ per-cell time is the one-worker sweep's wall time.
	o.layers["fleetsim.sweep_parallel_eff"] = untracedWall / (parWall * float64(workers))
	o.layers["fleetsim.events"] = float64(events)
	o.layers["fleetsim.batches"] = float64(batches)
	o.layers["sched.gap"] = meanOf(gaps)
	return nil
}

// tracedCell builds and replays one scenario the way Scenario.Build and
// Scenario.Run do, returning the build, plan and replay seconds.
func tracedCell(tr *tracer, parent spanRef, st *fleetsim.StepTable, sc fleetsim.Scenario, search sched.Policy) (res fleetsim.Result, build, plan, replay float64, err error) {
	router, pol, err := fleetsim.ParsePolicy(sc.Policy)
	if err != nil {
		return res, 0, 0, 0, err
	}
	if _, ok := pol.(sched.SearchPolicy); ok {
		pol = search
	}
	sp := tr.begin("fleetsim.build_s", parent)
	fleet := make([]int32, sc.FleetSize)
	for i := range fleet {
		fleet[i] = int32(i % len(st.GPUs()))
	}
	proc, err := loadgen.NewArrivals(sc.Arrival, loadgen.ArrivalsConfig{Rate: sc.RateRPS, Seed: sc.Seed})
	if err != nil {
		return res, 0, 0, 0, err
	}
	trace, err := fleetsim.BuildTrace(proc, len(st.Nets()), sc.Requests, sc.Seed+0x5eed)
	build += sp.end(nil).Seconds()
	if err != nil {
		return res, 0, 0, 0, err
	}
	cfg := fleetsim.Config{Fleet: fleet, MaxBatch: sc.MaxBatch, PostProcS: sc.PostProcS, Router: router, Seed: sc.Seed}
	if pol != nil {
		sp = tr.begin("sched.plan_s", parent)
		cfg.Planned, err = fleetsim.PlanRoute(st, fleet, trace, pol)
		plan = sp.end(map[string]any{"policy": pol.Name(), "tasks": trace.Len()}).Seconds()
		if err != nil {
			return res, 0, 0, 0, err
		}
	}
	sp = tr.begin("fleetsim.build_s", parent)
	sim, err := fleetsim.NewSim(st, cfg, trace)
	build += sp.end(nil).Seconds()
	if err != nil {
		return res, 0, 0, 0, err
	}
	sp = tr.begin("fleetsim.replay_s", parent)
	res = sim.Replay()
	replay = sp.end(map[string]any{"events": res.Events}).Seconds()
	res.Util = append([]float64(nil), res.Util...)
	res.MaxQueueDepth = append([]int32(nil), res.MaxQueueDepth...)
	return res, build, plan, replay, nil
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}
