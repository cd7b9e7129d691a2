package bench

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/exec"
)

func schedShapes() []*SchedDAG {
	const us = time.Microsecond
	return []*SchedDAG{
		StragglerLevelDAG(3, 3, 200*us, 20*us),
		WideDAG(8, 50*us),
		SkewedLevelDAG(3, 3, 200*us, 20*us),
		StragglerChainDAG(5, 300*us, 20*us),
		FanoutChainDAG(6, 4, 50*us),
		CPUFanoutDAG(6, 4, 20*us),
		ContentionDAG(8, 6),
	}
}

// TestSchedDAGsValid: every builder yields an acyclic graph with at least
// one output and tasks sized to the graph.
func TestSchedDAGsValid(t *testing.T) {
	for _, sd := range schedShapes() {
		if _, err := sd.G.Topo(); err != nil {
			t.Errorf("%s: %v", sd.Name, err)
		}
		if len(sd.Tasks) != sd.G.Len() {
			t.Errorf("%s: %d tasks for %d nodes", sd.Name, len(sd.Tasks), sd.G.Len())
		}
		if len(sd.G.Outputs()) == 0 {
			t.Errorf("%s: no outputs", sd.Name)
		}
		if len(sd.Plan().States) != sd.G.Len() {
			t.Errorf("%s: plan mis-sized", sd.Name)
		}
	}
}

// TestSchedShapesEquivalentAcrossStrategies: the dataflow scheduler
// computes byte-identical values to the level-barrier oracle on every
// stress shape — the correctness half of the scheduler benchmarks.
func TestSchedShapesEquivalentAcrossStrategies(t *testing.T) {
	for _, sd := range schedShapes() {
		lb, err := RunSched(sd, exec.LevelBarrier, 4)
		if err != nil {
			t.Fatalf("%s level-barrier: %v", sd.Name, err)
		}
		df, err := RunSched(sd, exec.Dataflow, 4)
		if err != nil {
			t.Fatalf("%s dataflow: %v", sd.Name, err)
		}
		if err := SchedValuesEqual(df, lb); err != nil {
			t.Errorf("%s: %v", sd.Name, err)
		}
	}
}

// bestWall is the fastest of n runs of the shape under the strategy.
func bestWall(t *testing.T, sd *SchedDAG, sched exec.Strategy, n int) time.Duration {
	t.Helper()
	best := time.Duration(1<<62 - 1)
	for i := 0; i < n; i++ {
		res, err := RunSched(sd, sched, 4)
		if err != nil {
			t.Fatal(err)
		}
		if res.Wall < best {
			best = res.Wall
		}
	}
	return best
}

// TestFanoutChainCriticalPathBeatsMinID: on the fanout-chain shape the
// chain carries the highest IDs, so an ordering that drains the cheap
// branches first pays short/workers + depth task-lengths. The level-barrier
// executor pays the same makespan (every branch sits in the chain head's
// level), which makes it the reference; critical-path dataflow starts the
// chain at once and must be measurably faster.
func TestFanoutChainCriticalPathBeatsMinID(t *testing.T) {
	sd := FanoutChainDAG(12, 6, time.Millisecond)
	cp := bestWall(t, sd, exec.Dataflow, 5)
	lb := bestWall(t, sd, exec.LevelBarrier, 5)
	if float64(cp) > 0.9*float64(lb) {
		t.Errorf("critical-path %v not measurably faster than branch-first level-barrier %v on fanout-chain", cp, lb)
	}
}

// TestCPUFanoutCriticalPathNotSlower: with spin-loop tasks the ordering win
// needs spare cores, but critical-path dataflow must never be slower than
// the branch-first level-barrier order beyond noise.
func TestCPUFanoutCriticalPathNotSlower(t *testing.T) {
	sd := CPUFanoutDAG(12, 6, 500*time.Microsecond)
	cp := bestWall(t, sd, exec.Dataflow, 3)
	lb := bestWall(t, sd, exec.LevelBarrier, 3)
	if float64(cp) > 1.25*float64(lb) {
		t.Errorf("critical-path %v slower than level-barrier %v beyond noise on cpu-fanout", cp, lb)
	}
	if runtime.NumCPU() >= 4 && float64(cp) > 0.95*float64(lb) {
		t.Logf("note: %d cores available but critical-path %v did not beat level-barrier %v", runtime.NumCPU(), cp, lb)
	}
}

// TestFanoutChainHeadRunsFirst is the ordering property the fanout-chain
// shape exists to show: with one worker and no history, the structural
// critical-path weights put the chain head — the run's long pole, built
// with the highest IDs — ahead of every cheap fanout branch, so it runs
// right after the root.
func TestFanoutChainHeadRunsFirst(t *testing.T) {
	sd := FanoutChainDAG(6, 4, 0)
	var order []string
	tasks := make([]exec.Task, len(sd.Tasks))
	for i, task := range sd.Tasks {
		name, run := sd.G.Node(dag.NodeID(i)).Name, task.Run
		tasks[i] = exec.Task{Run: func(ctx context.Context, in []any) (any, error) {
			order = append(order, name) // single worker: no lock needed
			return run(ctx, in)
		}}
	}
	e := &exec.Engine{Workers: 1}
	if _, err := e.Execute(sd.G, tasks, sd.Plan()); err != nil {
		t.Fatal(err)
	}
	if len(order) < 2 || order[0] != "root" || order[1] != "chain0" {
		t.Errorf("dispatch order = %v, want root then chain0", order)
	}
}

// TestMeasureDispatch: the BENCH_3 measurement helper reports the shape,
// a positive wall, and a non-zero peak (the structural cold-size floor
// guarantees estimates before any size is learned), and its run agrees
// with the level-barrier oracle.
func TestMeasureDispatch(t *testing.T) {
	sd := ContentionDAG(8, 6)
	m, res, err := MeasureDispatch(sd, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || len(res.Values) != len(sd.G.Outputs()) {
		t.Fatalf("measured run result missing or wrong size: %+v", res)
	}
	if m.Shape != sd.Name || m.Nodes != sd.G.Len() || m.Workers != 4 {
		t.Errorf("measurement metadata wrong: %+v", m)
	}
	if m.WallMS <= 0 {
		t.Errorf("wall not measured: %+v", m)
	}
	if m.PeakLiveBytes <= 0 {
		t.Errorf("peak live bytes not measured (cold structural floor missing?): %+v", m)
	}
	lb, err := RunSched(sd, exec.LevelBarrier, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := SchedOutputsEqual(sd.G, res, lb); err != nil {
		t.Errorf("measured run disagrees with the level-barrier oracle: %v", err)
	}
}

// TestLiarAdaptiveBeatsStatic is the online re-prioritization acceptance
// check on the deceptive-estimate LiarDAG shape: the lying history buries
// the true long-pole chain behind claimed-expensive decoys, so static
// critical-path pays the whole chain as a serial tail while adaptive
// re-weighting corrects the decoy group off the first measured
// completions. Work-stealing declines a deceptively under-weighted local
// top in favor of the published global best (the stranding consult), so
// the lie costs static dispatch the whole serial tail instead of being
// accidentally rescued by steal-half stranding. The design-point gap is
// ~25-40% at 8 workers; the assertion demands 15%: on a throttled CI host
// a slow window inflates both modes' walls by the same additive freeze
// time, which preserves the absolute gap but pushes the ratio toward 1,
// so the factor carries slack for exactly that signature. The shape is
// sleep-dominated so the gap does not depend on spare cores, each mode
// takes its min over five runs (one clean run per mode is all the
// comparison needs), and values must be byte-identical across modes.
func TestLiarAdaptiveBeatsStatic(t *testing.T) {
	const factor = 0.85
	t.Run("worksteal", func(t *testing.T) {
		best := func(mode exec.Reweight) (time.Duration, *exec.Result) {
			min := time.Duration(1<<62 - 1)
			var bestRes *exec.Result
			for i := 0; i < 5; i++ {
				sd := DefaultLiarDAG()
				_, res, err := MeasureReweight(sd, DefaultLiarHistory(sd), mode, 8)
				if err != nil {
					t.Fatal(err)
				}
				if res.Wall < min {
					min = res.Wall
					bestRes = res
				}
				if mode == exec.Adaptive && res.Reweights == 0 {
					t.Error("adaptive run performed no re-prioritization passes")
				}
			}
			return min, bestRes
		}
		ad, adRes := best(exec.Adaptive)
		off, offRes := best(exec.ReweightOff)
		if err := SchedValuesEqual(adRes, offRes); err != nil {
			t.Fatal(err)
		}
		if float64(ad) > factor*float64(off) {
			t.Errorf("adaptive min-wall %v not ≥%.0f%% below static %v on the liar shape",
				ad, 100*(1-factor), off)
		}
	})
}

// TestMeasureReweightMetadata: the reweight measurement helper reports the
// configuration it ran and a positive wall, and an adaptive liar run
// counts its passes.
func TestMeasureReweightMetadata(t *testing.T) {
	sd := DefaultLiarDAG()
	m, res, err := MeasureReweight(sd, DefaultLiarHistory(sd), exec.Adaptive, 8)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shape != "liar" || m.Nodes != sd.G.Len() || m.Workers != 8 ||
		m.Reweight != "adaptive" {
		t.Errorf("measurement metadata wrong: %+v", m)
	}
	if m.WallMS <= 0 {
		t.Errorf("wall not measured: %+v", m)
	}
	if m.Reweights == 0 || m.Reweights != res.Reweights {
		t.Errorf("reweight passes not carried through: %+v vs result %d", m, res.Reweights)
	}
}

// TestRunSchedReleaseDropsIntermediates: releasing intermediates on a
// stress shape leaves only output values behind, and they match the
// retain-everything RunSched run.
func TestRunSchedReleaseDropsIntermediates(t *testing.T) {
	sd := FanoutChainDAG(4, 3, 0)
	full, err := RunSched(sd, exec.Dataflow, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := &exec.Engine{Workers: 4, ReleaseIntermediates: true}
	rel, err := e.Execute(sd.G, sd.Tasks, sd.Plan())
	if err != nil {
		t.Fatal(err)
	}
	outputs := sd.G.Outputs()
	if len(rel.Values) != len(outputs) {
		t.Errorf("release retained %d values, want %d outputs", len(rel.Values), len(outputs))
	}
	for _, o := range outputs {
		if !reflect.DeepEqual(rel.Values[o], full.Values[o]) {
			t.Errorf("output %d differs under release: %v vs %v", o, rel.Values[o], full.Values[o])
		}
	}
}
