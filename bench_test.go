// Package repro_test holds the benchmark harness entry points: one
// testing.B benchmark per paper artifact (Figure 2a, Figure 2b, the §3.2
// optimized-vs-unoptimized rerun) plus micro-benchmarks for the components
// the design choices in DESIGN.md call out (PSP recomputation optimizer,
// max-flow core, materialization policies, store codec, learners).
//
// Scenario benchmarks report cumulative-runtime per replay; the per-system
// ordering (helix < deepdive < keystoneml/unopt) is the reproduction target,
// not absolute numbers. Larger, figure-scale runs live in cmd/helix-bench.
package repro_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/maxflow"
	"repro/internal/ml"
	"repro/internal/opt"
	"repro/internal/seq"
	"repro/internal/store"
	"repro/internal/systems"
	"repro/internal/workload"
)

// --- Figure 2(a): IE task, cumulative runtime over 10 iterations ---

func benchScenario(b *testing.B, kind systems.Kind, sc *workload.Scenario, limit int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunScenario(kind, sc, b.TempDir(), limit)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Cumulative().Milliseconds()), "cum-ms")
	}
}

func ieScenario() *workload.Scenario {
	return workload.IEScenario(workload.GenerateNews(120, 30, 2018))
}

func BenchmarkFig2aHelix(b *testing.B)      { benchScenario(b, systems.Helix, ieScenario(), 0) }
func BenchmarkFig2aDeepDive(b *testing.B)   { benchScenario(b, systems.DeepDive, ieScenario(), 0) }
func BenchmarkFig2aHelixUnopt(b *testing.B) { benchScenario(b, systems.HelixUnopt, ieScenario(), 0) }

// --- Figure 2(b): Census classification, cumulative runtime ---

func censusScenario() *workload.Scenario {
	return workload.CensusScenario(workload.GenerateCensus(4000, 1000, 2018))
}

func BenchmarkFig2bHelix(b *testing.B) { benchScenario(b, systems.Helix, censusScenario(), 0) }

// DeepDive's ML/eval components are not user-configurable; as in the paper's
// plot, its series covers only the first two iterations.
func BenchmarkFig2bDeepDive(b *testing.B) { benchScenario(b, systems.DeepDive, censusScenario(), 2) }
func BenchmarkFig2bKeystoneML(b *testing.B) {
	benchScenario(b, systems.KeystoneML, censusScenario(), 0)
}

// --- §3.2: identical-version rerun, optimized vs unoptimized ---

func benchRerun(b *testing.B, kind systems.Kind) {
	b.Helper()
	data := workload.GenerateCensus(4000, 1000, 2018)
	p := workload.DefaultCensusParams(data)
	opts, err := systems.Preset(kind, b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	sess, err := core.Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Run(p.Build()); err != nil {
		b.Fatal(err) // prime the store
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Run(p.Build()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRerunOptimized(b *testing.B)   { benchRerun(b, systems.Helix) }
func BenchmarkRerunUnoptimized(b *testing.B) { benchRerun(b, systems.HelixUnopt) }

// --- §2.2 ablation: recomputation optimizer (PSP reduction) scaling ---

func randomWorkflowDAG(n int, seed int64) (*dag.Graph, *opt.CostModel) {
	rng := rand.New(rand.NewSource(seed))
	g := dag.New()
	for i := 0; i < n; i++ {
		g.MustAddNode(fmt.Sprintf("n%d", i), "op")
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n && v < u+8; v++ {
			if rng.Float64() < 0.3 {
				g.MustAddEdge(dag.NodeID(u), dag.NodeID(v))
			}
		}
	}
	g.Node(dag.NodeID(n - 1)).Output = true
	cm := opt.NewCostModel(n)
	for i := 0; i < n; i++ {
		cm.Compute[i] = int64(rng.Intn(1000) + 1)
		if rng.Float64() < 0.5 {
			cm.Loadable[i] = true
			cm.Load[i] = int64(rng.Intn(1000) + 1)
		}
	}
	return g, cm
}

func benchOptimal(b *testing.B, n int) {
	b.Helper()
	g, cm := randomWorkflowDAG(n, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Optimal(g, cm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecompute16(b *testing.B)  { benchOptimal(b, 16) }
func BenchmarkRecompute64(b *testing.B)  { benchOptimal(b, 64) }
func BenchmarkRecompute256(b *testing.B) { benchOptimal(b, 256) }

func BenchmarkRecomputeGreedy64(b *testing.B) {
	g, cm := randomWorkflowDAG(64, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.GreedyLoadAll(g, cm); err != nil {
			b.Fatal(err)
		}
	}
}

// --- max-flow core ---

func BenchmarkMaxFlowDinic(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	type edge struct {
		u, v int
		c    int64
	}
	n := 200
	var edges []edge
	for u := 0; u < n; u++ {
		for k := 0; k < 6; k++ {
			v := rng.Intn(n)
			if v != u {
				edges = append(edges, edge{u, v, int64(rng.Intn(100) + 1)})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := maxflow.NewSized(n)
		for _, e := range edges {
			g.AddEdge(e.u, e.v, e.c)
		}
		g.MaxFlow(0, n-1)
	}
}

// --- §2.3 ablation: materialization policies and offline knapsack ---

func BenchmarkMatPolicyDecisions(b *testing.B) {
	policies := []opt.MatPolicy{opt.OnlineHeuristic{}, opt.MaterializeAll{}, opt.MaterializeNone{}}
	ctx := opt.MatContext{ComputeCost: 1000, AncestorComputeCost: 5000, LoadCost: 100, Size: 1 << 20, BudgetRemaining: 1 << 30}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range policies {
			p.Decide(ctx)
		}
	}
}

func BenchmarkKnapsackOffline(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	items := make([]opt.MatItem, 64)
	for i := range items {
		items[i] = opt.MatItem{
			Node:    dag.NodeID(i),
			Benefit: int64(rng.Intn(10000)),
			Cost:    int64(rng.Intn(1000)),
			Size:    int64(rng.Intn(1 << 20)),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := opt.KnapsackOffline(items, 8<<20, 4096); err != nil {
			b.Fatal(err)
		}
	}
}

// --- store + codec: the load-cost side of the cost model ---

func BenchmarkStoreRoundTripCollection(b *testing.B) {
	cd := workload.GenerateCensus(5000, 1, 1)
	schema := data.MustSchema("age", "workclass", "education", "marital_status", "occupation",
		"race", "sex", "capital_gain", "capital_loss", "hours_per_week", "target")
	coll, err := data.ScanCSV(cd.TrainCSV, schema)
	if err != nil {
		b.Fatal(err)
	}
	st, err := store.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	store.Register(&data.Collection{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := st.Put(key, coll); err != nil {
			b.Fatal(err)
		}
		if _, err := st.Get(key); err != nil {
			b.Fatal(err)
		}
		if err := st.Delete(key); err != nil {
			b.Fatal(err)
		}
	}
}

// --- learner substrates ---

func syntheticTrain(n, dim int) []data.Labeled {
	rng := rand.New(rand.NewSource(5))
	out := make([]data.Labeled, n)
	for i := range out {
		var v data.Vector
		for j := 0; j < dim; j++ {
			if rng.Float64() < 0.3 {
				v.Indices = append(v.Indices, j)
				v.Values = append(v.Values, rng.NormFloat64())
			}
		}
		out[i] = data.Labeled{X: v, Y: float64(rng.Intn(2))}
	}
	return out
}

func BenchmarkTrainLogistic(b *testing.B) {
	train := syntheticTrain(5000, 50)
	cfg := ml.DefaultLogistic(50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.TrainLogistic(train, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkViterbiDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	m := seq.NewModel(200)
	for t := 0; t < seq.NumTags; t++ {
		for f := 0; f < 200; f++ {
			m.Emit[t][f] = rng.NormFloat64()
		}
	}
	sent := make([][]int, 30)
	for i := range sent {
		for k := 0; k < 8; k++ {
			sent[i] = append(sent[i], rng.Intn(200))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Decode(sent)
	}
}

// --- dataflow vs level-barrier oracle (§2.3 executor) ---
//
// BenchmarkScheduler* run the same synthetic stress DAG under the
// dataflow scheduler and the level-barrier oracle at the same worker
// count; the reproduction target is the dataflow win over the barrier
// (≥25% on the straggler-level shape), always with byte-identical
// Result.Values. Most shapes sleep rather than spin, so wall-ms is the
// honest metric (ns/op tracks it); cpu-fanout spins to expose scheduler
// overhead under real core contention.

func assertSchedulersAgree(b *testing.B, sd *bench.SchedDAG, workers int) {
	b.Helper()
	lb, err := bench.RunSched(sd, exec.LevelBarrier, workers)
	if err != nil {
		b.Fatal(err)
	}
	df, err := bench.RunSched(sd, exec.Dataflow, workers)
	if err != nil {
		b.Fatal(err)
	}
	if err := bench.SchedValuesEqual(df, lb); err != nil {
		b.Fatal(err)
	}
}

// schedShape pulls one of the canonical stress shapes (shared with
// helix-bench's -ablation scheduler) by name.
func schedShape(b *testing.B, name string) *bench.SchedDAG {
	b.Helper()
	sd, err := bench.Shape(name)
	if err != nil {
		b.Fatal(err)
	}
	return sd
}

func benchSched(b *testing.B, sd *bench.SchedDAG, workers int) {
	b.Helper()
	assertSchedulersAgree(b, sd, workers)
	for _, sched := range []exec.Strategy{exec.Dataflow, exec.LevelBarrier} {
		b.Run(sched.String(), func(b *testing.B) {
			var wall time.Duration
			for i := 0; i < b.N; i++ {
				res, err := bench.RunSched(sd, sched, workers)
				if err != nil {
					b.Fatal(err)
				}
				wall += res.Wall
			}
			b.ReportMetric(float64(wall.Microseconds())/float64(b.N)/1000, "wall-ms")
		})
	}
}

// BenchmarkSchedulerStragglerLevel is the acceptance shape: 4 chains × 4
// levels with one straggler per level on the diagonal. A level barrier pays
// every straggler serially; dataflow overlaps them.
func BenchmarkSchedulerStragglerLevel(b *testing.B) {
	benchSched(b, schedShape(b, "straggler-level"), 4)
}

// BenchmarkSchedulerWideDAG stresses dispatch overhead on a flat fan-out.
func BenchmarkSchedulerWideDAG(b *testing.B) {
	benchSched(b, schedShape(b, "wide"), 8)
}

// BenchmarkSchedulerSkewedLevel has one slow node per wave of otherwise
// cheap nodes; the barrier idles workers behind it every wave.
func BenchmarkSchedulerSkewedLevel(b *testing.B) {
	benchSched(b, schedShape(b, "skewed-level"), 4)
}

// BenchmarkSchedulerStragglerChain is the out-of-order-completion shape: a
// deep cheap chain beside one shallow expensive node.
func BenchmarkSchedulerStragglerChain(b *testing.B) {
	benchSched(b, schedShape(b, "straggler-chain"), 4)
}

// BenchmarkSchedulerFanoutChain is the ordering-adversarial shape: many
// cheap low-ID branches beside one high-ID chain, which critical-path
// dispatch starts immediately.
func BenchmarkSchedulerFanoutChain(b *testing.B) {
	benchSched(b, schedShape(b, "fanout-chain"), 4)
}

// BenchmarkSchedulerCPUFanout is the same topology with spin-loop
// (CPU-bound) tasks: scheduler overhead under real core contention.
func BenchmarkSchedulerCPUFanout(b *testing.B) {
	benchSched(b, schedShape(b, "cpu-fanout"), 4)
}

// BenchmarkSchedulerContention is the scheduler-overhead row: the
// contention-adversarial shape — 4098 fine-grained nodes (128 chains × 32
// links plus root and join) where every completion is a dispatch event —
// at 8 workers, reported as work-stealing dispatch cost in ns/node. Tasks
// do no work, so the wall is scheduler overhead; work-stealing chases each
// chain on the finishing worker with no shared lock at all. GOMAXPROCS is
// clamped to [2, workers]: a contention benchmark needs at least two OS
// threads actually contending (single-core runners would otherwise
// serialize the lock traffic away). min-wall-ms is the noise-robust
// statistic to compare across commits (mean wall absorbs host
// interference spikes).
func BenchmarkSchedulerContention(b *testing.B) {
	sd := bench.ContentionDAG(128, 32)
	workers := 8
	gmp := runtime.NumCPU()
	if gmp < 2 {
		gmp = 2
	}
	if gmp > workers {
		gmp = workers
	}
	prev := runtime.GOMAXPROCS(gmp)
	defer runtime.GOMAXPROCS(prev)
	var wall time.Duration
	minWall := time.Duration(1<<62 - 1)
	var steals, handoffs int64
	for i := 0; i < b.N; i++ {
		res, err := bench.RunSched(sd, exec.Dataflow, workers)
		if err != nil {
			b.Fatal(err)
		}
		wall += res.Wall
		if res.Wall < minWall {
			minWall = res.Wall
		}
		steals += res.Steals
		handoffs += res.Handoffs
	}
	b.ReportMetric(float64(wall.Nanoseconds())/float64(b.N)/float64(sd.G.Len()), "ns/node")
	b.ReportMetric(float64(minWall.Microseconds())/1000, "min-wall-ms")
	b.ReportMetric(float64(steals)/float64(b.N), "steals")
	b.ReportMetric(float64(handoffs)/float64(b.N), "handoffs")
}

// BenchmarkSchedulerLiar is the online re-prioritization head-to-head on
// the deceptive-estimate LiarDAG shape: a lying history claims the wide
// decoy arm expensive and the true long-pole spin chain cheap, so static
// critical-path dispatch buries the chain and pays it as a serial tail,
// while adaptive re-weighting corrects the decoy group's costs off the
// first measured completions and starts the chain within ~2ms. The
// reproduction target is adaptive ≥20% below the static min-wall at 8
// workers (27.4ms vs 35.1ms measured on a 2-core host), with
// byte-identical values. A
// fresh lying history per run: the engine writes the measured truth back,
// so a reused history stops lying after one execution.
func BenchmarkSchedulerLiar(b *testing.B) {
	var results [2]*exec.Result
	for i, mode := range []exec.Reweight{exec.Adaptive, exec.ReweightOff} {
		b.Run(mode.String(), func(b *testing.B) {
			var wall time.Duration
			minWall := time.Duration(1<<62 - 1)
			var reweights int64
			for n := 0; n < b.N; n++ {
				sd := bench.DefaultLiarDAG()
				_, res, err := bench.MeasureReweight(sd, bench.DefaultLiarHistory(sd), mode, 8)
				if err != nil {
					b.Fatal(err)
				}
				wall += res.Wall
				if res.Wall < minWall {
					minWall = res.Wall
				}
				reweights += res.Reweights
				results[i] = res
			}
			b.ReportMetric(float64(wall.Microseconds())/float64(b.N)/1000, "wall-ms")
			b.ReportMetric(float64(minWall.Microseconds())/1000, "min-wall-ms")
			b.ReportMetric(float64(reweights)/float64(b.N), "reweights")
		})
	}
	if results[0] != nil && results[1] != nil {
		if err := bench.SchedValuesEqual(results[0], results[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerReleasePeakBytes reports the peak in-memory value
// footprint of the straggler-level shape (independent chains, so released
// links shrink the working set) with and without refcounted release, via
// the engine's live-bytes gauge (sizes are charged from history
// estimates; a fixed per-node estimate keeps runs comparable).
func BenchmarkSchedulerReleasePeakBytes(b *testing.B) {
	sd := schedShape(b, "straggler-level")
	h := exec.NewHistory()
	for i := 0; i < sd.G.Len(); i++ {
		h.ObserveSize(sd.G.Node(dag.NodeID(i)).Name, 64)
	}
	for _, release := range []bool{false, true} {
		name := "retain"
		if release {
			name = "release"
		}
		b.Run(name, func(b *testing.B) {
			var peak int64
			for i := 0; i < b.N; i++ {
				var gauge store.Gauge
				e := &exec.Engine{Workers: 8, History: h, LiveBytes: &gauge, ReleaseIntermediates: release}
				if _, err := e.Execute(sd.G, sd.Tasks, sd.Plan()); err != nil {
					b.Fatal(err)
				}
				peak += gauge.Peak()
			}
			b.ReportMetric(float64(peak)/float64(b.N), "peak-bytes")
		})
	}
}
