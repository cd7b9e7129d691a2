package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/systems"
	"repro/internal/workload"
)

// Sizes of the session workloads: helix-bench's Figure 2 defaults.
const (
	censusRows = 20000
	ieDocs     = 400
)

// scenarioFunc generates one session workload's scripted 10-iteration
// scenario from the workload seed, reporting how long data generation took.
type scenarioFunc func(seed int64) (*workload.Scenario, time.Duration)

func censusScenario(seed int64) (*workload.Scenario, time.Duration) {
	t := time.Now()
	data := workload.GenerateCensus(censusRows, censusRows/4, seed)
	return workload.CensusScenario(data), time.Since(t)
}

func ieScenario(seed int64) (*workload.Scenario, time.Duration) {
	t := time.Now()
	data := workload.GenerateNews(ieDocs, ieDocs/4, seed)
	return workload.IEScenario(data), time.Since(t)
}

// sessionPass runs developer sessions back to back for one window: each
// session replays the scenario on a fresh, unbudgeted helix store.
type sessionPass struct {
	cfg  runConfig
	sc   *workload.Scenario
	ref  []string   // reference output digest per step
	keys [][]string // per-step Report.Keys of the untraced pass

	// Traced passes only.
	rec     *recorder
	tr      *opTracer
	wrapped []*core.Workflow
	replay  replayStats

	attempted, failed int
	sessions          []float64   // cumulative RunCtx wall per session, s
	perStep           [][]float64 // each step's RunCtx walls across sessions, ms
	all               []float64   // every iteration's RunCtx wall, ms
	runTime           time.Duration
	cpu               time.Duration // process CPU during RunCtx calls
	storeBytes        int64         // on disk after the last session
	storeUsed         int64         // accounted by the last session's store

	// Per-layer sums over the traced pass.
	orchestration, compile, sched, load, mat time.Duration
	nodeTime                                 time.Duration // Σ NodeRun.Duration of run nodes
	loads, computed, loaded, pruned          int
	materialized                             int
	materializedBytes                        int64
	counters                                 exec.Counters
}

func runSessions(cfg runConfig, scenario scenarioFunc) (*outcome, error) {
	o := newOutcome()
	var setups, gens []float64
	var sc *workload.Scenario
	for r := 0; r < setupReps; r++ {
		t := time.Now()
		s, gen := scenario(cfg.seed)
		warm := &sessionPass{cfg: cfg, sc: s}
		if err := warm.session(0); err != nil {
			return nil, fmt.Errorf("warm-up session: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		gens = append(gens, gen.Seconds())
		sc = s
	}
	ref, err := referenceDigests(sc, cfg.nproc)
	if err != nil {
		return nil, err
	}

	p := &sessionPass{cfg: cfg, sc: sc, ref: ref}
	if err := p.run(); err != nil {
		return nil, err
	}
	p.endToEnd(o)
	o.e2e["setup_s"] = median(setups)
	o.attempted, o.failed = p.attempted, p.failed
	fmt.Printf("untraced: %d sessions, %d iterations, %d failed\n", len(p.sessions), len(p.all), p.failed)
	printMetrics("end-to-end", o.e2e)
	if !cfg.trace {
		return o, nil
	}

	t := &sessionPass{cfg: cfg, sc: sc, ref: ref, keys: p.keys}
	t.rec = newRecorder()
	t.tr = newOpTracer(t.rec)
	for _, step := range sc.Steps {
		w, err := t.tr.wrapWorkflow(step.Workflow)
		if err != nil {
			return nil, err
		}
		t.wrapped = append(t.wrapped, w)
	}
	if err := t.run(); err != nil {
		return nil, err
	}
	o.attempted += t.attempted
	o.failed += t.failed
	traced := newOutcome()
	t.endToEnd(traced)
	t.layers(o)
	o.layer["workload.generate_s"] = median(gens)
	o.layer["eval_iter_ms"] = o.e2e["eval_iter_ms"]
	o.layer["trace.overhead_session_s"] = traced.e2e["session_s"] - o.e2e["session_s"]
	o.layer["trace.overhead_submit_p50_ms"] = traced.e2e["submit_p50_ms"] - o.e2e["submit_p50_ms"]
	zeroServeLayers(o)
	hostLayer(o, cfg.nproc, 0, cfg.nproc)
	o.layer["error_rate"] = float64(o.failed) / float64(o.attempted)
	var opsTime int64
	for _, n := range t.tr.nanos {
		opsTime += n.Load()
	}
	fmt.Printf("traced: %d sessions, %d iterations, %d failed; loads are %.1f%% of node time, operator Apply %.1f%% of RunCtx wall\n",
		len(t.sessions), len(t.all), t.failed, 100*t.load.Seconds()/t.nodeTime.Seconds(), 100*time.Duration(opsTime).Seconds()/t.runTime.Seconds())
	return o, finishTrace(cfg, t.rec, o)
}

// referenceDigests runs the scenario once on helix-unopt (no reuse, no
// store) and returns each step's output digest.
func referenceDigests(sc *workload.Scenario, workers int) ([]string, error) {
	opts, err := systems.Preset(systems.HelixUnopt, "")
	if err != nil {
		return nil, err
	}
	opts.Workers = workers
	sess, err := core.Open(opts)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	out := make([]string, len(sc.Steps))
	for i, step := range sc.Steps {
		rep, err := sess.Run(step.Workflow)
		if err != nil {
			return nil, fmt.Errorf("reference iteration %d: %w", i+1, err)
		}
		if out[i], err = outputDigest(rep.Outputs); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// run replays sessions until the window has elapsed (at least one).
func (p *sessionPass) run() error {
	deadline := time.Now().Add(p.cfg.window)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		if err := p.session(n); err != nil {
			return err
		}
	}
	return nil
}

// session runs the scenario once on a fresh store. Operation failures are
// counted; only harness failures are returned.
func (p *sessionPass) session(n int) error {
	dir := filepath.Join(p.cfg.dir, "session")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	opts, err := systems.Preset(systems.Helix, dir)
	if err != nil {
		return err
	}
	opts.Workers = p.cfg.nproc
	sess, err := core.Open(opts)
	if err != nil {
		return err
	}
	var sessSpan span
	if p.rec != nil {
		sessSpan = p.rec.begin("session", "session", 0, int64(n), 0, 0)
	}
	var cum time.Duration
	if p.perStep == nil {
		p.perStep = make([][]float64, len(p.sc.Steps))
	}
	for i := range p.sc.Steps {
		p.attempted++
		rep, wall, err := p.iterate(sess, sessSpan, n, i)
		if err != nil {
			fmt.Fprintf(os.Stderr, "session %d iteration %d: %v\n", n, i+1, err)
			p.failed += len(p.sc.Steps) - i
			p.attempted += len(p.sc.Steps) - i - 1
			break
		}
		cum += wall
		p.runTime += wall
		p.all = append(p.all, ms(wall))
		p.perStep[i] = append(p.perStep[i], ms(wall))
		if !p.check(rep, n, i) {
			p.failed++
		}
		if p.rec != nil {
			if err := p.account(rep); err != nil {
				return err
			}
		}
	}
	p.sessions = append(p.sessions, cum.Seconds())
	if err := sess.Close(); err != nil {
		return err
	}
	if p.rec != nil {
		if err := p.replay.replay(sess.Store(), p.rec, sessSpan.ID, int64(n)); err != nil {
			return err
		}
		p.rec.end(sessSpan)
	}
	p.storeUsed = sess.Store().Used()
	p.storeBytes, err = dirBytes(dir)
	return err
}

// iterate runs step i, timing RunCtx from outside (Report.Wall excludes
// compile and plan). A traced iteration also times a separate core.Compile
// of the step's workflow and runs the operator-wrapped workflow.
func (p *sessionPass) iterate(sess *core.Session, parent span, n, i int) (*core.Report, time.Duration, error) {
	step := p.sc.Steps[i]
	// A developer's iterations are separated by think time, during which
	// the runtime's background collection finishes; collecting here stands
	// in for it, so no iteration pays for garbage an earlier one left.
	runtime.GC()
	cpu0 := cpuTime()
	defer func() { p.cpu += cpuTime() - cpu0 }()
	if p.rec == nil {
		t := time.Now()
		rep, err := sess.RunCtx(context.Background(), step.Workflow)
		return rep, time.Since(t), err
	}
	it := p.rec.begin("iteration", "core", parent.ID, int64(n), i+1, 0)
	defer p.rec.end(it)
	cs := p.rec.begin("core.Compile", "core", it.ID, int64(n), i+1, 0)
	_, err := core.Compile(step.Workflow)
	cs = p.rec.end(cs)
	if err != nil {
		return nil, 0, err
	}
	p.compile += cs.End - cs.Start
	rs := p.rec.begin("core.RunCtx", "core", it.ID, int64(n), i+1, 0)
	p.tr.parent.Store(rs.ID)
	p.tr.run.Store(int64(n))
	p.tr.iter.Store(int64(i + 1))
	rep, err := sess.RunCtx(context.Background(), p.wrapped[i])
	rs = p.rec.end(rs)
	if err != nil {
		return nil, 0, err
	}
	p.orchestration += rs.End - rs.Start - rep.Wall
	return rep, rs.End - rs.Start, nil
}

// check compares the iteration's output digest with the reference and, on
// a traced pass, its Report.Keys with the untraced pass's; the untraced
// pass records the keys of its first session and holds later sessions to
// them.
func (p *sessionPass) check(rep *core.Report, n, i int) bool {
	if p.ref == nil {
		return true // warm-up session
	}
	d, err := outputDigest(rep.Outputs)
	if err != nil || d != p.ref[i] {
		fmt.Fprintf(os.Stderr, "session %d iteration %d: output digest %s != reference %s (%v)\n", n, i+1, d, p.ref[i], err)
		return false
	}
	if p.rec == nil && len(p.keys) == i {
		p.keys = append(p.keys, rep.Keys)
		return true
	}
	if !slices.Equal(rep.Keys, p.keys[i]) {
		fmt.Fprintf(os.Stderr, "session %d iteration %d: Report.Keys differ from the untraced run's\n", n, i+1)
		return false
	}
	return true
}

// account adds one traced iteration's report to the per-layer sums.
func (p *sessionPass) account(rep *core.Report) error {
	c, l, pr := rep.Counts()
	p.computed += c
	p.loaded += l
	p.pruned += pr
	for _, nr := range rep.Nodes {
		if nr.State != opt.Prune {
			p.nodeTime += nr.Duration
		}
		if nr.State == opt.Load {
			p.loads++
			p.load += nr.Duration
		}
		if nr.Materialized {
			p.materialized++
			p.materializedBytes += nr.Size
		}
		p.mat += nr.MatDuration
	}
	so, err := schedOverhead(rep, p.cfg.nproc)
	if err != nil {
		return err
	}
	p.sched += so
	p.counters.Add(rep.Counters)
	return nil
}

func (p *sessionPass) endToEnd(o *outcome) {
	o.e2e["session_s"] = median(p.sessions)
	o.e2e["first_iter_ms"] = p.kindWall(workload.StepInitial)
	o.e2e["prep_iter_ms"] = p.kindWall(workload.StepPrep)
	o.e2e["ml_iter_ms"] = p.kindWall(workload.StepML)
	o.e2e["eval_iter_ms"] = p.kindWall(workload.StepEval)
	o.e2e["submit_p50_ms"] = percentile(p.all, 50)
	o.e2e["submit_p99_ms"] = percentile(p.all, 99)
	o.e2e["throughput_rps"] = float64(len(p.all)) / p.runTime.Seconds()
	o.e2e["cpu_per_op_ms"] = ms(p.cpu) / float64(len(p.all))
	o.e2e["store_mb"] = float64(p.storeBytes) / mib
}

// kindWall is the mean, over the scenario's steps of one edit kind, of
// each step's median wall across sessions. Steps of one kind differ in
// cost (a regularization change trains as long as before, a switch to SVM
// does not), so a median over the pooled walls would sit in the gap
// between two steps' clusters; a per-step median does not.
func (p *sessionPass) kindWall(k workload.StepKind) float64 {
	var sum float64
	var n int
	for i, step := range p.sc.Steps {
		if step.Kind == k {
			sum += median(p.perStep[i])
			n++
		}
	}
	return sum / float64(n)
}

// layers derives the per-layer metrics of a traced pass. Times and counts
// are per iteration (mean), rates are aggregate.
func (p *sessionPass) layers(o *outcome) {
	n := float64(len(p.all))
	per := func(d time.Duration) float64 { return ms(d) / n }
	cnt := func(v int64) float64 { return float64(v) / n }
	o.layer["core.orchestration_ms"] = per(p.orchestration)
	o.layer["core.compile_us"] = per(p.compile) * 1000
	o.layer["opt.computed"] = float64(p.computed) / n
	o.layer["opt.loaded"] = float64(p.loaded) / n
	o.layer["opt.pruned"] = float64(p.pruned) / n
	o.layer["opt.materialized"] = float64(p.materialized) / n
	o.layer["opt.materialized_mb"] = float64(p.materializedBytes) / mib / n
	o.layer["exec.sched_overhead_ms"] = per(p.sched)
	o.layer["exec.steals"] = cnt(p.counters.Steals)
	o.layer["exec.handoffs"] = cnt(p.counters.Handoffs)
	o.layer["exec.reweights"] = cnt(p.counters.Reweights)
	o.layer["exec.inflight_dedup_hits"] = cnt(p.counters.InflightDedupHits)
	o.layer["exec.inflight_waits"] = cnt(p.counters.InflightWaits)
	o.layer["ops.prep_ms"] = per(time.Duration(p.tr.nanos[core.CatPrep].Load()))
	o.layer["ops.ml_ms"] = per(time.Duration(p.tr.nanos[core.CatML].Load()))
	o.layer["ops.eval_ms"] = per(time.Duration(p.tr.nanos[core.CatEval].Load()))
	o.layer["ops.calls"] = cnt(p.tr.calls.Load())
	o.layer["store.load_ms"] = per(p.load)
	o.layer["store.loads"] = float64(p.loads) / n
	o.layer["store.mat_ms"] = per(p.mat)
	o.layer["store.hot_mb"] = float64(p.storeUsed) / mib
	o.layer["store.cold_mb"] = 0 // sessions run without a cold tier
	o.layer["store.spills"] = cnt(p.counters.Spills)
	o.layer["store.promotions"] = cnt(p.counters.Promotions)
	o.layer["store.evictions"] = cnt(p.counters.Evictions)
	o.layer["store.cold_reads"] = cnt(p.counters.MmapColdReads + p.counters.BufferedColdReads)
	o.layer["store.recomputes"] = cnt(p.counters.Recomputes)
	o.layer["store.retries"] = cnt(p.counters.Retries)
	o.layer["store.corrupt_frames"] = cnt(p.counters.CorruptFrames)
	o.layer["codec.gob_encodes"] = cnt(p.counters.GobEncodes)
	p.replay.layers(o)
}

// zeroServeLayers sets the daemon and load-generator metrics, which have no
// counterpart in a single-developer session, to 0.
func zeroServeLayers(o *outcome) {
	for _, k := range []string{"serve.transport_ms", "serve.service_ms", "serve.queued_mean", "serve.hit_share",
		"serve.loaded", "serve.computed", "serve.cross_session_hits", "serve.refused",
		"loadgen.late_p99_ms", "loadgen.offered_rps"} {
		o.layer[k] = 0
	}
}
