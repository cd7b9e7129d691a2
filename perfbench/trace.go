package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
)

// span is one timed interval of the traced pass. Spans form a tree through
// Parent (0 = root); Run and Iter tie every span of one operation together.
type span struct {
	ID, Parent int64
	Name, Cat  string
	Start, End time.Duration // offsets from the recorder's epoch
	Lane       int           // display row in the trace viewer
	Run        int64         // session or submission the span belongs to
	Iter       int
}

// recorder keeps spans in memory; they are written out once, at the end.
type recorder struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
	busy  map[int]bool // lanes held by open spans from concurrent goroutines
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), busy: map[int]bool{}}
}

// begin opens a span; the caller closes it with end. Lane 0 is the
// driving goroutine; concurrent spans take a lane from acquireLane.
func (r *recorder) begin(name, cat string, parent, run int64, iter, lane int) span {
	return span{
		ID: r.next.Add(1), Parent: parent, Name: name, Cat: cat,
		Start: time.Since(r.epoch), Lane: lane, Run: run, Iter: iter,
	}
}

func (r *recorder) end(s span) span {
	s.End = time.Since(r.epoch)
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s
}

// acquireLane returns the lowest free display lane at or above base, so
// spans that overlap in time never share a row of the trace viewer.
func (r *recorder) acquireLane(base int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	l := base
	for r.busy[l] {
		l++
	}
	r.busy[l] = true
	return l
}

func (r *recorder) releaseLane(l int) {
	r.mu.Lock()
	delete(r.busy, l)
	r.mu.Unlock()
}

// snapshot returns the recorded spans ordered by start time.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// checkNesting verifies that every span lies within its parent's interval
// and that every parent was recorded.
func checkNesting(spans []span) error {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s) has unrecorded parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%v, %v] escapes parent %d (%s) [%v, %v]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its children cover (children may overlap one another when they ran on
// parallel workers).
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		cs := kids[s.ID] // already ordered by start
		var covered time.Duration
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, c := range cs {
			if c.Start > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = c.Start, c.End
			} else if c.End > curEnd {
				curEnd = c.End
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		out[s.Name] += s.End - s.Start - covered
	}
	return out
}

// printSelfTimes prints the span names with the most self time.
func printSelfTimes(spans []span, top int) {
	st := selfTimes(spans)
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]] > st[names[j]] })
	if len(names) > top {
		names = names[:top]
	}
	fmt.Printf("-- trace self time (top %d of %d spans)\n", len(names), len(spans))
	for _, n := range names {
		fmt.Printf("   %-30s %10.2f ms\n", n, ms(st[n]))
	}
}

// writeChromeTrace writes spans in the Chrome trace-event JSON format
// (complete "X" events, microsecond timestamps), which Perfetto and
// chrome://tracing open directly.
func writeChromeTrace(path string, spans []span, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "run": s.Run, "iter": s.Iter},
		})
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opTracer times every operator Apply of a traced session. The wrapped
// workflow's operators read the open RunCtx span from parent, so each
// Apply span nests under the iteration that ran it.
type opTracer struct {
	rec    *recorder
	parent atomic.Int64
	run    atomic.Int64
	iter   atomic.Int64
	calls  atomic.Int64
	nanos  map[core.Category]*atomic.Int64
}

func newOpTracer(rec *recorder) *opTracer {
	return &opTracer{rec: rec, nanos: map[core.Category]*atomic.Int64{
		core.CatPrep: {}, core.CatML: {}, core.CatEval: {},
	}}
}

// opLaneBase keeps operator spans off lane 0, where the driving
// goroutine's session and iteration spans live.
const opLaneBase = 1

func (t *opTracer) observe(op core.Operator, apply func() (any, error)) (any, error) {
	lane := t.rec.acquireLane(opLaneBase)
	s := t.rec.begin("op."+op.Type(), string(op.Category()), t.parent.Load(), t.run.Load(), int(t.iter.Load()), lane)
	v, err := apply()
	s = t.rec.end(s)
	t.rec.releaseLane(lane)
	t.calls.Add(1)
	if n, ok := t.nanos[op.Category()]; ok {
		n.Add(int64(s.End - s.Start))
	}
	return v, err
}

// tracedOp delegates Type, Category, Params and UDFVersion to the wrapped
// operator, so the compiled signatures (and therefore the plan) are the
// untraced workflow's.
type tracedOp struct {
	core.Operator
	t *opTracer
}

func (o *tracedOp) Apply(inputs []any) (any, error) {
	return o.t.observe(o.Operator, func() (any, error) { return o.Operator.Apply(inputs) })
}

// tracedCtxOp keeps the optional context-aware entry point of operators
// that implement core.CtxOperator.
type tracedCtxOp struct {
	tracedOp
	inner core.CtxOperator
}

func (o *tracedCtxOp) ApplyCtx(ctx context.Context, inputs []any) (any, error) {
	return o.t.observe(o.Operator, func() (any, error) { return o.inner.ApplyCtx(ctx, inputs) })
}

func (t *opTracer) wrap(op core.Operator) core.Operator {
	base := tracedOp{Operator: op, t: t}
	if co, ok := op.(core.CtxOperator); ok {
		return &tracedCtxOp{tracedOp: base, inner: co}
	}
	return &base
}

// wrapWorkflow rebuilds wf with every operator wrapped by t, keeping names,
// input order and outputs.
func (t *opTracer) wrapWorkflow(wf *core.Workflow) (*core.Workflow, error) {
	c, err := core.Compile(wf)
	if err != nil {
		return nil, err
	}
	out := core.NewWorkflow(wf.Name())
	for i := 0; i < c.Graph.Len(); i++ {
		id := dag.NodeID(i)
		n := c.Graph.Node(id)
		var inputs []string
		for _, p := range c.Graph.Parents(id) {
			inputs = append(inputs, c.Graph.Node(p).Name)
		}
		out.Apply(n.Name, t.wrap(c.Ops[i]), inputs...)
		if n.Output {
			out.Output(n.Name)
		}
	}
	return out, nil
}

// finishTrace checks that the traced pass's spans nest, writes them as a
// Chrome trace, and prints the self-time summary and per-layer metrics.
func finishTrace(cfg runConfig, rec *recorder, o *outcome) error {
	spans := rec.snapshot()
	if err := checkNesting(spans); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	meta := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.window.Seconds(),
		"nproc": cfg.nproc, "gomaxprocs": runtime.GOMAXPROCS(0),
	}
	if err := writeChromeTrace(cfg.traceOut, spans, meta); err != nil {
		return err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(spans), cfg.traceOut)
	printSelfTimes(spans, 12)
	printMetrics("per-layer", o.layer)
	return nil
}
