package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/workload"
)

// serve-mix sizing. A saturating probe on a 2-core host completed about
// 230 submissions/s; the rate is fixed below half of that because the load
// generator shares the cores with the daemon, and at 100/s its dispatch
// lateness neared lateLimit (see README.md). The hot budget is below the
// bytes a run materializes, so the cold tier is exercised.
const (
	serveRows        = 10000
	serveRate        = 50.0 // offered submissions per second
	serveHotBudget   = 8 << 20
	serveSubsPerUser = 10  // each tenant submits this many times per run
	serveWarmup      = 200 // closed-loop submissions before the window
	coldProbes       = 15  // fresh daemons whose first submission is timed
	// lateLimit is how far behind its schedule the generator may dispatch
	// (p99) before the run is declared invalid.
	lateLimit = 25 * time.Millisecond
	// spanHeader carries the client span ID to the traced handler wrapper.
	spanHeader = "X-Perfbench-Span"
)

// The closed variant space is the product of three components, each
// ranked by a seeded permutation and drawn from its own Zipf: 4096 feature
// sets (age bucketings of 2 to 4097 bins over a fixed set of occupation,
// marital-status and capital features), 512 models (learner × 256
// regularization strengths, three epochs) and five metrics. The space is
// large enough that draws keep finding new variants at a steady rate after
// the warm-up. Within a component every value costs about the same to
// compute (age has at most 60 distinct values, so the bucket count does
// not change the feature dimension), so a class's latency does not depend
// on which of its values a seed happens to draw.
var serveMetrics = []string{"accuracy", "f1", "logloss", "precision", "recall"}

const (
	serveFeatureSets = 1 << 12
	serveModels      = 1 << 9
	serveEpochs      = 3
	serveZipfF       = 2.0 // Zipf exponents of the three components
	serveZipfM       = 2.0
	serveZipfE       = 1.5
)

// variantID names a point of the variant space: feature set, model, metric.
type variantID struct{ f, m, e int }

func (v variantID) variant() serve.Variant {
	if v == coldVariant {
		return serve.Variant{}
	}
	learner := "logreg"
	if v.m&1 != 0 {
		learner = "svm"
	}
	return serve.Variant{
		Learner:           learner,
		Epochs:            serveEpochs,
		RegParam:          0.001 * float64(1+v.m>>1),
		Metric:            serveMetrics[v.e],
		AgeBuckets:        2 + v.f,
		WithOccupation:    true,
		WithMaritalStatus: true,
		WithCapital:       true,
	}
}

// arrival is one scheduled submission.
type arrival struct {
	due    time.Duration // offset from the window start
	tenant int
	v      variantID
	// class is what the submission is the first to ask of the daemon, in
	// schedule order after the warm-up: a new feature set (prep), a new
	// model on a known feature set (ml), a new metric on a known model
	// (eval), or nothing new (hit). It depends on the seed only, never on
	// the program.
	class workload.StepKind
}

const classHit workload.StepKind = "hit"

// mix is one run's seeded inputs: the cold-start variant every daemon
// first receives, the closed-loop warm-up, and the open-loop window.
type mix struct {
	cold   variantID
	warmup []variantID
	window []arrival
}

// coldVariant is the app's initial workflow (logreg, 0.1, 6 epochs,
// accuracy, ten age buckets, no optional features): every daemon's
// cold-start submission, the same for every seed.
var coldVariant = variantID{f: -1, m: -1, e: -1}

// newMix draws the run's inputs. The window holds N = rate × seconds
// arrivals (rounded to whole tenant sessions) with exponential gaps
// rescaled to span the window and tenants interleaved round-robin.
//
// Each component is drawn by stratified inverse-CDF sampling: draw i maps
// a uniform from its own 1/D-wide stratum (strata shuffled over the
// sequence) through the Zipf CDF. Every seed then sees almost the same
// rank histogram, so the class mix, and with it the work a run does,
// varies little between seeds, while which variants are popular and the
// order they arrive in still come from the seed.
func newMix(seed int64, window time.Duration) mix {
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Round(serveRate*window.Seconds()/serveSubsPerUser)) * serveSubsPerUser
	n = max(n, serveSubsPerUser)
	draws := serveWarmup + n
	ranked := func(size int, s float64) []int {
		cdf := make([]float64, size)
		var total float64
		for k := range cdf {
			total += math.Pow(float64(k+1), -s)
			cdf[k] = total
		}
		perm := rng.Perm(size)
		strata := rng.Perm(draws)
		out := make([]int, draws)
		for i := range out {
			u := (float64(strata[i]) + rng.Float64()) / float64(draws) * total
			out[i] = perm[min(sort.SearchFloat64s(cdf, u), size-1)]
		}
		return out
	}
	fs, ms, es := ranked(serveFeatureSets, serveZipfF), ranked(serveModels, serveZipfM), ranked(len(serveMetrics), serveZipfE)

	seenF := map[int]bool{}
	seenM := map[[2]int]bool{}
	seenV := map[variantID]bool{}
	classify := func(v variantID) workload.StepKind {
		k := classHit
		switch {
		case !seenF[v.f]:
			k = workload.StepPrep
		case !seenM[[2]int{v.f, v.m}]:
			k = workload.StepML
		case !seenV[v]:
			k = workload.StepEval
		}
		seenF[v.f], seenM[[2]int{v.f, v.m}], seenV[v] = true, true, true
		return k
	}

	m := mix{cold: coldVariant}
	classify(m.cold)
	for i := 0; i < serveWarmup; i++ {
		v := variantID{fs[i], ms[i], es[i]}
		classify(v)
		m.warmup = append(m.warmup, v)
	}
	tenants := n / serveSubsPerUser
	gaps := make([]float64, n)
	var total float64
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	var cum float64
	for i := 0; i < n; i++ {
		cum += gaps[i]
		j := serveWarmup + i
		v := variantID{fs[j], ms[j], es[j]}
		m.window = append(m.window, arrival{
			due:    time.Duration(cum / total * float64(window)),
			tenant: i % tenants,
			v:      v,
			class:  classify(v),
		})
	}
	return m
}

// daemon is one serve.Service behind its HTTP handler on a loopback
// listener, plus the client the load generator submits through.
type daemon struct {
	dir    string
	svc    *serve.Service
	ts     *httptest.Server
	client *http.Client
	seed   int64
}

func openDaemon(dir string, seed int64, nproc int, wrap func(http.Handler) http.Handler) (*daemon, error) {
	svc, err := serve.New(serve.Config{
		Dir:              dir,
		HotBudgetBytes:   serveHotBudget,
		SpillBudgetBytes: -1, // cold tier unbudgeted
		Workers:          1,
		MaxConcurrent:    nproc, // busy daemon threads = MaxConcurrent × Workers = nproc
		DefaultRows:      serveRows,
		DefaultSeed:      seed,
	})
	if err != nil {
		return nil, err
	}
	h := svc.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	d := &daemon{dir: dir, svc: svc, ts: httptest.NewServer(h), seed: seed}
	d.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     nproc,
		MaxIdleConnsPerHost: nproc,
	}}
	return d, nil
}

func (d *daemon) close() error {
	d.client.CloseIdleConnections()
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return d.svc.Shutdown(ctx)
}

// submitOutcome is one submission as the client saw it.
type submitOutcome struct {
	sent, done time.Time
	status     int
	body       serve.SubmitResponse
	err        error
}

func (d *daemon) submit(tenant string, v variantID, spanID int64) submitOutcome {
	var out submitOutcome
	payload, err := json.Marshal(serve.SubmitRequest{
		Tenant: tenant, App: "census", Rows: serveRows, Seed: d.seed, Variant: v.variant(),
	})
	if err != nil {
		out.err = err
		return out
	}
	req, err := http.NewRequest(http.MethodPost, d.ts.URL+"/v1/submit", bytes.NewReader(payload))
	if err != nil {
		out.err = err
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	if spanID != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(spanID, 10))
	}
	out.sent = time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		out.err = err
		out.done = time.Now()
		return out
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.done = time.Now()
	out.status = resp.StatusCode
	if err != nil {
		out.err = err
		return out
	}
	if resp.StatusCode != http.StatusOK {
		out.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		return out
	}
	out.err = json.Unmarshal(raw, &out.body)
	return out
}

// mixPass is one window of the open-loop mix against one daemon.
type mixPass struct {
	cfg    runConfig
	sched  []arrival
	d      *daemon
	rec    *recorder // nil when untraced
	root   span
	start  time.Time
	res    []submitOutcome
	late   []float64 // dispatch lateness per arrival, ms
	queued []float64 // sampled admission-queue depth (traced)
	cpu    time.Duration
	tier0  store.TierCounters
	tier1  store.TierCounters
	used0  int64
	used1  int64
	ents0  int
	ents1  int
}

func tierUsage(t *store.Tiered) (bytes int64, entries int) {
	bytes, entries = t.Hot().Used(), len(t.Hot().Entries())
	if c := t.Cold(); c != nil {
		bytes += c.Used()
		entries += len(c.Entries())
	}
	return bytes, entries
}

// run dispatches every arrival at its due time onto at most nproc sender
// connections and waits for all of them to complete.
func (p *mixPass) run() {
	p.res = make([]submitOutcome, len(p.sched))
	p.late = make([]float64, len(p.sched))
	tiers := p.d.svc.Tiers()
	p.tier0 = tiers.Counters()
	p.used0, p.ents0 = tierUsage(tiers)

	stopSampler := make(chan struct{})
	var samplerDone sync.WaitGroup
	if p.rec != nil {
		samplerDone.Add(1)
		go func() {
			defer samplerDone.Done()
			tick := time.NewTicker(20 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampler:
					return
				case <-tick.C:
					p.queued = append(p.queued, float64(p.d.svc.Status().Queued))
				}
			}
		}()
	}

	// The queue holds every arrival, so the dispatcher never blocks on a
	// busy sender and its lateness measures the generator alone.
	queue := make(chan int, len(p.sched))
	var senders sync.WaitGroup
	for w := 0; w < p.cfg.nproc; w++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := range queue {
				p.res[i] = p.send(i)
			}
		}()
	}
	runtime.GC() // the window starts from a collected heap
	cpu0 := cpuTime()
	p.start = time.Now()
	if p.rec != nil {
		p.root = p.rec.begin("serve-mix", "loadgen", 0, 0, 0, 0)
	}
	for i, a := range p.sched {
		due := p.start.Add(a.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		p.late[i] = ms(time.Since(due))
		queue <- i
	}
	close(queue)
	senders.Wait()
	p.cpu = cpuTime() - cpu0
	if p.rec != nil {
		p.rec.end(p.root)
		close(stopSampler)
		samplerDone.Wait()
	}
	p.tier1 = tiers.Counters()
	p.used1, p.ents1 = tierUsage(tiers)
}

func (p *mixPass) send(i int) submitOutcome {
	a := p.sched[i]
	tenant := fmt.Sprintf("tenant-%03d", a.tenant)
	if p.rec == nil {
		return p.d.submit(tenant, a.v, 0)
	}
	lane := p.rec.acquireLane(1)
	s := p.rec.begin("http.submit", "loadgen", p.root.ID, int64(i), 0, lane)
	out := p.d.submit(tenant, a.v, s.ID)
	p.rec.end(s)
	p.rec.releaseLane(lane)
	return out
}

// handlerLaneBase keeps server-side spans on their own rows, below the
// client connections' rows.
const handlerLaneBase = 100

// traceHandler wraps the daemon's HTTP handler in a span parented to the
// client span named by the request header.
func traceHandler(rec *recorder) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
			lane := rec.acquireLane(handlerLaneBase)
			s := rec.begin("serve.Handler", "serve", parent, 0, 0, lane)
			h.ServeHTTP(w, r)
			rec.end(s)
			rec.releaseLane(lane)
		})
	}
}

// latencies returns, for successful submissions, each one's latency from
// its scheduled send time (all), and from its actual send time grouped by
// class and summed per tenant. The client-side wait for one of the nproc
// connections is a property of the load generator, not of the daemon, so
// only the scheduled-time percentiles carry it.
func (p *mixPass) latencies() (all []float64, byClass map[workload.StepKind][]float64, byTenant map[int]float64, failed int) {
	byClass = map[workload.StepKind][]float64{}
	byTenant = map[int]float64{}
	for i, r := range p.res {
		if r.err != nil {
			failed++
			continue
		}
		all = append(all, ms(r.done.Sub(p.start.Add(p.sched[i].due))))
		sent := ms(r.done.Sub(r.sent))
		byClass[p.sched[i].class] = append(byClass[p.sched[i].class], sent)
		byTenant[p.sched[i].tenant] += sent
	}
	return all, byClass, byTenant, failed
}

// endToEnd fills the pass's end-to-end metrics (setup_s, first_iter_ms and
// peak_rss_mb come from the caller).
func (p *mixPass) endToEnd(o *outcome) error {
	all, byClass, byTenant, failed := p.latencies()
	if failed == len(p.res) {
		return fmt.Errorf("every serve-mix submission failed")
	}
	// A tenant's session is its 10 submissions; the mean over tenants is
	// used because whether a tenant drew a new feature set splits the
	// tenants into two groups, and the median would sit on that boundary.
	var sessions []float64
	for _, v := range byTenant {
		sessions = append(sessions, v/1000)
	}
	var last time.Time
	for _, r := range p.res {
		if r.err == nil && r.done.After(last) {
			last = r.done
		}
	}
	o.e2e["session_s"] = mean(sessions)
	o.e2e["prep_iter_ms"] = median(byClass[workload.StepPrep])
	o.e2e["ml_iter_ms"] = median(byClass[workload.StepML])
	o.e2e["eval_iter_ms"] = median(byClass[workload.StepEval])
	o.e2e["submit_p50_ms"] = percentile(all, 50)
	o.e2e["submit_p99_ms"] = percentile(all, 99)
	o.e2e["throughput_rps"] = float64(len(all)) / last.Sub(p.start).Seconds()
	o.e2e["cpu_per_op_ms"] = ms(p.cpu) / float64(len(p.res))
	b, err := dirBytes(p.d.dir)
	o.e2e["store_mb"] = float64(b) / mib
	fmt.Printf("serve-mix pass: %d submissions (%d prep, %d ml, %d eval, %d hit), %d failed, late p99 %.3f ms\n",
		len(p.res), len(byClass[workload.StepPrep]), len(byClass[workload.StepML]),
		len(byClass[workload.StepEval]), len(byClass[classHit]), failed, percentile(p.late, 99))
	return err
}

func runServeMix(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	hashes := newHashBook()
	var setups, colds []float64
	t0 := time.Now()
	m := newMix(cfg.seed, cfg.window)
	// Cold starts vary more than warm submissions, so first_iter_ms is the
	// median of coldProbes fresh daemons' first submissions.
	for r := 0; r < coldProbes; r++ {
		runtime.GC() // each probe starts from a collected heap
		d, cold, err := openCold(cfg, m, fmt.Sprintf("serve-cold-%d", r), nil)
		if err != nil {
			return nil, err
		}
		if err := d.close(); err != nil {
			return nil, err
		}
		colds = append(colds, ms(cold.done.Sub(cold.sent)))
		o.attempted++
		o.failed += hashes.add([]variantID{m.cold}, []submitOutcome{cold})
	}
	fmt.Printf("cold probes took %.1f s\n", time.Since(t0).Seconds())
	var d *daemon
	for r := 0; r < setupReps; r++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		m = newMix(cfg.seed, cfg.window)
		var cold submitOutcome
		var err error
		if d, cold, err = warmDaemon(cfg, m, fmt.Sprintf("serve-setup-%d", r), nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		o.attempted++
		o.failed += hashes.add([]variantID{m.cold}, []submitOutcome{cold})
	}
	fmt.Printf("serve-mix: rate %.0f/s, %d submissions from %d tenants after %d warm-up, %d connections, MaxConcurrent %d x Workers 1, hot budget %d MiB, cold unbudgeted\n",
		serveRate, len(m.window), len(m.window)/serveSubsPerUser, len(m.warmup), cfg.nproc, cfg.nproc, serveHotBudget>>20)

	p := &mixPass{cfg: cfg, sched: m.window, d: d}
	p.run()
	err := p.endToEnd(o)
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = median(setups)
	o.e2e["first_iter_ms"] = median(colds)
	o.attempted += len(p.res)
	o.failed += hashes.add(m.windowVariants(), p.res)
	p.validate(o)

	var t *mixPass
	if cfg.trace {
		rec := newRecorder()
		td, cold, err := warmDaemon(cfg, m, "serve-traced", traceHandler(rec))
		if err != nil {
			return nil, err
		}
		o.attempted++
		o.failed += hashes.add([]variantID{m.cold}, []submitOutcome{cold})
		t = &mixPass{cfg: cfg, sched: m.window, d: td, rec: rec}
		t.run()
		o.attempted += len(t.res)
		o.failed += hashes.add(m.windowVariants(), t.res)
		t.validate(o)
		err = t.layers(o, hashes)
		if cerr := td.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
	}
	t0 = time.Now()
	bad, err := hashes.verify(cfg)
	fmt.Printf("reference check took %.1f s\n", time.Since(t0).Seconds())
	if err != nil {
		return nil, err
	}
	o.failed += bad
	printMetrics("end-to-end", o.e2e)
	if t == nil {
		return o, nil
	}
	traced := newOutcome()
	if err := t.endToEnd(traced); err != nil {
		return nil, err
	}
	o.layer["trace.overhead_session_s"] = traced.e2e["session_s"] - o.e2e["session_s"]
	o.layer["trace.overhead_submit_p50_ms"] = traced.e2e["submit_p50_ms"] - o.e2e["submit_p50_ms"]
	o.layer["error_rate"] = float64(o.failed) / float64(o.attempted)
	o.layer["eval_iter_ms"] = o.e2e["eval_iter_ms"]
	hostLayer(o, cfg.nproc, cfg.nproc, 1)
	return o, finishTrace(cfg, t.rec, o)
}

func (m mix) windowVariants() []variantID {
	out := make([]variantID, len(m.window))
	for i, a := range m.window {
		out[i] = a.v
	}
	return out
}

// openCold opens a daemon in a fresh directory and sends its cold-start
// submission: dataset generation, all compute and materialization.
func openCold(cfg runConfig, m mix, name string, wrap func(http.Handler) http.Handler) (*daemon, submitOutcome, error) {
	dir := filepath.Join(cfg.dir, name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, submitOutcome{}, err
	}
	d, err := openDaemon(dir, cfg.seed, cfg.nproc, wrap)
	if err != nil {
		return nil, submitOutcome{}, err
	}
	cold := d.submit("warmup", m.cold, 0)
	if cold.err != nil {
		d.close()
		return nil, cold, fmt.Errorf("cold-start submission: %w", cold.err)
	}
	return d, cold, nil
}

// warmDaemon opens a cold-started daemon and sends the warm-up
// submissions, closed-loop over nproc connections, so the window starts
// from a store that already holds the popular variants.
func warmDaemon(cfg runConfig, m mix, name string, wrap func(http.Handler) http.Handler) (*daemon, submitOutcome, error) {
	d, cold, err := openCold(cfg, m, name, wrap)
	if err != nil {
		return nil, cold, err
	}
	next := make(chan variantID, len(m.warmup))
	for _, v := range m.warmup {
		next <- v
	}
	close(next)
	errs := make([]error, cfg.nproc)
	var wg sync.WaitGroup
	for w := 0; w < cfg.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range next {
				if r := d.submit(fmt.Sprintf("warmup-%d", w), v, 0); r.err != nil && errs[w] == nil {
					errs[w] = fmt.Errorf("warm-up submission %+v: %w", v, r.err)
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		d.close()
		return nil, cold, err
	}
	return d, cold, nil
}

// validate marks the run invalid when the generator fell behind its
// schedule: latencies measured from due times would then include the
// generator's own delay.
func (p *mixPass) validate(o *outcome) {
	if late := percentile(p.late, 99); late > ms(lateLimit) {
		o.invalid = append(o.invalid, fmt.Sprintf("load generator dispatch p99 %.1f ms behind schedule (limit %v)", late, lateLimit))
	}
}

// hashBook collects every response's output_hash per variant.
type hashBook struct {
	byVariant map[variantID]string
}

func newHashBook() *hashBook { return &hashBook{byVariant: map[variantID]string{}} }

// add records the pass's responses and returns how many failed: transport
// errors, refusals, and responses whose hash disagrees with an earlier
// response for the same variant.
func (h *hashBook) add(vs []variantID, res []submitOutcome) (failed int) {
	for i, r := range res {
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "submission %d: %v\n", i, r.err)
			failed++
			continue
		}
		v := vs[i]
		if prev, ok := h.byVariant[v]; ok && prev != r.body.OutputHash {
			fmt.Fprintf(os.Stderr, "submission %d: variant %+v output_hash %s != earlier %s\n", i, v, r.body.OutputHash, prev)
			failed++
			continue
		}
		h.byVariant[v] = r.body.OutputHash
	}
	return failed
}

// verify submits every recorded variant as
// System "keystoneml" — no reuse, no materialization — to a separate
// reference daemon, and counts the variants whose served hash differs.
func (h *hashBook) verify(cfg runConfig) (int, error) {
	svc, err := serve.New(serve.Config{
		Dir:               filepath.Join(cfg.dir, "serve-reference"),
		Workers:           1,
		MaxConcurrent:     cfg.nproc,
		TenantMaxInFlight: cfg.nproc,
		DefaultRows:       serveRows,
		DefaultSeed:       cfg.seed,
	})
	if err != nil {
		return 0, err
	}
	defer svc.Shutdown(context.Background())
	variants := make(chan variantID, len(h.byVariant))
	for v := range h.byVariant {
		variants <- v
	}
	close(variants)
	var mu sync.Mutex
	bad := 0
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < cfg.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range variants {
				resp, apiErr := svc.Submit(context.Background(), &serve.SubmitRequest{
					Tenant: "reference", App: "census", System: "keystoneml",
					Rows: serveRows, Seed: cfg.seed, Variant: v.variant(),
				})
				mu.Lock()
				switch {
				case apiErr != nil:
					if firstErr == nil {
						firstErr = fmt.Errorf("reference submission %+v: %w", v, apiErr)
					}
				case resp.OutputHash != h.byVariant[v]:
					fmt.Fprintf(os.Stderr, "variant %+v: served output_hash %s != keystoneml reference %s\n", v, h.byVariant[v], resp.OutputHash)
					bad++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	fmt.Printf("output check: %d variants against the keystoneml reference, %d mismatched\n", len(h.byVariant), bad)
	return bad, firstErr
}

// layers derives the traced pass's per-layer metrics. Counts are per
// submission (mean) unless the README says otherwise.
func (p *mixPass) layers(o *outcome, hashes *hashBook) error {
	n := float64(len(p.res))
	var transport, service []float64
	handler := map[int64]span{}
	spans := p.rec.snapshot()
	for _, s := range spans {
		if s.Name == "serve.Handler" {
			handler[s.Parent] = s
		}
	}
	var c exec.Counters
	var loaded, computed, pruned, refused float64
	for _, s := range spans {
		if s.Name != "http.submit" {
			continue
		}
		r := p.res[s.Run]
		if r.status != http.StatusOK {
			if r.status != 0 {
				refused++
			}
			continue
		}
		h, ok := handler[s.ID]
		if !ok {
			return fmt.Errorf("submission %d has no handler span", s.Run)
		}
		transport = append(transport, ms(s.End-s.Start-(h.End-h.Start)))
		service = append(service, ms(h.End-h.Start)-r.body.WallMS)
		c.Add(r.body.Counters)
		loaded += float64(r.body.Loaded)
		computed += float64(r.body.Computed)
		pruned += float64(r.body.Pruned)
	}
	o.layer["serve.transport_ms"] = median(transport)
	o.layer["serve.service_ms"] = median(service)
	o.layer["serve.queued_mean"] = mean(p.queued)
	o.layer["serve.hit_share"] = loaded / (loaded + computed)
	o.layer["serve.loaded"] = loaded / n
	o.layer["serve.computed"] = computed / n
	o.layer["serve.cross_session_hits"] = float64(c.CrossSessionHits) / n
	o.layer["serve.refused"] = refused
	o.layer["opt.computed"] = computed / n
	o.layer["opt.loaded"] = loaded / n
	o.layer["opt.pruned"] = pruned / n
	o.layer["opt.materialized"] = float64(p.ents1-p.ents0) / n
	o.layer["opt.materialized_mb"] = float64(p.used1-p.used0) / mib / n
	o.layer["exec.steals"] = float64(c.Steals) / n
	o.layer["exec.handoffs"] = float64(c.Handoffs) / n
	o.layer["exec.reweights"] = float64(c.Reweights) / n
	o.layer["exec.inflight_dedup_hits"] = float64(c.InflightDedupHits) / n
	o.layer["exec.inflight_waits"] = float64(c.InflightWaits) / n
	o.layer["store.loads"] = loaded / n
	o.layer["store.hot_mb"] = float64(p.d.svc.Tiers().Hot().Used()) / mib
	o.layer["store.cold_mb"] = float64(p.d.svc.Tiers().Cold().Used()) / mib
	o.layer["store.spills"] = float64(p.tier1.Spills-p.tier0.Spills) / n
	o.layer["store.promotions"] = float64(p.tier1.Promotions-p.tier0.Promotions) / n
	o.layer["store.evictions"] = float64(p.tier1.Evictions-p.tier0.Evictions) / n
	o.layer["store.cold_reads"] = float64(p.tier1.MmapColdReads+p.tier1.BufferedColdReads-p.tier0.MmapColdReads-p.tier0.BufferedColdReads) / n
	o.layer["store.recomputes"] = float64(c.Recomputes) / n
	o.layer["store.retries"] = float64(c.Retries) / n
	o.layer["store.corrupt_frames"] = float64(p.tier1.CorruptFrames-p.tier0.CorruptFrames) / n
	o.layer["codec.gob_encodes"] = float64(c.GobEncodes) / n
	o.layer["loadgen.late_p99_ms"] = percentile(p.late, 99)
	o.layer["loadgen.offered_rps"] = serveRate
	// Operators, per-node timings and the engine's plan run inside the
	// daemon and are not visible through the HTTP response.
	for _, k := range []string{"core.orchestration_ms", "exec.sched_overhead_ms", "ops.prep_ms", "ops.ml_ms",
		"ops.eval_ms", "ops.calls", "store.load_ms", "store.mat_ms"} {
		o.layer[k] = 0
	}

	// Replays after the window: compile every submitted variant's workflow
	// over the same generated dataset, then read back, decode and re-encode
	// every stored entry.
	rs := p.rec.begin("replay", "replay", 0, 0, 0, 0)
	t := time.Now()
	data := workload.GenerateCensus(serveRows, serveRows/4, p.cfg.seed)
	o.layer["workload.generate_s"] = time.Since(t).Seconds()
	var compile time.Duration
	for v := range hashes.byVariant {
		wf := censusVariantWorkflow(data, v)
		cs := p.rec.begin("core.Compile", "core", rs.ID, 0, 0, 0)
		_, err := core.Compile(wf)
		cs = p.rec.end(cs)
		if err != nil {
			return err
		}
		compile += cs.End - cs.Start
	}
	o.layer["core.compile_us"] = ms(compile) * 1000 / float64(len(hashes.byVariant))
	var rp replayStats
	tiers := p.d.svc.Tiers()
	if err := rp.replay(tiers.Hot(), p.rec, rs.ID, 0); err != nil {
		return err
	}
	if err := rp.replay(tiers.Cold(), p.rec, rs.ID, 0); err != nil {
		return err
	}
	p.rec.end(rs)
	rp.layers(o)
	return nil
}

// censusVariantWorkflow builds the workflow the daemon runs for v.
func censusVariantWorkflow(data workload.CensusData, v variantID) *core.Workflow {
	sv := v.variant()
	p := workload.DefaultCensusParams(data)
	p.Learner, p.RegParam, p.Epochs, p.Metric, p.AgeBuckets = sv.Learner, sv.RegParam, sv.Epochs, sv.Metric, sv.AgeBuckets
	p.WithOccupation, p.WithMaritalStatus, p.WithRace = sv.WithOccupation, sv.WithMaritalStatus, sv.WithRace
	p.WithCapital, p.WithEduXOcc, p.WithHours = sv.WithCapital, sv.WithEduXOcc, sv.WithHours
	return p.Build()
}
