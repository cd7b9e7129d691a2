package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/serve"
)

// serveLoadVariants is the overlapping workflow progression every loadgen
// client walks: each variant extends the previous one's feature set, so
// across tenants the shared prefixes (scan, clean, base features) are
// byte-identical sub-DAGs — the cross-session dedup case the shared store
// exists for.
func serveLoadVariants() []serve.Variant {
	return []serve.Variant{
		{},
		{WithOccupation: true},
		{WithOccupation: true, RegParam: 0.01},
		{WithOccupation: true, RegParam: 0.01, WithMaritalStatus: true, WithCapital: true},
	}
}

// ServeLoadOptions sizes one loadgen measurement.
type ServeLoadOptions struct {
	// Clients is the number of concurrent tenants (default 3).
	Clients int
	// PerClient is how many submissions each tenant issues, walking the
	// overlapping variant progression (default 4).
	PerClient int
	// Workers is each run's intra-workflow parallelism (default 2).
	Workers int
	// Rows sizes the shared census dataset (default 600 — large enough
	// that reuse beats recompute, small enough for CI).
	Rows int
}

// MeasureServeLoad drives the serve daemon end-to-end over HTTP: Clients
// concurrent tenants each submit PerClient overlapping workflow variants
// against one shared store rooted at dir, and the measurement reports
// throughput, p99 submit-to-complete latency, and the summed counter block
// — CrossSessionHits > 0 is the dedup signal helix-benchdiff gates on.
// Before returning it verifies every pair of tenants agreed byte-identically
// (equal output hashes) on every variant, so the perf numbers only ever
// describe correct runs.
func MeasureServeLoad(dir string, o ServeLoadOptions) (DispatchMeasurement, error) {
	if o.Clients <= 0 {
		o.Clients = 3
	}
	if o.PerClient <= 0 {
		o.PerClient = 4
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.Rows <= 0 {
		o.Rows = 600
	}
	svc, err := serve.New(serve.Config{
		Dir:              dir,
		SpillBudgetBytes: -1, // tiered, unbudgeted: exercise the full path
		Workers:          o.Workers,
		MaxConcurrent:    o.Clients,
		DefaultRows:      o.Rows,
	})
	if err != nil {
		return DispatchMeasurement{}, err
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer svc.Shutdown(shutdownCtx)

	variants := serveLoadVariants()
	var (
		mu        sync.Mutex
		latencies []time.Duration
		totals    exec.Counters
		hashes    = make(map[int]map[string]string) // variant -> tenant -> hash
		nodes     int
		firstErr  error
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < o.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("load-%d", c)
			for i := 0; i < o.PerClient; i++ {
				vi := i % len(variants)
				resp, err := submitHTTP(ts.URL, &serve.SubmitRequest{
					Tenant: tenant, App: "census", Variant: variants[vi],
				})
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("bench: client %d submission %d: %w", c, i, err)
					}
					mu.Unlock()
					return
				}
				latencies = append(latencies, resp.latency)
				totals.Add(resp.body.Counters)
				if hashes[vi] == nil {
					hashes[vi] = make(map[string]string)
				}
				hashes[vi][tenant] = resp.body.OutputHash
				nodes = resp.body.Computed + resp.body.Loaded + resp.body.Pruned
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	if firstErr != nil {
		return DispatchMeasurement{}, firstErr
	}
	for vi, byTenant := range hashes {
		var ref string
		for tenant, h := range byTenant {
			if ref == "" {
				ref = h
			} else if h != ref {
				return DispatchMeasurement{}, fmt.Errorf("bench: variant %d: tenant %s output hash diverges — sharing is not value-transparent", vi, tenant)
			}
		}
	}
	// In-flight dedup probe: every tenant submits the *same* variant
	// simultaneously against a FRESH daemon (warm-store plans may
	// legitimately mix Load and Compute states across runs, which would
	// blur the arithmetic below — a cold store makes every plan
	// all-compute, so the identity is exact). The single-flight registry
	// must collapse the duplicate work — summed over the runs,
	// compute-planned nodes minus dedup hits equals one run's
	// compute-planned count — with byte-identical outputs. Its counters
	// (inflight_dedup_hits, inflight_waits) flow into the measurement's
	// totals; its latencies stay out of the throughput numbers, which
	// describe the overlapping-variant walk above.
	// The exactly-once identity is asserted on every attempt; a zero hit
	// count only means the submissions happened not to overlap (one run
	// finished before the other planned, making it all-Load), so the probe
	// retries on a fresh store until they do.
	var probeHits int64
	for attempt := 0; attempt < 3; attempt++ {
		probeHits, err = runDedupProbe(fmt.Sprintf("%s/inflight-probe-%d", dir, attempt), o, &totals)
		if err != nil {
			return DispatchMeasurement{}, err
		}
		if probeHits > 0 {
			break
		}
	}
	if probeHits == 0 {
		return DispatchMeasurement{}, fmt.Errorf("bench: %d identical simultaneous submissions never overlapped in 3 attempts — no inflight_dedup_hits", o.Clients)
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p99 := latencies[(len(latencies)*99)/100]
	return DispatchMeasurement{
		Shape:         "serve-loadgen",
		Nodes:         nodes,
		Workers:       o.Workers,
		WallMS:        float64(wall.Microseconds()) / 1000,
		Counters:      totals,
		ThroughputRPS: float64(len(latencies)) / wall.Seconds(),
		P99MS:         float64(p99.Microseconds()) / 1000,
	}, nil
}

// runDedupProbe opens a fresh daemon at dir, fires o.Clients identical
// simultaneous submissions at it, verifies the exactly-once identity
// (executions == one run's compute-planned count) and output-hash
// agreement, folds the runs' counters into totals, and returns the summed
// in-flight dedup hits.
func runDedupProbe(dir string, o ServeLoadOptions, totals *exec.Counters) (int64, error) {
	svc, err := serve.New(serve.Config{
		Dir:              dir,
		SpillBudgetBytes: -1,
		Workers:          o.Workers,
		MaxConcurrent:    o.Clients,
		DefaultRows:      o.Rows,
	})
	if err != nil {
		return 0, err
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer svc.Shutdown(shutdownCtx)

	results := make([]*submitResult, o.Clients)
	errs := make([]error, o.Clients)
	var wg sync.WaitGroup
	for c := 0; c < o.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c], errs[c] = submitHTTP(ts.URL, &serve.SubmitRequest{
				Tenant: fmt.Sprintf("probe-%d", c), App: "census", Variant: serve.Variant{WithHours: true},
			})
		}(c)
	}
	wg.Wait()
	var computed, hits, unique int64
	hash := ""
	for c := 0; c < o.Clients; c++ {
		if errs[c] != nil {
			return 0, fmt.Errorf("bench: dedup probe client %d: %w", c, errs[c])
		}
		body := results[c].body
		if hash == "" {
			hash = body.OutputHash
		} else if body.OutputHash != hash {
			return 0, fmt.Errorf("bench: dedup probe client %d output hash diverges — single-flight is not value-transparent", c)
		}
		computed += int64(body.Computed)
		hits += body.Counters.InflightDedupHits
		if int64(body.Computed) > unique {
			unique = int64(body.Computed)
		}
		totals.Add(body.Counters)
	}
	if got := computed - hits; got != unique {
		return 0, fmt.Errorf("bench: dedup probe executed %d operators across %d identical submissions, want exactly the %d unique signatures", got, o.Clients, unique)
	}
	return hits, nil
}

type submitResult struct {
	body    serve.SubmitResponse
	latency time.Duration
}

// submitHTTP posts one submission and decodes the response, treating any
// non-200 as an error carrying the structured body.
func submitHTTP(baseURL string, req *serve.SubmitRequest) (*submitResult, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	resp, err := http.Post(baseURL+"/v1/submit", "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	latency := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, raw)
	}
	out := &submitResult{latency: latency}
	if err := json.Unmarshal(raw, &out.body); err != nil {
		return nil, err
	}
	return out, nil
}
