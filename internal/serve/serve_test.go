package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/store"
)

// testVariants is an overlapping progression: each variant extends the
// previous one, so the shared prefix sub-DAGs are signature-identical
// across tenants — the cross-session dedup case.
func testVariants() []Variant {
	return []Variant{
		{},
		{WithOccupation: true},
		{WithOccupation: true, WithMaritalStatus: true},
	}
}

// TestConcurrentSubmissionsShareStore is the -race test from the issue:
// two tenants submit overlapping workflows concurrently against one shared
// store; the dedup counter must fire, and every output must be
// byte-identical (equal output hash) to an isolated sequential run.
func TestConcurrentSubmissionsShareStore(t *testing.T) {
	variants := testVariants()

	// Reference: a single tenant runs every variant sequentially against
	// its own private service, recording the output hash per variant.
	ref := make([]string, len(variants))
	{
		svc := newTestService(t, Config{SpillBudgetBytes: -1})
		for i, v := range variants {
			resp, apiErr := svc.Submit(context.Background(), &SubmitRequest{
				Tenant: "solo", App: "census", Variant: v,
			})
			if apiErr != nil {
				t.Fatalf("sequential variant %d: %v", i, apiErr)
			}
			ref[i] = resp.OutputHash
		}
		shutdown(t, svc)
	}

	// Concurrent: two tenants walk the same progression against one shared
	// service, racing on the shared tiered store.
	svc := newTestService(t, Config{SpillBudgetBytes: -1, MaxConcurrent: 2})
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		hits     int64
		firstErr error
	)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", c)
			for i, v := range variants {
				resp, apiErr := svc.Submit(context.Background(), &SubmitRequest{
					Tenant: tenant, App: "census", Variant: v,
				})
				mu.Lock()
				if apiErr != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("%s variant %d: %v", tenant, i, apiErr)
					}
					mu.Unlock()
					return
				}
				hits += resp.Counters.CrossSessionHits
				if resp.OutputHash != ref[i] {
					if firstErr == nil {
						firstErr = fmt.Errorf("%s variant %d: output hash %s diverges from sequential reference %s",
							tenant, i, resp.OutputHash, ref[i])
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if hits == 0 {
		t.Fatal("two tenants ran identical overlapping workflows against one store, yet CrossSessionHits == 0")
	}
	shutdown(t, svc)
}

// TestCrossTenantPinning is the acceptance check that one tenant's planned
// load cannot be evicted by another tenant's admission pressure: a pinned
// cold entry must survive a flood of foreign writes under a tiny budget.
func TestCrossTenantPinning(t *testing.T) {
	dir := t.TempDir()
	hot, err := store.Open(dir+"/hot", 64) // tiny: everything spills cold
	if err != nil {
		t.Fatal(err)
	}
	cold, err := store.OpenSpill(dir+"/cold", 4096)
	if err != nil {
		t.Fatal(err)
	}
	tiers := store.NewTiered(hot, cold)

	planned := "aa00planned"
	val := make([]byte, 1024)
	if tier, err := tiers.PutBytesHint(planned, val, store.RewardHint{Owner: "victim"}); err != nil {
		t.Fatal(err)
	} else if tier != store.TierCold {
		t.Fatalf("planned value landed in %v, want cold", tier)
	}

	// Pin as the executor's pinSet does for a planned-Load key, then flood
	// the cold tier far past its budget from another tenant.
	tiers.Pin(planned)
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("bb%02dflood", i)
		if _, err := tiers.PutBytesHint(key, val, store.RewardHint{Owner: "greedy"}); err != nil {
			t.Fatalf("flood write %d: %v", i, err)
		}
	}
	if _, tier, ok := tiers.Lookup(planned); !ok {
		t.Fatal("pinned planned-load key was evicted by another tenant's admission pressure")
	} else if tier != store.TierCold {
		t.Fatalf("pinned key migrated to %v unexpectedly", tier)
	}

	// Released pins restore normal LRU behavior: the same pressure may now
	// evict the key (it is the coldest entry).
	tiers.Unpin(planned)
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("cc%02dflood", i)
		if _, err := tiers.PutBytesHint(key, val, store.RewardHint{Owner: "greedy"}); err != nil {
			t.Fatalf("post-unpin flood write %d: %v", i, err)
		}
	}
	if _, _, ok := tiers.Lookup(planned); ok {
		t.Fatal("unpinned cold entry survived 16 evicting writes — pin release is not taking effect")
	}
}

// TestShutdownDrains verifies the drain contract: after Shutdown begins,
// new submissions are refused with a structured draining error, and
// Shutdown itself completes cleanly with no runs in flight.
func TestShutdownDrains(t *testing.T) {
	svc := newTestService(t, Config{})
	shutdown(t, svc)
	_, apiErr := svc.Submit(context.Background(), &SubmitRequest{Tenant: "late", App: "census"})
	if apiErr == nil {
		t.Fatal("submission after shutdown succeeded")
	}
	if apiErr.Status != 503 || apiErr.Code != CodeDraining {
		t.Fatalf("got %d/%s, want 503/%s", apiErr.Status, apiErr.Code, CodeDraining)
	}
}

// waitQueued polls the status endpoint until the admission queue holds n
// waiters — through the same surface operators watch, not service internals.
func waitQueued(t *testing.T, svc *Service, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := svc.Status().Queued
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission queue length %d never reached %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmitPumpOnEnqueue: a new tenant arriving behind waiters whose
// tenants are at cap must be granted immediately while global slots are
// free, not parked until an unrelated run completes.
func TestAdmitPumpOnEnqueue(t *testing.T) {
	svc := newTestService(t, Config{MaxConcurrent: 2, TenantMaxInFlight: 1})
	if apiErr := svc.admit(context.Background(), "a"); apiErr != nil {
		t.Fatalf("first admit: %v", apiErr)
	}
	// Tenant a is now at cap; this waiter queues.
	aErr := make(chan *APIError, 1)
	go func() { aErr <- svc.admit(context.Background(), "a") }()
	waitQueued(t, svc, 1)

	// Tenant b is eligible (1 of 2 global slots used) and must not block
	// behind the capped tenant-a waiter.
	bErr := make(chan *APIError, 1)
	go func() { bErr <- svc.admit(context.Background(), "b") }()
	select {
	case apiErr := <-bErr:
		if apiErr != nil {
			t.Fatalf("eligible tenant b refused: %v", apiErr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("eligible tenant b stalled behind a tenant-capped waiter despite a free global slot")
	}

	svc.release("b")
	svc.release("a") // frees tenant a's cap: the queued a-waiter is granted
	if apiErr := <-aErr; apiErr != nil {
		t.Fatalf("queued tenant-a admit: %v", apiErr)
	}
	svc.release("a")
	shutdown(t, svc)
}

// TestAdmitShutdownCancelRace: a queued waiter whose context is canceled
// concurrently with Shutdown rejecting the queue must not "give back" a
// slot it never held (that corrupts the slot accounting and panics the
// run WaitGroup). Loop to let the select race land on both branches.
func TestAdmitShutdownCancelRace(t *testing.T) {
	for i := 0; i < 40; i++ {
		svc := newTestService(t, Config{MaxConcurrent: 1})
		if apiErr := svc.admit(context.Background(), "holder"); apiErr != nil {
			t.Fatalf("iter %d: holder admit: %v", i, apiErr)
		}
		ctx, cancel := context.WithCancel(context.Background())
		queuedErr := make(chan *APIError, 1)
		go func() { queuedErr <- svc.admit(ctx, "queued") }()
		waitQueued(t, svc, 1)

		// Fire the two queue-clearing events concurrently: the waiter's
		// cancellation and Shutdown's wholesale rejection.
		shutdownErr := make(chan error, 1)
		go cancel()
		go func() {
			sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer scancel()
			shutdownErr <- svc.Shutdown(sctx)
		}()

		apiErr := <-queuedErr
		if apiErr == nil {
			t.Fatalf("iter %d: canceled waiter admitted during shutdown", i)
		}
		if apiErr.Status != 499 && apiErr.Status != 503 {
			t.Fatalf("iter %d: got status %d, want 499 or 503", i, apiErr.Status)
		}
		svc.release("holder")
		if err := <-shutdownErr; err != nil {
			t.Fatalf("iter %d: shutdown: %v", i, err)
		}
		svc.mu.Lock()
		total, perTenant := svc.total, len(svc.perTenant)
		svc.mu.Unlock()
		if total != 0 || perTenant != 0 {
			t.Fatalf("iter %d: slot accounting corrupted after drain: total=%d perTenant=%d", i, total, perTenant)
		}
		cancel()
	}
}

func shutdown(t *testing.T, svc *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestNewCorruptHistoryColdStarts: a zero-length or garbage history file
// must not keep the daemon from booting. The service cold-starts, serves a
// submission, and Shutdown rewrites a parseable history.
func TestNewCorruptHistoryColdStarts(t *testing.T) {
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"zero-length", nil},
		{"garbage", []byte("{nope")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "helix-history.json")
			if err := os.WriteFile(path, tc.body, 0o644); err != nil {
				t.Fatal(err)
			}
			svc := newTestService(t, Config{Dir: dir})
			if _, apiErr := svc.Submit(context.Background(), &SubmitRequest{Tenant: "ann", App: "census"}); apiErr != nil {
				t.Fatal(apiErr)
			}
			shutdown(t, svc)
			if err := exec.NewHistory().Load(path); err != nil {
				t.Errorf("history not rewritten by Shutdown: %v", err)
			}
		})
	}
}
