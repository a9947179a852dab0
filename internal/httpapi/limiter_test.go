package httpapi

import (
	"io"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"fairhealth"
)

// TestLimiterRejectsAtBound: acquire beyond the limit fails and is
// counted; release restores capacity.
func TestLimiterRejectsAtBound(t *testing.T) {
	l := newLimiter(2)
	if !l.acquire() || !l.acquire() {
		t.Fatal("limiter rejected within its bound")
	}
	if l.acquire() {
		t.Fatal("limiter admitted beyond its bound")
	}
	if got := l.rejected.Load(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	l.release()
	if !l.acquire() {
		t.Fatal("limiter rejected after release freed a slot")
	}
}

// TestLimiterConcurrentAdaptation hammers acquire/release from many
// goroutines — the -race check on the lock-free admission path: no
// more than the bound is ever admitted at once, every attempt is
// either admitted or counted as rejected, and nothing stays in flight.
func TestLimiterConcurrentAdaptation(t *testing.T) {
	const bound, workers, attempts = 3, 8, 500
	l := newLimiter(bound)
	var admitted, cur, peak atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < attempts; i++ {
				if !l.acquire() {
					continue
				}
				admitted.Add(1)
				n := cur.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				cur.Add(-1)
				l.release()
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > bound {
		t.Fatalf("%d requests admitted at once, bound %d", p, bound)
	}
	if got := admitted.Load() + int64(l.rejected.Load()); got != workers*attempts {
		t.Fatalf("admitted+rejected = %d, want %d", got, workers*attempts)
	}
	if l.inflight.Load() != 0 {
		t.Fatalf("inflight = %d after all requests finished", l.inflight.Load())
	}
}

// TestStatsServerSection: /v1/stats reports the limiter's state — and
// omits the section when the limiter is disabled.
func TestStatsServerSection(t *testing.T) {
	sys, err := fairhealth.New(fairhealth.Config{MinOverlap: 1, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(sys, Options{Logger: log.New(io.Discard, "", 0), MaxInFlight: 32})
	rec := do(t, srv, "GET", "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status = %d", rec.Code)
	}
	st := decode[StatsResponse](t, rec)
	if st.Server == nil {
		t.Fatal("stats response missing server section")
	}
	if st.Server.InFlightLimit != 32 || st.Server.MaxInFlight != 32 {
		t.Errorf("limit = %d / max = %d, want 32 / 32", st.Server.InFlightLimit, st.Server.MaxInFlight)
	}
	// The stats request itself is the one request in flight.
	if st.Server.InFlight != 1 || st.Server.Rejected != 0 {
		t.Errorf("inflight = %d / rejected = %d, want 1 / 0", st.Server.InFlight, st.Server.Rejected)
	}

	unlimited := NewWithOptions(sys, Options{Logger: log.New(io.Discard, "", 0), MaxInFlight: -1})
	st = decode[StatsResponse](t, do(t, unlimited, "GET", "/v1/stats", nil))
	if st.Server != nil {
		t.Error("unlimited server still reports a limiter section")
	}
}
