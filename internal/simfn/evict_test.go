package simfn

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"fairhealth/internal/model"
)

// countingSim counts inner evaluations and serves sims from a mutable
// table guarded by a mutex (so tests can model a "write").
type countingSim struct {
	mu    sync.Mutex
	sims  map[pairKey]float64
	calls atomic.Int64
}

func newCountingSim() *countingSim {
	return &countingSim{sims: make(map[pairKey]float64)}
}

func (c *countingSim) set(a, b model.UserID, s float64) {
	c.mu.Lock()
	c.sims[canonical(a, b)] = s
	c.mu.Unlock()
}

func (c *countingSim) Similarity(a, b model.UserID) (float64, bool) {
	c.calls.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.sims[canonical(a, b)]
	return s, ok
}

func evictUsers(n int) []model.UserID {
	us := make([]model.UserID, n)
	for i := range us {
		us[i] = model.UserID(fmt.Sprintf("u%02d", i))
	}
	return us
}

func TestEvictRowsKeepsRestWarm(t *testing.T) {
	inner := newCountingSim()
	users := evictUsers(6)
	for i := range users {
		for j := i + 1; j < len(users); j++ {
			inner.set(users[i], users[j], float64(i+j)/10)
		}
	}
	c := NewCached(inner)
	touchAll(c, users)
	full := len(users) * (len(users) - 1) / 2
	if c.Len() != full {
		t.Fatalf("warm Len = %d, want %d", c.Len(), full)
	}
	callsWarm := inner.calls.Load()

	// Evict one row: exactly len(users)-1 entries go, the rest stay.
	if n := c.EvictRows([]model.UserID{users[2]}); n != len(users)-1 {
		t.Fatalf("EvictRows evicted %d entries, want %d", n, len(users)-1)
	}
	if c.Len() != full-(len(users)-1) {
		t.Fatalf("post-evict Len = %d, want %d", c.Len(), full-(len(users)-1))
	}

	// Reads of untouched pairs hit the cache; the evicted row recomputes.
	if _, ok := c.Similarity(users[0], users[1]); !ok {
		t.Fatal("untouched pair undefined")
	}
	if got := inner.calls.Load(); got != callsWarm {
		t.Errorf("untouched pair recomputed: calls %d, want %d", got, callsWarm)
	}
	inner.set(users[2], users[3], 0.99) // the "write" that motivated the eviction
	if s, ok := c.Similarity(users[2], users[3]); !ok || s != 0.99 {
		t.Errorf("evicted pair = %v,%v want 0.99,true (must reflect post-write data)", s, ok)
	}
	if got := inner.calls.Load(); got != callsWarm+1 {
		t.Errorf("calls = %d, want %d (exactly the evicted pair recomputes)", got, callsWarm+1)
	}

	// EvictRows(nil) and Invalidate still behave.
	if n := c.EvictRows(nil); n != 0 {
		t.Errorf("EvictRows(nil) evicted %d", n)
	}
	c.Invalidate()
	if c.Len() != 0 {
		t.Errorf("Len after Invalidate = %d, want 0", c.Len())
	}
}

// TestEvictRowsFencesInflightLookup pins the write-during-compute race:
// a lookup that starts before an eviction of its row must not store its
// (possibly pre-write) result.
func TestEvictRowsFencesInflightLookup(t *testing.T) {
	computing := make(chan struct{})
	release := make(chan struct{})
	var gated atomic.Bool
	inner := Func(func(a, b model.UserID) (float64, bool) {
		if gated.Load() {
			close(computing)
			<-release // hold the computation open while the eviction lands
		}
		return 0.4, true
	})
	c := NewCached(inner)
	gated.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if s, ok := c.Similarity("a", "b"); !ok || s != 0.4 {
			t.Errorf("in-flight lookup = %v,%v want 0.4,true", s, ok)
		}
	}()
	<-computing
	c.EvictRows([]model.UserID{"a"})
	gated.Store(false)
	close(release)
	<-done
	if c.Len() != 0 {
		t.Fatalf("stale in-flight result was cached: Len = %d, want 0", c.Len())
	}
}

// TestInvalidateFencesInflightLookup: the full flush must also fence
// computations that started before it.
func TestInvalidateFencesInflightLookup(t *testing.T) {
	computing := make(chan struct{})
	release := make(chan struct{})
	var gated atomic.Bool
	inner := Func(func(a, b model.UserID) (float64, bool) {
		if gated.Load() {
			close(computing)
			<-release
		}
		return 0.7, true
	})
	c := NewCached(inner)
	gated.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Similarity("x", "y")
	}()
	<-computing
	c.Invalidate()
	gated.Store(false)
	close(release)
	<-done
	if c.Len() != 0 {
		t.Fatalf("stale result survived Invalidate: Len = %d, want 0", c.Len())
	}
}
