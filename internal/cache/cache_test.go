package cache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTest builds a string→string cache over string scopes with the
// given knobs and a controllable clock. janitor disabled — tests drive
// Sweep directly.
func newTest(ttl time.Duration, maxEntries int) (*Cache[string, string, string], *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := New[string, string, string](Config[string, string]{
		Hash:            func(k string) uint32 { return FNV1a(k) },
		TTL:             ttl,
		MaxEntries:      maxEntries,
		Now:             clk.Now,
		JanitorInterval: -1,
	})
	return c, clk
}

type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func scopesOf(ss ...string) []string { return ss }

func TestPutCheckedGetRoundTrip(t *testing.T) {
	c, _ := newTest(0, 0)
	if !c.PutChecked("k1", "v1", scopesOf("a", "b"), c.Seq()) {
		t.Fatal("clean PutChecked refused")
	}
	v, seq, ok := c.Get("k1")
	if !ok || v != "v1" || seq != 0 {
		t.Fatalf("Get = (%q,%d,%v), want (v1,0,true)", v, seq, ok)
	}
	if _, _, ok := c.Get("absent"); ok {
		t.Fatal("Get on absent key succeeded")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want hits=1 misses=1 entries=1", st)
	}
}

func TestEvictScopesRemovesAndFences(t *testing.T) {
	c, _ := newTest(0, 0)
	start := c.Seq()
	c.PutChecked("ab", "1", scopesOf("a", "b"), start)
	c.PutChecked("bc", "2", scopesOf("b", "c"), start)
	c.PutChecked("cd", "3", scopesOf("c", "d"), start)
	if n := c.EvictScopes(scopesOf("b")); n != 2 {
		t.Fatalf("EvictScopes(b) removed %d, want 2", n)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if _, _, ok := c.Lookup("cd"); !ok {
		t.Fatal("untouched entry lost")
	}
	// A put whose computation started before the eviction is refused.
	if c.PutChecked("ab", "stale", scopesOf("a", "b"), start) {
		t.Fatal("stale PutChecked landed")
	}
	// ...but one fenced after it lands.
	if !c.PutChecked("ab", "fresh", scopesOf("a", "b"), c.Seq()) {
		t.Fatal("fresh PutChecked refused")
	}
	if st := c.Stats(); st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
}

func TestInvalidateFencesEverything(t *testing.T) {
	c, _ := newTest(0, 0)
	gen, seq := c.Fence()
	c.PutChecked("k", "v", scopesOf("a"), seq)
	c.Invalidate()
	if c.Len() != 0 {
		t.Fatalf("Len after Invalidate = %d", c.Len())
	}
	if c.PutChecked("k", "stale", scopesOf("a"), seq) {
		t.Fatal("pre-flush PutChecked landed")
	}
	if c.PutFenced("k", "stale", scopesOf("a"), gen, seq) {
		t.Fatal("pre-flush PutFenced landed")
	}
	gen2, seq2 := c.Fence()
	if gen2 != gen+1 {
		t.Fatalf("generation = %d, want %d", gen2, gen+1)
	}
	if !c.PutFenced("k", "fresh", scopesOf("a"), gen2, seq2) {
		t.Fatal("post-flush PutFenced refused")
	}
}

func TestPutFencedLazyStaleness(t *testing.T) {
	c, _ := newTest(0, 0)
	gen, seq := c.Fence()
	c.EvictScopes(scopesOf("w")) // eviction lands mid-computation
	if !c.PutFenced("u", "set", scopesOf("u", "a"), gen, seq) {
		t.Fatal("late PutFenced refused (no flush happened)")
	}
	v, entrySeq, ok := c.Lookup("u")
	if !ok || v != "set" {
		t.Fatalf("Lookup = (%q,%v)", v, ok)
	}
	if stale := c.StaleSince(entrySeq); len(stale) != 1 || stale[0] != "w" {
		t.Fatalf("StaleSince = %v, want [w]", stale)
	}
	// An entry stored at the current fence has nothing to patch.
	_, seq2 := c.Fence()
	c.PutFenced("v", "set2", scopesOf("v"), gen, seq2)
	_, eseq, _ := c.Lookup("v")
	if stale := c.StaleSince(eseq); len(stale) != 0 {
		t.Fatalf("fresh entry stale = %v", stale)
	}
	// However far behind an entry falls, every scope evicted since is
	// named — the reader patches for all of them.
	for i := 0; i < 100; i++ {
		c.EvictScopes(scopesOf(fmt.Sprintf("x%d", i)))
	}
	if stale := c.StaleSince(entrySeq); len(stale) != 101 {
		t.Fatalf("StaleSince named %d scopes, want 101", len(stale))
	}
}

func TestTTLExpiryLazyAndSweep(t *testing.T) {
	c, clk := newTest(time.Minute, 0)
	c.PutChecked("k1", "v1", scopesOf("a"), c.Seq())
	c.PutChecked("k2", "v2", scopesOf("b"), c.Seq())
	if _, _, ok := c.Lookup("k1"); !ok {
		t.Fatal("fresh entry missed")
	}
	clk.advance(2 * time.Minute)
	// Lazy reap on lookup.
	if _, _, ok := c.Lookup("k1"); ok {
		t.Fatal("expired entry served")
	}
	if c.Len() != 1 {
		t.Fatalf("Len after lazy reap = %d, want 1", c.Len())
	}
	// Janitor sweep reaps the rest.
	c.Sweep()
	if c.Len() != 0 {
		t.Fatalf("Len after sweep = %d, want 0", c.Len())
	}
	if st := c.Stats(); st.Expirations != 2 {
		t.Fatalf("expirations = %d, want 2", st.Expirations)
	}
	// A recomputed entry gets a fresh lease.
	c.PutChecked("k1", "v1'", scopesOf("a"), c.Seq())
	clk.advance(30 * time.Second)
	if v, _, ok := c.Lookup("k1"); !ok || v != "v1'" {
		t.Fatal("refreshed entry missed within TTL")
	}
}

func TestLRUCapacityBound(t *testing.T) {
	// Single shard so the bound is exact.
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := New[string, string, string](Config[string, string]{
		Hash: nil, MaxEntries: 3, Now: clk.Now, JanitorInterval: -1,
	})
	for i := 0; i < 3; i++ {
		c.PutChecked(fmt.Sprintf("k%d", i), "v", scopesOf("s"), c.Seq())
	}
	// Touch k0 so k1 becomes least recently used.
	if _, _, ok := c.Lookup("k0"); !ok {
		t.Fatal("k0 missing")
	}
	c.PutChecked("k3", "v", scopesOf("s"), c.Seq())
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if _, _, ok := c.Lookup("k1"); ok {
		t.Fatal("LRU victim k1 survived")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, _, ok := c.Lookup(k); !ok {
			t.Fatalf("%s evicted, want k1 only", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// Scoped eviction still finds capacity-managed entries.
	if n := c.EvictScopes(scopesOf("s")); n != 3 {
		t.Fatalf("EvictScopes removed %d, want 3", n)
	}
}

func TestGetOrComputeSingleflight(t *testing.T) {
	c, _ := newTest(0, 0)
	var computes atomic.Int64
	gate := make(chan struct{})
	const callers = 8
	var wg sync.WaitGroup
	results := make([]string, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.GetOrCompute("k", scopesOf("a"), func() string {
				computes.Add(1)
				<-gate
				return "computed"
			})
		}(i)
	}
	// Let the goroutines pile onto the flight, then release it. (The
	// gate holds the leader's compute open; joiners block on done.)
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i, r := range results {
		if r != "computed" {
			t.Fatalf("caller %d got %q", i, r)
		}
	}
	if v, _, ok := c.Lookup("k"); !ok || v != "computed" {
		t.Fatalf("value not stored: (%q,%v)", v, ok)
	}
}

func TestGetOrComputeFencedFlightNotStored(t *testing.T) {
	c, _ := newTest(0, 0)
	computing := make(chan struct{})
	release := make(chan struct{})
	var gated atomic.Bool
	gated.Store(true)
	done := make(chan string, 1)
	go func() {
		done <- c.GetOrCompute("k", scopesOf("a"), func() string {
			if gated.Load() {
				close(computing)
				<-release
			}
			return "pre-write"
		})
	}()
	<-computing
	c.EvictScopes(scopesOf("a")) // the write lands mid-compute
	gated.Store(false)
	close(release)
	if v := <-done; v != "pre-write" {
		t.Fatalf("caller got %q, want the computed value back", v)
	}
	if c.Len() != 0 {
		t.Fatalf("fenced-off flight was stored: Len = %d", c.Len())
	}
}

func TestTouchedMapPruned(t *testing.T) {
	c, _ := newTest(0, 0)
	// No live entries: after enough evictions to cross a prune
	// boundary, the touched map must not retain every scope ever
	// evicted (the unbounded-growth footgun of the old caches).
	for i := 0; i < pruneEvery*3; i++ {
		c.EvictScopes(scopesOf(fmt.Sprintf("user%05d", i)))
	}
	if got := c.touchedLen(); got > pruneEvery {
		t.Fatalf("touched map grew to %d records (> %d) despite pruning", got, pruneEvery)
	}
	// A put fenced before the pruned floor is refused, not mis-stored.
	if c.PutChecked("k", "v", scopesOf("user00000"), 0) {
		t.Fatal("put below the pruned floor landed")
	}
}

func TestJanitorRunsAndCloseStopsIt(t *testing.T) {
	c := New[string, string, string](Config[string, string]{
		Hash:            func(k string) uint32 { return FNV1a(k) },
		TTL:             5 * time.Millisecond,
		JanitorInterval: time.Millisecond,
	})
	defer c.Close()
	c.PutChecked("k", "v", scopesOf("a"), c.Seq())
	deadline := time.Now().Add(2 * time.Second)
	for c.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("janitor never reaped the expired entry")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := c.Stats(); st.Expirations == 0 {
		t.Fatal("expiration not counted")
	}
	c.Close()
	c.Close() // idempotent
	// The cache stays usable after Close (lazy expiry still applies).
	c.PutChecked("k2", "v2", scopesOf("a"), c.Seq())
	if _, _, ok := c.Lookup("k2"); !ok {
		t.Fatal("cache unusable after Close")
	}
}

// TestConcurrentMixedOps drives lookups, computes, puts, scoped
// evictions, invalidations, TTL expiry, and sweeps from many
// goroutines — the -race regression for the engine itself.
func TestConcurrentMixedOps(t *testing.T) {
	c, clk := newTest(50*time.Millisecond, 64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	key := func(i int) string { return fmt.Sprintf("k%02d", i%32) }
	scope := func(i int) string { return fmt.Sprintf("s%02d", i%8) }
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := key(i + w*7)
				c.GetOrCompute(k, scopesOf(scope(i), scope(i+1)), func() string { return k + "-v" })
				if v, _, ok := c.Lookup(k); ok && v != k+"-v" {
					t.Errorf("torn value %q for %q", v, k)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.EvictScopes(scopesOf(scope(i)))
			if i%50 == 0 {
				c.Invalidate()
			}
			if i%17 == 0 {
				clk.advance(20 * time.Millisecond)
				c.Sweep()
			}
		}
	}()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestAgeHistogram: entries land in the bucket matching their age
// under the injected clock, and refreshing an entry resets its age.
func TestAgeHistogram(t *testing.T) {
	c, clk := newTest(0, 0)
	bounds := []time.Duration{time.Second, time.Minute, time.Hour}
	if got := c.AgeHistogram(bounds); len(got) != 4 {
		t.Fatalf("histogram length = %d, want len(bounds)+1", len(got))
	}
	put := func(k string) {
		if !c.PutChecked(k, "v", scopesOf(k), c.Seq()) {
			t.Fatalf("put %s refused", k)
		}
	}
	put("old")
	clk.advance(2 * time.Hour) // "old" is now beyond every bound
	put("mid")
	clk.advance(30 * time.Second) // "mid" now ≤ 1m
	put("fresh")                  // age 0 → ≤ 1s
	got := c.AgeHistogram(bounds)
	want := []int{1, 1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("histogram = %v, want %v", got, want)
		}
	}
	// Refreshing "old" in place moves it to the youngest bucket.
	put("old")
	got = c.AgeHistogram(bounds)
	if got[0] != 2 || got[3] != 0 {
		t.Fatalf("histogram after refresh = %v, want [2 1 0 0]", got)
	}
}

// TestAgeHistogramTotalsMatchEntries: expired-but-unreaped entries
// stay in the histogram at their true age, so the bucket totals always
// agree with the stored-entry count — until a sweep reaps them, when
// both drop together.
func TestAgeHistogramTotalsMatchEntries(t *testing.T) {
	c, clk := newTest(time.Minute, 0)
	if !c.PutChecked("a", "v", scopesOf("a"), c.Seq()) {
		t.Fatal("put refused")
	}
	bounds := []time.Duration{time.Hour}
	if got := c.AgeHistogram(bounds); got[0] != 1 {
		t.Fatalf("live entry not counted: %v", got)
	}
	clk.advance(2 * time.Minute) // past the TTL, not yet reaped
	got := c.AgeHistogram(bounds)
	if got[0]+got[1] != c.Len() || c.Len() != 1 {
		t.Fatalf("histogram %v totals != stored entries %d", got, c.Len())
	}
	c.Sweep()
	got = c.AgeHistogram(bounds)
	if got[0]+got[1] != c.Len() || c.Len() != 0 {
		t.Fatalf("post-sweep histogram %v totals != stored entries %d", got, c.Len())
	}
}
