package simfn

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"fairhealth/internal/model"
	"fairhealth/internal/ratings"
)

// warmStore builds a deterministic ratings matrix with enough overlap
// for Pearson to be defined on most pairs.
func warmStore(t testing.TB, users, items int) (*ratings.Store, []model.UserID) {
	t.Helper()
	st := ratings.New()
	ids := make([]model.UserID, users)
	for u := 0; u < users; u++ {
		ids[u] = model.UserID(fmt.Sprintf("u%03d", u))
		for i := 0; i < items; i++ {
			if (u+i)%4 == 0 {
				continue // leave holes so the matrix is sparse
			}
			v := model.Rating(1 + (u*7+i*3)%5)
			if err := st.Add(ids[u], model.ItemID(fmt.Sprintf("d%03d", i)), v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st, ids
}

func warmMeasure(st *ratings.Store) UserSimilarity {
	return Normalized{S: Pearson{Store: st, MinOverlap: 2}}
}

// touchAll looks up every unordered pair of users, filling c.
func touchAll(c *Cached, users []model.UserID) {
	for i, a := range users {
		for _, b := range users[i+1:] {
			c.Similarity(a, b)
		}
	}
}

// entryJSON is one live memo entry in canonical orientation.
type entryJSON struct {
	A, B model.UserID
	Sim  float64
	Ok   bool
}

// entries snapshots the live (unexpired) memo entries sorted by (A, B).
func entries(c *Cached) []entryJSON {
	var out []entryJSON
	c.table.Range(func(k pairKey, e cacheEntry) bool {
		out = append(out, entryJSON{A: k.a, B: k.b, Sim: e.sim, Ok: e.ok})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// entriesJSON renders a cache snapshot to bytes so "byte-identical" is
// checked literally, not just structurally.
func entriesJSON(t *testing.T, c *Cached) []byte {
	t.Helper()
	b, err := json.Marshal(entries(c))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// ttlClock is an injectable clock for deterministic expiry tests.
type ttlClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *ttlClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *ttlClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestCachedTTLExpiredRecomputeBitIdentical: a memo table whose
// entries all expired and were recomputed holds exactly the bytes a
// cold build holds — TTL'd warmth never changes answers.
func TestCachedTTLExpiredRecomputeBitIdentical(t *testing.T) {
	st, users := warmStore(t, 16, 30)
	base := warmMeasure(st)
	clk := &ttlClock{t: time.Unix(1000, 0)}
	c := NewCachedWith(base, CacheOptions{TTL: time.Minute, Clock: clk.Now, JanitorInterval: -1})
	touchAll(c, users)
	warmJSON := entriesJSON(t, c)

	clk.advance(2 * time.Minute)
	if got := len(entries(c)); got != 0 {
		t.Fatalf("expired table still exposes %d entries", got)
	}
	// Lookups past the lease recompute; a full re-touch rebuilds the
	// table from the same data.
	for i, a := range users {
		for _, b := range users[i+1:] {
			gotSim, gotOK := c.Similarity(a, b)
			wantSim, wantOK := base.Similarity(a, b)
			if gotSim != wantSim || gotOK != wantOK {
				t.Fatalf("pair (%s,%s): recomputed (%v,%v), direct (%v,%v)", a, b, gotSim, gotOK, wantSim, wantOK)
			}
		}
	}
	if !bytes.Equal(entriesJSON(t, c), warmJSON) {
		t.Fatal("expired-then-recomputed table differs from the original warm build")
	}
	cold := NewCached(base)
	touchAll(cold, users)
	if !bytes.Equal(entriesJSON(t, c), entriesJSON(t, cold)) {
		t.Fatal("TTL'd table differs from a cold build")
	}
	if st := c.Stats(); st.Expirations == 0 {
		t.Errorf("no expirations counted: %+v", st)
	}
}

// TestCachedMaxEntriesLRU: the pair memo honors its LRU bound and
// evicted pairs recompute correctly.
func TestCachedMaxEntriesLRU(t *testing.T) {
	inner := newCountingSim()
	users := evictUsers(8)
	for i := range users {
		for j := i + 1; j < len(users); j++ {
			inner.set(users[i], users[j], float64(i+j)/10)
		}
	}
	c := NewCachedWith(inner, CacheOptions{MaxEntries: 8})
	for i := range users {
		for j := i + 1; j < len(users); j++ {
			c.Similarity(users[i], users[j])
		}
	}
	if c.Len() > 8 {
		t.Fatalf("Len = %d exceeds the 8-entry bound", c.Len())
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no LRU evictions counted: %+v", st)
	}
	// Evicted pairs recompute to the same values.
	for i := range users {
		for j := i + 1; j < len(users); j++ {
			if s, ok := c.Similarity(users[i], users[j]); !ok || s != float64(i+j)/10 {
				t.Fatalf("pair (%d,%d) = (%v,%v) after eviction", i, j, s, ok)
			}
		}
	}
}

// TestCachedSingleflightDedupes: concurrent misses of one pair run the
// inner measure once.
func TestCachedSingleflightDedupes(t *testing.T) {
	gate := make(chan struct{})
	inner := newCountingSim()
	inner.set("a", "b", 0.5)
	gated := Func(func(x, y model.UserID) (float64, bool) {
		<-gate
		return inner.Similarity(x, y)
	})
	c := NewCached(gated)
	const callers = 6
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s, ok := c.Similarity("a", "b"); !ok || s != 0.5 {
				t.Errorf("Similarity = (%v,%v), want (0.5,true)", s, ok)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the callers pile onto the flight
	close(gate)
	wg.Wait()
	if n := inner.calls.Load(); n != 1 {
		t.Fatalf("inner ran %d times for one pair, want 1 (singleflight)", n)
	}
}

// TestWarmConcurrentWithLookups: a goroutine filling the whole memo
// races point lookups from four others, and every lookup answers what
// the bare measure answers.
func TestWarmConcurrentWithLookups(t *testing.T) {
	st, users := warmStore(t, 24, 30)
	base := warmMeasure(st)
	c := NewCached(base)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		touchAll(c, users)
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				a := users[(k+off)%len(users)]
				b := users[(k*3+off+1)%len(users)]
				if a == b {
					continue
				}
				gotSim, gotOK := c.Similarity(a, b)
				wantSim, wantOK := base.Similarity(a, b)
				if gotSim != wantSim || gotOK != wantOK {
					t.Errorf("pair (%s,%s): got (%v,%v), want (%v,%v)", a, b, gotSim, gotOK, wantSim, wantOK)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
