package cache

import (
	"testing"
	"time"
)

func TestCostBoundEvictsLRU(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := New[string, string, string](Config[string, string]{
		Shards:          1,
		Hash:            func(k string) uint32 { return FNV1a(k) },
		MaxCost:         10,
		Cost:            func(_ string, v string) int64 { return int64(len(v)) },
		Now:             clk.Now,
		JanitorInterval: -1,
	})
	defer c.Close()
	c.PutChecked("a", "xxxx", scopesOf("s"), c.Seq()) // cost 4
	c.PutChecked("b", "xxxx", scopesOf("s"), c.Seq()) // cost 4
	if st := c.Stats(); st.Cost != 8 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want cost=8 entries=2", st)
	}
	// +4 overflows the budget of 10: LRU entry "a" must go.
	c.PutChecked("c", "xxxx", scopesOf("s"), c.Seq())
	if _, _, ok := c.Get("a"); ok {
		t.Fatal("LRU entry survived cost eviction")
	}
	if _, _, ok := c.Get("b"); !ok {
		t.Fatal("MRU entry evicted")
	}
	st := c.Stats()
	if st.Cost != 8 || st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want cost=8 entries=2 evictions=1", st)
	}
}

func TestCostBoundAdmitsOversizedEntryAlone(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := New[string, string, string](Config[string, string]{
		Shards:          1,
		Hash:            func(k string) uint32 { return FNV1a(k) },
		MaxCost:         5,
		Cost:            func(_ string, v string) int64 { return int64(len(v)) },
		Now:             clk.Now,
		JanitorInterval: -1,
	})
	defer c.Close()
	c.PutChecked("small", "x", scopesOf("s"), c.Seq())
	c.PutChecked("huge", "xxxxxxxxxx", scopesOf("s"), c.Seq()) // cost 10 > budget 5
	if _, _, ok := c.Get("huge"); !ok {
		t.Fatal("over-budget entry not admitted")
	}
	if _, _, ok := c.Get("small"); ok {
		t.Fatal("small entry survived; should have been evicted to make room")
	}
	if st := c.Stats(); st.Entries != 1 || st.Cost != 10 {
		t.Fatalf("stats = %+v, want the oversized entry alone", st)
	}
}

func TestCostAccountingOnInvalidateAndEvict(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := New[string, string, string](Config[string, string]{
		Shards:          1,
		Hash:            func(k string) uint32 { return FNV1a(k) },
		MaxCost:         100,
		Cost:            func(_ string, v string) int64 { return int64(len(v)) },
		Now:             clk.Now,
		JanitorInterval: -1,
	})
	defer c.Close()
	c.PutChecked("a", "xx", scopesOf("s1"), c.Seq())
	c.PutChecked("b", "xxx", scopesOf("s2"), c.Seq())
	c.EvictScopes([]string{"s1"})
	if st := c.Stats(); st.Cost != 3 || st.Entries != 1 {
		t.Fatalf("after EvictScopes: stats = %+v, want cost=3 entries=1", st)
	}
	c.Invalidate()
	if st := c.Stats(); st.Cost != 0 || st.Entries != 0 {
		t.Fatalf("after Invalidate: stats = %+v, want cost=0 entries=0", st)
	}
}
