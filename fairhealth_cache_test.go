package fairhealth

// Tests for the TTL/LRU warm-cache layer (internal/cache under the
// similarity memo and peer cache): configuration validation, expiry
// and capacity behavior observable through CacheStats, the
// deleted-user eviction regression, and the concurrent
// serve/write/expire interleaving exercised under -race. The common
// acceptance property throughout is the same as scoped invalidation's:
// whatever the cache layer does (expire, LRU-evict, rebuild), served
// scores stay bit-identical to a freshly built system's.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestCacheConfigValidation(t *testing.T) {
	if _, err := New(Config{CacheTTL: -time.Second}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative CacheTTL err = %v, want ErrBadConfig", err)
	}
	if _, err := New(Config{CacheMaxEntries: -1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative CacheMaxEntries err = %v, want ErrBadConfig", err)
	}
	sys, err := New(Config{CacheTTL: time.Minute, CacheMaxEntries: 1000})
	if err != nil {
		t.Fatalf("valid cache knobs rejected: %v", err)
	}
	defer sys.Close()
	cfg := sys.Config()
	if cfg.CacheTTL != time.Minute || cfg.CacheMaxEntries != 1000 {
		t.Errorf("knobs not kept: %+v", cfg)
	}
}

// cacheSystem builds the batch-test community with the given cache
// knobs and registers cleanup for the janitors.
func cacheSystem(t *testing.T, ttl time.Duration, maxEntries int) (*System, [][]string) {
	t.Helper()
	return cacheSystemWith(t, SimilarityRatings, ttl, maxEntries)
}

// cacheSystemWith is cacheSystem under the given similarity kind. The
// tests that observe the similarity memo run under SimilarityHybrid:
// under the default ratings similarity there is no memo.
func cacheSystemWith(t *testing.T, kind SimilarityKind, ttl time.Duration, maxEntries int) (*System, [][]string) {
	t.Helper()
	sys, err := New(Config{Delta: 0.55, MinOverlap: 4, K: 8, Similarity: kind, CacheTTL: ttl, CacheMaxEntries: maxEntries})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	ref, groups := batchSystem(t, 1)
	for _, tr := range ref.RatingTriples() {
		if err := sys.AddRating(tr.User, tr.Item, tr.Value); err != nil {
			t.Fatal(err)
		}
	}
	return sys, groups
}

// TestCacheTTLExpiryEquivalence: entries that expire and are
// recomputed answer bit-identically to a cold rebuild, and the
// expiration counters move.
func TestCacheTTLExpiryEquivalence(t *testing.T) {
	const ttl = 40 * time.Millisecond
	sys, groups := cacheSystemWith(t, SimilarityHybrid, ttl, 0)
	groups = groups[:3]
	if _, err := sys.PrecomputeSimilarity(context.Background()); err != nil {
		t.Fatal(err)
	}
	first, err := sys.ServeBatch(context.Background(), greedyQueries(groups, 6))
	if err != nil {
		t.Fatal(err)
	}
	warmed := sys.CacheStats()
	if warmed.Similarity.Entries == 0 || warmed.Peers.Entries == 0 {
		t.Fatalf("serve left caches empty: %+v", warmed)
	}

	time.Sleep(2 * ttl) // everything warm is now past its lease

	second, err := sys.ServeBatch(context.Background(), greedyQueries(groups, 6))
	if err != nil {
		t.Fatal(err)
	}
	for k := range groups {
		if first[k].Err != nil || second[k].Err != nil {
			t.Fatalf("group %d: %v / %v", k, first[k].Err, second[k].Err)
		}
		if fmt.Sprintf("%+v", first[k].Result) != fmt.Sprintf("%+v", second[k].Result) {
			t.Fatalf("group %d: expired-then-recomputed result differs from warm:\n %+v\n %+v",
				k, first[k].Result, second[k].Result)
		}
	}
	st := sys.CacheStats()
	if st.Similarity.Expirations == 0 {
		t.Errorf("no similarity expirations counted after TTL elapsed: %+v", st.Similarity)
	}
	if st.Peers.Expirations == 0 {
		t.Errorf("no peer-set expirations counted after TTL elapsed: %+v", st.Peers)
	}
	// The full acceptance property: post-expiry warm answers equal a
	// freshly built system's (cold caches, same data).
	assertSystemsAgree(t, "after TTL expiry", sys, rebuildFrom(t, sys), groups)
}

// TestCacheMaxEntriesBound: the LRU cap holds under serving, evictions
// are counted, and capacity eviction never changes answers.
func TestCacheMaxEntriesBound(t *testing.T) {
	const maxEntries = 64
	sys, groups := cacheSystemWith(t, SimilarityHybrid, 0, maxEntries)
	if _, err := sys.ServeBatch(context.Background(), greedyQueries(groups, 6)); err != nil {
		t.Fatal(err)
	}
	st := sys.CacheStats()
	if st.Similarity.Entries > maxEntries {
		t.Errorf("similarity entries %d exceed the %d bound", st.Similarity.Entries, maxEntries)
	}
	if st.Peers.Entries > maxEntries {
		t.Errorf("peer entries %d exceed the %d bound", st.Peers.Entries, maxEntries)
	}
	// 12 groups over 40 users × ~39-pair rows blow well past 64 pairs,
	// so the LRU must have evicted.
	if st.Similarity.Evictions == 0 {
		t.Errorf("no LRU evictions counted: %+v", st.Similarity)
	}
	assertSystemsAgree(t, "under LRU pressure", sys, rebuildFrom(t, sys), groups[:3])
}

// TestUserDeletionEvictsCaches is the unbounded-growth regression:
// removing a user's last rating (the user disappears from the store)
// must evict their similarity row and every peer set that contained
// them — warm caches must not retain rows for deleted users.
func TestUserDeletionEvictsCaches(t *testing.T) {
	sys, groups := hybridBatchSystem(t, 1)
	groups = groups[:3]
	if _, err := sys.PrecomputeSimilarity(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ServeBatch(context.Background(), greedyQueries(groups, 6)); err != nil {
		t.Fatal(err)
	}
	victim := groups[0][0]
	before := sys.CacheStats()
	for _, tr := range sys.RatingTriples() {
		if tr.User != victim {
			continue
		}
		if err := sys.RemoveRating(tr.User, tr.Item); err != nil {
			t.Fatal(err)
		}
	}
	if got := sys.Stats().Users; got != 39 {
		t.Fatalf("store still reports %d users after deletion, want 39", got)
	}
	// The deleted user is unknown again, not served from a stale row.
	if _, err := sys.Peers(victim); !errors.Is(err, ErrUnknownPatient) {
		t.Errorf("Peers(deleted) err = %v, want ErrUnknownPatient", err)
	}
	after := sys.CacheStats()
	if after.Similarity.Evictions <= before.Similarity.Evictions {
		t.Errorf("deletion evicted no similarity rows: before %+v after %+v",
			before.Similarity, after.Similarity)
	}
	if after.Peers.Evictions <= before.Peers.Evictions {
		t.Errorf("deletion evicted no peer sets: before %+v after %+v",
			before.Peers, after.Peers)
	}
	// Remaining users serve bit-identically to a rebuild without the
	// victim — no cached peer set still names them.
	survivors := [][]string{groups[1], groups[2]}
	assertSystemsAgree(t, "after user deletion", sys, rebuildFrom(t, sys), survivors)
}

// TestConcurrentServeWritesWithTTLExpiry is the -race satellite:
// batch serving runs against concurrent rating writes while a short
// TTL expires entries mid-traffic. Expiry mid-request must never
// surface stale or torn peer sets — every in-flight answer is
// well-formed, and after quiescence the warm system agrees
// bit-for-bit with a from-scratch rebuild.
func TestConcurrentServeWritesWithTTLExpiry(t *testing.T) {
	sys, groups := cacheSystem(t, 15*time.Millisecond, 0)
	groups = groups[:5]
	if _, err := sys.PrecomputeSimilarity(context.Background()); err != nil {
		t.Fatal(err)
	}
	users := sys.SortedUsers()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			u := users[i%6] // write to users the groups actively read
			if err := sys.AddRating(u, fmt.Sprintf("doc%04d", i%40), float64(1+i%5)); err != nil {
				t.Error(err)
				return
			}
			if i%10 == 0 {
				time.Sleep(10 * time.Millisecond) // let leases lapse mid-run
			}
		}
	}()
	for round := 0; round < 4; round++ {
		batch, err := sys.ServeBatch(context.Background(), greedyQueries(groups, 6))
		if err != nil {
			t.Fatal(err)
		}
		for k, e := range batch {
			if e.Err != nil {
				t.Fatalf("round %d group %d: %v", round, k, e.Err)
			}
			if e.Result == nil {
				t.Fatalf("round %d group %d: torn entry (no result, no error)", round, k)
			}
		}
		time.Sleep(8 * time.Millisecond)
	}
	wg.Wait()
	assertSystemsAgree(t, "after quiescence with TTL", sys, rebuildFrom(t, sys), groups)
}

// TestFullInvalidationCountsSimilarityEvictions: a full flush counts
// the similarity memo's dropped entries as evictions (the entries are
// discarded at the post-flush rebuild), matching the peer cache's
// accounting and the documented CacheCounters semantics.
func TestFullInvalidationCountsSimilarityEvictions(t *testing.T) {
	sys, groups := hybridBatchSystem(t, 1)
	if _, err := sys.Serve(context.Background(), GroupQuery{Members: groups[0], Z: 4}); err != nil {
		t.Fatal(err)
	}
	before := sys.CacheStats()
	if before.Similarity.Entries == 0 {
		t.Fatalf("serve left no similarity entries: %+v", before.Similarity)
	}
	sys.InvalidateCaches()
	if _, err := sys.Serve(context.Background(), GroupQuery{Members: groups[0], Z: 4}); err != nil {
		t.Fatal(err)
	}
	after := sys.CacheStats()
	if got, want := after.Similarity.Evictions, before.Similarity.Evictions+uint64(before.Similarity.Entries); got < want {
		t.Errorf("similarity evictions = %d after full flush, want ≥ %d (flushed entries counted)", got, want)
	}
	if after.Peers.Evictions <= before.Peers.Evictions {
		t.Errorf("peer evictions did not move across full flush: %+v → %+v", before.Peers, after.Peers)
	}
}

// TestRatingsSimilarityKeepsNoMemo pins the default configuration:
// under the ratings similarity peer discovery computes whole rows, so a
// cold serve and a write leave the similarity memo empty, and
// PrecomputeSimilarity has nothing to compute.
func TestRatingsSimilarityKeepsNoMemo(t *testing.T) {
	sys, groups := batchSystem(t, 1)
	if _, err := sys.Serve(context.Background(), GroupQuery{Members: groups[0], Z: 4}); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddRating(groups[0][0], "doc0001", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Serve(context.Background(), GroupQuery{Members: groups[0], Z: 4}); err != nil {
		t.Fatal(err)
	}
	st := sys.CacheStats()
	if st.Similarity.Entries != 0 {
		t.Errorf("ratings similarity left %d memo entries, want 0", st.Similarity.Entries)
	}
	if st.Peers.Entries == 0 {
		t.Errorf("serve left no peer sets: %+v", st.Peers)
	}
	pairs, err := sys.PrecomputeSimilarity(context.Background())
	if err != nil || pairs != 0 {
		t.Errorf("PrecomputeSimilarity = %d, %v; want 0, nil", pairs, err)
	}
	assertSystemsAgree(t, "ratings similarity after a write", sys, rebuildFrom(t, sys), groups[:3])
}

// TestAdaptiveCacheConfigValidation covers the Config surface of the
// cost bound.
func TestAdaptiveCacheConfigValidation(t *testing.T) {
	if _, err := New(Config{CacheMaxCost: -1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("cost negative: err = %v, want ErrBadConfig", err)
	}
	sys, err := New(Config{CacheTTL: time.Minute, CacheMaxCost: 4096})
	if err != nil {
		t.Fatalf("valid cost bound rejected: %v", err)
	}
	defer sys.Close()
}

// TestCacheMaxCostBound: the cost budget holds under serving (observable
// through CacheStats.Cost), evicts under pressure, and — the acceptance
// property — size-aware eviction never changes answers.
func TestCacheMaxCostBound(t *testing.T) {
	const maxCost = 96
	sys, err := New(Config{Delta: 0.55, MinOverlap: 4, K: 8, Similarity: SimilarityHybrid, CacheMaxCost: maxCost})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	ref, groups := batchSystem(t, 1)
	for _, tr := range ref.RatingTriples() {
		if err := sys.AddRating(tr.User, tr.Item, tr.Value); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.ServeBatch(context.Background(), greedyQueries(groups, 6)); err != nil {
		t.Fatal(err)
	}
	st := sys.CacheStats()
	// Sharded budget: each shard holds at most maxCost/shards, except a
	// single over-budget entry admitted alone — so total cost can only
	// exceed maxCost by the size of the largest single entries, never by
	// unbounded accumulation. The similarity layer's entries cost 1
	// each, so its bound is exact.
	if st.Similarity.Cost > maxCost {
		t.Errorf("similarity cost %d exceeds the %d budget", st.Similarity.Cost, maxCost)
	}
	if st.Similarity.Cost != int64(st.Similarity.Entries) {
		t.Errorf("similarity cost %d ≠ entries %d (pairs cost 1)", st.Similarity.Cost, st.Similarity.Entries)
	}
	if st.Similarity.Evictions == 0 {
		t.Errorf("no cost evictions counted under pressure: %+v", st.Similarity)
	}
	if st.Peers.Cost == 0 || st.Groups.Cost == 0 {
		t.Errorf("cost not accounted: peers %d groups %d", st.Peers.Cost, st.Groups.Cost)
	}
	assertSystemsAgree(t, "under cost-bound pressure", sys, rebuildFrom(t, sys), groups[:3])
}

// TestSystemCloseIdempotentAndUsable: Close stops the janitors but
// the system keeps serving (lazy expiry still applies), and a second
// Close is harmless.
func TestSystemCloseIdempotentAndUsable(t *testing.T) {
	sys, groups := cacheSystem(t, time.Minute, 0)
	if _, err := sys.Serve(context.Background(), GroupQuery{Members: groups[0], Z: 4}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Serve(context.Background(), GroupQuery{Members: groups[0], Z: 4}); err != nil {
		t.Fatalf("serve after Close: %v", err)
	}
}
