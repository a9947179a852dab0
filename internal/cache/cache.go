// Package cache is the shared cache engine under the recommender's
// memoization layers. The similarity memo (simfn.Cached) and the
// peer-set cache (cf.PeerCache) used to be two hand-rolled, structurally
// parallel map+mutex caches that grew without bound and never aged out;
// both are now thin domain adapters over the single core here, which
// provides:
//
//   - Sharded storage: keys are spread over a power-of-two number of
//     shards by a caller-supplied hash, each with its own lock, so
//     concurrent lookups and stores of different keys do not serialize
//     on one global mutex.
//   - Per-entry TTL: entries written more than the TTL ago answer as
//     misses and are reaped — lazily on lookup and periodically by a
//     background janitor goroutine (Close stops it) — so long-idle
//     entries age out instead of living forever. Expiry changes when
//     entries die, never what a hit returns: a recomputation after
//     expiry reads the same underlying data.
//   - LRU capacity bounds: Config.MaxEntries caps the table by entry
//     count and Config.MaxCost by total entry cost (a caller-supplied
//     per-entry cost function — peers in a set, scores in an assembled
//     input — so big entries count for what they hold); inserting
//     beyond a shard's share evicts its least-recently-used entries.
//   - Singleflight loading: GetOrCompute deduplicates concurrent misses
//     of one key so the underlying value is computed once.
//   - Scoped eviction with sequence fencing: every entry is indexed
//     under a set of scope keys (the two endpoints of a similarity
//     pair; a peer set's owner). EvictScopes removes every
//     entry touching a scope and records the scope as touched at the
//     bumped eviction sequence, so a value computed before the eviction
//     can be refused at store time (PutChecked) or patched lazily on
//     its next read (PutFenced + StaleSince) — an in-flight computation
//     racing a write can never resurrect stale state.
//   - Atomic stats: hits, misses, evictions, expirations, and the live
//     entry count, all race-safe and cheap to poll.
//
// # Fencing model
//
// The cache keeps one fence: a generation (bumped by Invalidate, the
// full flush), an eviction sequence (bumped by every EvictScopes), a
// touched map recording the sequence at which each scope was last
// evicted, and a floor below which stale-tracking records have been
// pruned. Two store disciplines ride on it:
//
//   - PutChecked(key, value, scopes, startSeq) — drop-if-stale: the
//     caller captured Seq() before computing; the store is refused when
//     any scope was evicted after startSeq, when a full Invalidate
//     happened, or when startSeq predates the floor. Used by the
//     similarity memo, whose values must never be served stale.
//   - PutFenced(key, value, scopes, gen, seq) — store-and-patch: the
//     caller captured Fence() before computing; the store is refused
//     only on a generation mismatch or a pruned floor, and the entry
//     carries seq so StaleSince can name exactly the scopes evicted
//     after it for the caller to re-evaluate. Used by the peer cache,
//     whose values can be patched member-by-member.
//
// TTL expiry and LRU eviction do NOT touch the fence: they only remove
// entries, and a recomputation after either reads the same underlying
// data, so no staleness can arise.
//
// # Growth bounds
//
// The touched map is pruned every pruneEvery evictions: the floor rises
// to the oldest sequence any live entry was stored at, and records at
// or below it are deleted (a put fenced before the floor is refused, so
// the prune can never hide an eviction from an entry that needed to see
// it). Combined with scoped eviction on user deletion, TTL, and the LRU
// bound, neither entries nor fencing metadata grow without bound.
package cache

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultShards is the shard count used when Config.Shards is zero.
const DefaultShards = 16

// pruneEvery is how many evictions elapse between prunes of the
// touched map (see the package comment's growth bounds).
const pruneEvery = 64

// minJanitorInterval floors the TTL-derived janitor period so a
// microscopic TTL (e.g. a benchmark forcing every request to expire)
// cannot spin a goroutine hot.
const minJanitorInterval = time.Second

// Config tunes a Cache. The zero value of every field is usable when a
// Hash is supplied; without one the cache degrades to a single shard.
type Config[K comparable, V any] struct {
	// Hash places keys on shards. nil forces a single shard.
	Hash func(K) uint32
	// Shards is the shard count, rounded up to a power of two.
	// 0 means DefaultShards (or 1 when Hash is nil).
	Shards int
	// TTL bounds each entry's lifetime; 0 disables expiry.
	TTL time.Duration
	// MaxEntries caps the table size; inserts beyond a shard's share
	// evict least-recently-used entries. The bound is enforced per
	// shard, so the effective capacity is MaxEntries rounded down to a
	// multiple of the (possibly clamped) shard count — never more than
	// MaxEntries. 0 means unbounded.
	MaxEntries int
	// MaxCost caps the table by total entry cost as measured by Cost;
	// inserts beyond a shard's share (MaxCost / shard count) evict its
	// least-recently-used entries until the shard fits again. An entry
	// costlier than a whole shard's budget is admitted alone. 0 means
	// no cost bound.
	MaxCost int64
	// Cost prices one entry for the MaxCost bound — e.g. the number of
	// peers in a cached set, so a few huge sets cannot hide behind a
	// small entry count. nil (or with MaxCost 0) prices every entry at
	// 1, degrading the cost bound to an entry-count bound. Negative
	// returns are clamped to 0.
	Cost func(K, V) int64
	// Now is the clock (tests inject a fake one); nil means time.Now.
	Now func() time.Time
	// JanitorInterval is the period of the background expiry sweep,
	// which runs only when TTL > 0. 0 derives it from the TTL (floored
	// at minJanitorInterval), negative disables the janitor (lazy
	// expiry still applies).
	JanitorInterval time.Duration
}

// Stats is a race-safe snapshot of the cache's counters.
type Stats struct {
	// Hits and Misses count lookups answered from / past the table
	// (GetOrCompute, Get, and the adapters' RecordHit/RecordMiss).
	Hits, Misses uint64
	// Evictions counts entries removed before natural expiry: scoped
	// evictions, LRU capacity evictions, and full invalidations.
	Evictions uint64
	// Expirations counts entries reaped because their TTL elapsed
	// (lazily on lookup or by the janitor).
	Expirations uint64
	// Entries is the number of entries currently stored.
	Entries int
	// Cost is the total cost of the stored entries under the
	// configured Cost function (equals Entries when none is set).
	Cost int64
}

// entry is one stored value with its fencing and lifetime metadata.
// prev/next thread the shard's LRU list (only maintained under a
// capacity or cost bound). Entries are recycled through the shard's
// free list and slab (see newEntryLocked): no pointer to an entry may
// be retained past the shard lock that looked it up.
type entry[K comparable, S comparable, V any] struct {
	key    K
	val    V
	seq    uint64 // fence sequence the value is valid for
	scopes []S
	// scopesInline backs scopes for the common ≤2-scope case (a
	// similarity pair's two endpoints), so a store allocates no scope
	// slice of its own.
	scopesInline [2]S
	// chained marks an entry indexed through the intrusive per-scope
	// chains (links) instead of the byScope map sets — the ≤2-scope
	// fast path that makes scope indexing allocation-free.
	chained bool
	// links[i] threads this entry into the chain of scopes[i] when
	// chained (scopes then aliases scopesInline, so i < 2).
	links    [2]scopeLink[K, S, V]
	storedAt int64 // unix nanos; expiry is storedAt + the TTL
	cost     int64 // price under Config.Cost; feeds the MaxCost bound
	prev     *entry[K, S, V]
	next     *entry[K, S, V]
}

// scopeLink is one entry's position in one scope's doubly-linked chain.
type scopeLink[K comparable, S comparable, V any] struct {
	prev, next *entry[K, S, V]
}

// slot returns which of e's (≤2, deduplicated) inline scopes is s.
// Caller guarantees e is chained under s.
func (e *entry[K, S, V]) slot(s S) int {
	if e.scopes[0] == s {
		return 0
	}
	return 1
}

// flight is one in-progress singleflight computation. stored is
// written before done is closed and read only after it; waiters that
// see stored re-read the value from the table itself (the flight never
// hands values out directly — see GetOrCompute).
type flight[V any] struct {
	done   chan struct{}
	stored bool
}

type shard[K comparable, S comparable, V any] struct {
	mu      sync.RWMutex
	entries map[K]*entry[K, S, V]
	// byScope indexes this shard's keys by scope so scoped eviction is
	// O(affected entries), not a table scan. Only entries with MORE
	// than two scopes land here; the common ≤2-scope entries are
	// threaded through the intrusive chains rooted in byChain instead,
	// which costs no allocation per store.
	byScope map[S]map[K]struct{}
	// byChain holds, per scope, the head of the doubly-linked chain of
	// the shard's chained (≤2-scope) entries under that scope.
	byChain map[S]*entry[K, S, V]
	flights map[K]*flight[V]
	// cost totals the stored entries' prices (guarded by mu); feeds
	// the per-shard MaxCost budget.
	cost int64
	// head/tail are the LRU sentinels (most recent at head.next); only
	// linked when the cache has a capacity or cost bound.
	head, tail *entry[K, S, V]
	// free chains removed entries (through next) for reuse, and slab is
	// the current allocation chunk new entries are carved from — churn
	// recycles entries and cold warms amortize one allocation over many
	// stores instead of paying one per entry.
	free     *entry[K, S, V]
	slab     []entry[K, S, V]
	slabUsed int
}

// slabMax caps the doubling slab chunk size (entries per allocation).
const slabMax = 256

// newEntryLocked returns a zeroed entry: recycled from the free list
// when churn has returned one, otherwise carved from the slab chunk
// (grown by doubling up to slabMax). Caller holds sh.mu.
func (sh *shard[K, S, V]) newEntryLocked() *entry[K, S, V] {
	if e := sh.free; e != nil {
		sh.free = e.next
		e.next = nil
		return e
	}
	if sh.slabUsed == len(sh.slab) {
		n := len(sh.slab) * 2
		if n < 8 {
			n = 8
		}
		if n > slabMax {
			n = slabMax
		}
		sh.slab = make([]entry[K, S, V], n)
		sh.slabUsed = 0
	}
	e := &sh.slab[sh.slabUsed]
	sh.slabUsed++
	return e
}

// linkScope threads e (at scope slot i) onto the front of s's chain.
// Caller holds sh.mu.
func (sh *shard[K, S, V]) linkScope(e *entry[K, S, V], i int, s S) {
	head := sh.byChain[s]
	e.links[i].prev = nil
	e.links[i].next = head
	if head != nil {
		head.links[head.slot(s)].prev = e
	}
	sh.byChain[s] = e
}

// unlinkScope removes e (at scope slot i) from s's chain. Caller holds
// sh.mu.
func (sh *shard[K, S, V]) unlinkScope(e *entry[K, S, V], i int, s S) {
	p, n := e.links[i].prev, e.links[i].next
	if p == nil {
		if n == nil {
			delete(sh.byChain, s)
		} else {
			sh.byChain[s] = n
		}
	} else {
		p.links[p.slot(s)].next = n
	}
	if n != nil {
		n.links[n.slot(s)].prev = p
	}
	e.links[i] = scopeLink[K, S, V]{}
}

// Cache is the engine. Create it with New; it is safe for concurrent
// use.
//
// Lock discipline: the fence lock is always acquired before any shard
// lock (puts hold fmu.RLock across the shard insert; the prune holds
// fmu.Lock across its scan), and shard locks are never held while
// acquiring the fence lock, so the lock graph is acyclic.
type Cache[K comparable, S comparable, V any] struct {
	shards []shard[K, S, V]
	mask   uint32
	hash   func(K) uint32

	ttlNanos  int64 // the lease in nanoseconds; 0 = never expire
	shardCap  int   // per-shard entry bound; 0 = unbounded
	shardCost int64 // per-shard cost budget; 0 = unbounded
	costFn    func(K, V) int64
	bounded   bool // shardCap > 0 || shardCost > 0: LRU list maintained
	now       func() time.Time

	// fence state (see the package comment).
	fmu      sync.RWMutex
	gen      uint64
	seq      uint64
	flushSeq uint64 // seq of the last Invalidate
	floor    uint64 // puts fenced below this are refused
	touched  map[S]uint64

	count       atomic.Int64
	totalCost   atomic.Int64
	hits        atomic.Uint64
	misses      atomic.Uint64
	evictions   atomic.Uint64
	expirations atomic.Uint64

	janitorStop chan struct{}
	closeOnce   sync.Once
}

// New builds a Cache for cfg.
func New[K comparable, S comparable, V any](cfg Config[K, V]) *Cache[K, S, V] {
	shards := cfg.Shards
	if cfg.Hash == nil {
		shards = 1
	} else if shards <= 0 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	shardCap := 0
	if cfg.MaxEntries > 0 {
		// The capacity bound is enforced per shard, so the shard count
		// is clamped to the bound and the per-shard share rounded down —
		// the global entry count then never exceeds MaxEntries (at the
		// cost of an effective capacity rounded down to a multiple of
		// the shard count).
		for n > 1 && n > cfg.MaxEntries {
			n >>= 1
		}
		shardCap = cfg.MaxEntries / n
	}
	hash := cfg.Hash
	if hash == nil {
		hash = func(K) uint32 { return 0 }
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	var shardCost int64
	if cfg.MaxCost > 0 {
		// The cost budget is enforced per shard like the entry bound;
		// a budget smaller than the shard count still leaves each shard
		// one unit so inserts always make progress.
		shardCost = cfg.MaxCost / int64(n)
		if shardCost == 0 {
			shardCost = 1
		}
	}
	c := &Cache[K, S, V]{
		shards:    make([]shard[K, S, V], n),
		mask:      uint32(n - 1),
		hash:      hash,
		shardCap:  shardCap,
		shardCost: shardCost,
		costFn:    cfg.Cost,
		ttlNanos:  int64(cfg.TTL),
		bounded:   shardCap > 0 || shardCost > 0,
		now:       now,
		touched:   make(map[S]uint64),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.entries = make(map[K]*entry[K, S, V])
		sh.byScope = make(map[S]map[K]struct{})
		sh.byChain = make(map[S]*entry[K, S, V])
		sh.flights = make(map[K]*flight[V])
		if c.bounded {
			sh.head = &entry[K, S, V]{}
			sh.tail = &entry[K, S, V]{}
			sh.head.next = sh.tail
			sh.tail.prev = sh.head
		}
	}
	if cfg.TTL > 0 && cfg.JanitorInterval >= 0 {
		interval := cfg.JanitorInterval
		if interval == 0 {
			interval = cfg.TTL
			if interval < minJanitorInterval {
				interval = minJanitorInterval
			}
		}
		c.janitorStop = make(chan struct{})
		go c.janitor(interval)
	}
	return c
}

// TTL returns the lease (0 = never expire).
func (c *Cache[K, S, V]) TTL() time.Duration {
	return time.Duration(c.ttlNanos)
}

// Close stops the background janitor (if any). The cache remains
// usable afterwards — only the periodic sweep stops; lazy expiry on
// lookup is unaffected. Close is idempotent.
func (c *Cache[K, S, V]) Close() {
	c.closeOnce.Do(func() {
		if c.janitorStop != nil {
			close(c.janitorStop)
		}
	})
}

func (c *Cache[K, S, V]) shard(k K) *shard[K, S, V] {
	return &c.shards[c.hash(k)&c.mask]
}

// expiredAt reports whether e is past the TTL at now (unix nanos).
// now == 0 means the caller skipped the clock because no TTL is set.
func (c *Cache[K, S, V]) expiredAt(e *entry[K, S, V], now int64) bool {
	return now != 0 && now > e.storedAt+c.ttlNanos
}

// nowNano returns the clock reading only when TTL checks need one.
func (c *Cache[K, S, V]) nowNano() int64 {
	if c.ttlNanos <= 0 {
		return 0
	}
	return c.now().UnixNano()
}

// ---------------------------------------------------------------------------
// lookups

// Lookup returns the stored value and the fence sequence it was stored
// under. It does not touch the hit/miss counters — domain adapters
// that post-process the result (e.g. the peer cache's stale patch-up)
// classify the outcome themselves via RecordHit/RecordMiss; use Get
// for the self-counting variant. An expired entry answers as a miss
// and is reaped in place.
func (c *Cache[K, S, V]) Lookup(k K) (v V, seq uint64, ok bool) {
	sh := c.shard(k)
	now := c.nowNano()
	if !c.bounded {
		sh.mu.RLock()
		e, found := sh.entries[k]
		if found && !c.expiredAt(e, now) {
			v, seq = e.val, e.seq
			sh.mu.RUnlock()
			return v, seq, true
		}
		sh.mu.RUnlock()
		if found {
			// Expired: upgrade to the write lock and reap, so the entry
			// count and expiration counter stay exact.
			sh.mu.Lock()
			if e2, still := sh.entries[k]; still && c.expiredAt(e2, now) {
				c.removeLocked(sh, e2)
				c.expirations.Add(1)
			}
			sh.mu.Unlock()
		}
		return v, 0, false
	}
	// Capacity-bounded shards maintain LRU recency on every lookup.
	sh.mu.Lock()
	e, found := sh.entries[k]
	if !found {
		sh.mu.Unlock()
		return v, 0, false
	}
	if c.expiredAt(e, now) {
		c.removeLocked(sh, e)
		c.expirations.Add(1)
		sh.mu.Unlock()
		return v, 0, false
	}
	c.bumpLocked(sh, e)
	v, seq = e.val, e.seq
	sh.mu.Unlock()
	return v, seq, true
}

// Get is Lookup plus hit/miss accounting.
func (c *Cache[K, S, V]) Get(k K) (V, uint64, bool) {
	v, seq, ok := c.Lookup(k)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, seq, ok
}

// RecordHit counts one lookup answered from the table on behalf of an
// adapter that used Lookup.
func (c *Cache[K, S, V]) RecordHit() { c.hits.Add(1) }

// RecordMiss counts one lookup the table could not answer on behalf of
// an adapter that used Lookup.
func (c *Cache[K, S, V]) RecordMiss() { c.misses.Add(1) }

// GetOrCompute returns the cached value for k, computing it at most
// once across concurrent callers on a miss (singleflight). scopes are
// the entry's eviction scopes. The computed value is stored under the
// drop-if-stale discipline (PutChecked): when an eviction of one of
// the scopes lands mid-computation the value is still returned to the
// waiting callers — a read overlapping a write may see either side of
// it — but the cache keeps only values computed from post-eviction
// state, and callers that joined a fenced-off flight recompute
// independently so a lookup starting after a write's eviction can
// never observe pre-write data.
func (c *Cache[K, S, V]) GetOrCompute(k K, scopes []S, compute func() V) V {
	if v, _, ok := c.Lookup(k); ok {
		c.hits.Add(1)
		return v
	}
	sh := c.shard(k)
	sh.mu.Lock()
	// Re-check under the lock: a flight may have landed since Lookup —
	// that is a cache-served answer, so it counts as a hit.
	if e, found := sh.entries[k]; found && !c.expiredAt(e, c.nowNano()) {
		if c.bounded {
			c.bumpLocked(sh, e)
		}
		v := e.val
		sh.mu.Unlock()
		c.hits.Add(1)
		return v
	}
	c.misses.Add(1)
	if f, inFlight := sh.flights[k]; inFlight {
		sh.mu.Unlock()
		<-f.done
		if f.stored {
			// Trust the flight only while its entry is still live: an
			// eviction after the store means the value may predate a
			// write this caller is entitled to observe (its lookup
			// started after the eviction completed), and expiry or LRU
			// removal equally invalidate it. The table, not the flight,
			// is the source of truth.
			if v, _, ok := c.Lookup(k); ok {
				return v
			}
		}
		// The flight raced an eviction and its value was refused (or
		// already removed); compute independently, exactly as every
		// caller did pre-core.
		v, _ := c.computeChecked(k, scopes, compute)
		return v
	}
	f := &flight[V]{done: make(chan struct{})}
	sh.flights[k] = f
	sh.mu.Unlock()

	var v V
	var stored bool
	defer func() {
		// On every exit — including a compute panic — unregister the
		// flight and release the waiters (stored stays false on panic,
		// so waiters recompute rather than trusting a phantom store).
		sh.mu.Lock()
		delete(sh.flights, k)
		sh.mu.Unlock()
		f.stored = stored
		close(f.done)
	}()
	v, stored = c.computeChecked(k, scopes, compute)
	return v
}

// computeChecked captures the fence, runs compute, and stores the
// result under the drop-if-stale discipline.
func (c *Cache[K, S, V]) computeChecked(k K, scopes []S, compute func() V) (V, bool) {
	startSeq := c.Seq()
	v := compute()
	return v, c.PutChecked(k, v, scopes, startSeq)
}

// ---------------------------------------------------------------------------
// stores

// Seq returns the current eviction sequence; capture it before
// computing a value destined for PutChecked.
func (c *Cache[K, S, V]) Seq() uint64 {
	c.fmu.RLock()
	defer c.fmu.RUnlock()
	return c.seq
}

// Generation returns the current invalidation generation.
func (c *Cache[K, S, V]) Generation() uint64 {
	c.fmu.RLock()
	defer c.fmu.RUnlock()
	return c.gen
}

// Fence captures the generation and eviction sequence in one shot —
// the pair a store-and-patch caller needs before computing.
func (c *Cache[K, S, V]) Fence() (gen, seq uint64) {
	c.fmu.RLock()
	defer c.fmu.RUnlock()
	return c.gen, c.seq
}

// PutChecked stores v under k unless doing so could resurrect stale
// state: the store is refused (returning false) when a full Invalidate
// happened after startSeq, when startSeq predates the pruned floor, or
// when any of the entry's scopes was evicted after startSeq. The fence
// read lock is held across the shard insert so an eviction cannot
// slip between the check and the store.
func (c *Cache[K, S, V]) PutChecked(k K, v V, scopes []S, startSeq uint64) bool {
	c.fmu.RLock()
	defer c.fmu.RUnlock()
	if c.flushSeq > startSeq || startSeq < c.floor {
		return false
	}
	for _, s := range scopes {
		if c.touched[s] > startSeq {
			return false
		}
	}
	c.storeEntry(k, v, scopes, startSeq)
	return true
}

// PutFenced stores v under k with the store-and-patch discipline: the
// store is refused (returning false) only when the cache was fully
// invalidated since gen was captured or seq predates the pruned floor.
// Scoped evictions since seq are reconciled lazily — the entry carries
// seq, and StaleSince names the scopes a reader must re-evaluate.
func (c *Cache[K, S, V]) PutFenced(k K, v V, scopes []S, gen, seq uint64) bool {
	c.fmu.RLock()
	defer c.fmu.RUnlock()
	if c.gen != gen || seq < c.floor {
		return false
	}
	c.storeEntry(k, v, scopes, seq)
	return true
}

// storeEntry inserts (or replaces) the entry. Caller holds c.fmu.RLock.
func (c *Cache[K, S, V]) storeEntry(k K, v V, scopes []S, seq uint64) {
	sh := c.shard(k)
	nowNano := c.now().UnixNano()
	var cost int64 = 1
	if c.costFn != nil {
		if cost = c.costFn(k, v); cost < 0 {
			cost = 0
		}
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if old, ok := sh.entries[k]; ok {
		// Replacing a live entry is not an eviction; replacing one whose
		// lease already lapsed records the expiration (the warm-up paths
		// refresh expired entries in place without a lookup).
		if c.expiredAt(old, nowNano) {
			c.expirations.Add(1)
		}
		c.removeLocked(sh, old)
	}
	e := sh.newEntryLocked()
	e.key, e.val, e.seq, e.storedAt, e.cost = k, v, seq, nowNano, cost
	if n := copy(e.scopesInline[:], scopes); n == len(scopes) {
		if n == 2 && e.scopesInline[0] == e.scopesInline[1] {
			// Deduplicate (a self-pair's two endpoints): the chains
			// require an entry to appear at most once per scope, and
			// eviction semantics are identical either way.
			n = 1
		}
		e.scopes = e.scopesInline[:n:n]
		e.chained = true
	} else {
		e.scopes = append([]S(nil), scopes...)
		e.chained = false
	}
	sh.entries[k] = e
	if e.chained {
		for i, s := range e.scopes {
			sh.linkScope(e, i, s)
		}
	} else {
		for _, s := range e.scopes {
			m := sh.byScope[s]
			if m == nil {
				m = make(map[K]struct{})
				sh.byScope[s] = m
			}
			m[k] = struct{}{}
		}
	}
	c.count.Add(1)
	sh.cost += cost
	c.totalCost.Add(cost)
	if c.bounded {
		e.prev = sh.head
		e.next = sh.head.next
		sh.head.next.prev = e
		sh.head.next = e
		for c.shardCap > 0 && len(sh.entries) > c.shardCap {
			c.removeLocked(sh, sh.tail.prev)
			c.evictions.Add(1)
		}
		// The cost bound never evicts the last remaining entry: a
		// single entry pricier than the whole budget is admitted alone
		// (evicting it would just thrash the shard empty).
		for c.shardCost > 0 && sh.cost > c.shardCost && len(sh.entries) > 1 {
			c.removeLocked(sh, sh.tail.prev)
			c.evictions.Add(1)
		}
	}
}

// bumpLocked moves e to the LRU front. Caller holds sh.mu and
// c.shardCap > 0.
func (c *Cache[K, S, V]) bumpLocked(sh *shard[K, S, V], e *entry[K, S, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev = sh.head
	e.next = sh.head.next
	sh.head.next.prev = e
	sh.head.next = e
}

// removeLocked deletes e from the shard's table, scope index, and LRU
// list, decrements the entry count, and returns the zeroed entry to
// the shard's free list. Caller holds sh.mu and must not touch e
// afterwards.
func (c *Cache[K, S, V]) removeLocked(sh *shard[K, S, V], e *entry[K, S, V]) {
	delete(sh.entries, e.key)
	if e.chained {
		for i, s := range e.scopes {
			sh.unlinkScope(e, i, s)
		}
	} else {
		for _, s := range e.scopes {
			if m := sh.byScope[s]; m != nil {
				delete(m, e.key)
				if len(m) == 0 {
					delete(sh.byScope, s)
				}
			}
		}
	}
	if e.prev != nil {
		e.prev.next = e.next
		e.next.prev = e.prev
	}
	c.count.Add(-1)
	sh.cost -= e.cost
	c.totalCost.Add(-e.cost)
	// Zero the slot (dropping key/value/scope references) and chain it
	// for reuse by the next store.
	var zk K
	var zv V
	var zs S
	e.key, e.val, e.seq, e.storedAt, e.cost = zk, zv, 0, 0, 0
	e.scopes = nil
	e.scopesInline[0], e.scopesInline[1] = zs, zs
	e.chained = false
	e.links[0] = scopeLink[K, S, V]{}
	e.links[1] = scopeLink[K, S, V]{}
	e.prev = nil
	e.next = sh.free
	sh.free = e
}

// ---------------------------------------------------------------------------
// eviction

// EvictScopes removes every entry indexed under one of the scopes,
// records the scopes as touched at the bumped eviction sequence (so
// in-flight computations are fenced or patched), and returns the
// number of entries removed. Every pruneEvery evictions the touched
// map is pruned (see the package comment's growth bounds).
func (c *Cache[K, S, V]) EvictScopes(scopes []S) int {
	if len(scopes) == 0 {
		return 0
	}
	c.fmu.Lock()
	c.seq++
	seq := c.seq
	for _, s := range scopes {
		c.touched[s] = seq
	}
	prune := seq%pruneEvery == 0
	c.fmu.Unlock()

	// One pass over the shards (not scopes × shards lock round-trips):
	// each shard is locked once and purged of every scope's entries.
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, s := range scopes {
			// Chained (≤2-scope) entries: walk the intrusive chain,
			// capturing next before removal (removeLocked unlinks and
			// recycles the entry).
			for e := sh.byChain[s]; e != nil; {
				next := e.links[e.slot(s)].next
				c.removeLocked(sh, e)
				n++
				e = next
			}
			keys := sh.byScope[s]
			if len(keys) == 0 {
				continue
			}
			// Collect before removing: removeLocked mutates the scope
			// index being ranged.
			doomed := make([]*entry[K, S, V], 0, len(keys))
			for k := range keys {
				if e, ok := sh.entries[k]; ok {
					doomed = append(doomed, e)
				}
			}
			for _, e := range doomed {
				c.removeLocked(sh, e)
				n++
			}
		}
		sh.mu.Unlock()
	}
	c.evictions.Add(uint64(n))
	if prune {
		c.pruneTouched()
	}
	return n
}

// pruneTouched raises the floor to the oldest sequence any live entry
// was stored at and drops touch records no entry can still be behind
// on, so the touched map doesn't grow with every scope ever evicted.
// Holding the fence write lock across the scan blocks puts (they need
// the fence read lock), so no entry fenced below the new floor can
// slip in mid-scan.
func (c *Cache[K, S, V]) pruneTouched() {
	c.fmu.Lock()
	defer c.fmu.Unlock()
	minSeq := c.seq
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for _, e := range sh.entries {
			if e.seq < minSeq {
				minSeq = e.seq
			}
		}
		sh.mu.RUnlock()
	}
	c.floor = minSeq
	for s, at := range c.touched {
		if at <= minSeq {
			delete(c.touched, s)
		}
	}
}

// StaleSince returns the scopes evicted after entrySeq — the ones a
// store-and-patch reader must re-evaluate before serving an entry
// stored at entrySeq. Order is unspecified.
func (c *Cache[K, S, V]) StaleSince(entrySeq uint64) []S {
	c.fmu.RLock()
	defer c.fmu.RUnlock()
	if c.seq <= entrySeq {
		return nil
	}
	var stale []S
	for s, at := range c.touched {
		if at > entrySeq {
			stale = append(stale, s)
		}
	}
	return stale
}

// Invalidate clears the cache and bumps the generation, fencing off
// every in-flight computation that captured its fence before the call.
func (c *Cache[K, S, V]) Invalidate() {
	c.fmu.Lock()
	c.gen++
	c.seq++
	c.flushSeq = c.seq
	c.touched = make(map[S]uint64)
	c.fmu.Unlock()
	removed := 0
	var removedCost int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		removed += len(sh.entries)
		removedCost += sh.cost
		sh.cost = 0
		sh.entries = make(map[K]*entry[K, S, V])
		sh.byScope = make(map[S]map[K]struct{})
		sh.byChain = make(map[S]*entry[K, S, V])
		// The dropped entries are garbage wholesale, so the free list
		// and current slab chunk are reset with them — recycled slots
		// must never alias a discarded-but-reachable entry.
		sh.free = nil
		sh.slab = nil
		sh.slabUsed = 0
		if c.bounded {
			sh.head.next = sh.tail
			sh.tail.prev = sh.head
		}
		sh.mu.Unlock()
	}
	c.count.Add(int64(-removed))
	c.totalCost.Add(-removedCost)
	c.evictions.Add(uint64(removed))
}

// ---------------------------------------------------------------------------
// expiry sweep

func (c *Cache[K, S, V]) janitor(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.janitorStop:
			return
		case <-t.C:
			c.Sweep()
		}
	}
}

// Sweep reaps every expired entry now — the janitor's periodic pass,
// exported so tests with an injected clock can trigger it
// deterministically.
func (c *Cache[K, S, V]) Sweep() {
	if c.ttlNanos <= 0 {
		return
	}
	now := c.now().UnixNano()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		var doomed []*entry[K, S, V]
		for _, e := range sh.entries {
			if c.expiredAt(e, now) {
				doomed = append(doomed, e)
			}
		}
		for _, e := range doomed {
			c.removeLocked(sh, e)
			c.expirations.Add(1)
		}
		sh.mu.Unlock()
	}
}

// ---------------------------------------------------------------------------
// introspection

// Len returns the number of stored entries.
func (c *Cache[K, S, V]) Len() int { return int(c.count.Load()) }

// Stats returns the current counters.
func (c *Cache[K, S, V]) Stats() Stats {
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions.Load(),
		Expirations: c.expirations.Load(),
		Entries:     c.Len(),
		Cost:        c.totalCost.Load(),
	}
}

// AgeHistogram buckets every STORED entry by age at the given
// ascending upper bounds: counts[i] holds the entries no older than
// bounds[i] (and older than bounds[i-1]), and the final element — the
// histogram is always len(bounds)+1 long — holds the entries older
// than every bound. Expired-but-unreaped entries are included at
// their true age, so the histogram totals the same stored count
// Stats().Entries reports for the same instant; the two are separate
// snapshots (shards are locked one at a time), so under concurrent
// writes or sweeps they may differ by the traffic in between — skew,
// not leakage. The feed for
// TTL tuning from production traffic: mass in the overflow bucket
// under a generous TTL means the lease could shrink without costing
// hits.
func (c *Cache[K, S, V]) AgeHistogram(bounds []time.Duration) []int {
	counts := make([]int, len(bounds)+1)
	now := c.now().UnixNano()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for _, e := range sh.entries {
			age := now - e.storedAt
			idx := len(bounds)
			for b, bound := range bounds {
				if age <= int64(bound) {
					idx = b
					break
				}
			}
			counts[idx]++
		}
		sh.mu.RUnlock()
	}
	return counts
}

// Range calls fn for every live (unexpired) entry until fn returns
// false. Iteration order is unspecified. Each shard is snapshotted
// under its read lock and emitted after release, so fn may call back
// into the cache; it does not touch counters or LRU recency.
func (c *Cache[K, S, V]) Range(fn func(K, V) bool) {
	now := c.nowNano()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		keys := make([]K, 0, len(sh.entries))
		vals := make([]V, 0, len(sh.entries))
		for k, e := range sh.entries {
			if c.expiredAt(e, now) {
				continue
			}
			keys = append(keys, k)
			vals = append(vals, e.val)
		}
		sh.mu.RUnlock()
		for j := range keys {
			if !fn(keys[j], vals[j]) {
				return
			}
		}
	}
}

// touchedLen reports the size of the touched map (growth-bound tests).
func (c *Cache[K, S, V]) touchedLen() int {
	c.fmu.RLock()
	defer c.fmu.RUnlock()
	return len(c.touched)
}

// FNV1a hashes the parts with 32-bit FNV-1a, folding a zero byte
// between them — the shard-placement hash shared by the domain
// adapters.
func FNV1a(parts ...string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i, p := range parts {
		if i > 0 {
			// fold a NUL separator: xor with 0 is the identity, so the
			// multiply alone advances the hash state past the boundary
			h *= prime32
		}
		for j := 0; j < len(p); j++ {
			h ^= uint32(p[j])
			h *= prime32
		}
	}
	return h
}
