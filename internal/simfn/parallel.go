// Parallel pairwise precompute. Peer discovery (Def. 1) evaluates simU
// over user pairs, and a group request triggers one full row of the
// similarity matrix per member — the scoring hot path of the system.
// The helpers here materialize those rows ahead of time: users are
// sharded across a bounded worker pool, each worker computes its rows
// into a private map, and the shards are merged into the shared Cached
// memo table. Computation is embarrassingly parallel (every measure is
// a pure function of immutable snapshots), so the parallel build yields
// entries bit-identical to the serial one.

package simfn

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"fairhealth/internal/model"
	"fairhealth/internal/pool"
)

// Pair is one materialized entry of a Cached similarity matrix, in
// canonical orientation (A ≤ B).
type Pair struct {
	A, B model.UserID
	Sim  float64
	Ok   bool
}

// Entries snapshots the cached matrix as canonical pairs sorted by
// (A, B) — the deterministic comparison format used by the
// parallel-vs-serial equivalence tests. Expired entries are excluded.
func (c *Cached) Entries() []Pair {
	out := make([]Pair, 0, c.table.Len())
	c.table.Range(func(k pairKey, e cacheEntry) bool {
		out = append(out, Pair{A: k.a, B: k.b, Sim: e.sim, Ok: e.ok})
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

// WarmAll computes the similarity of every unordered pair of users in
// parallel and merges the results into the cache. workers ≤ 0 uses
// GOMAXPROCS. It returns the number of entries added; on context
// cancellation it stops early, keeps the (valid) partial cache, and
// returns ctx.Err().
//
// Rows are sharded across a worker pool in triangular mode: rows[i]
// pairs with rows[j], j > i — the full matrix with no duplicate work.
func (c *Cached) WarmAll(ctx context.Context, rows []model.UserID, workers int) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(rows) == 0 {
		return 0, ctx.Err()
	}

	// Capture the eviction seq, then snapshot the already-cached keys so
	// a re-warm after partial use only pays for the missing entries
	// (expired entries are absent from the snapshot, so a warm over a
	// TTL'd cache refreshes them). Entries computed by the workers merge
	// only if neither endpoint was evicted after the captured seq, so a
	// concurrent write cannot smuggle a pre-write value into the warmed
	// cache; capturing the seq before the snapshot can only make the
	// fence more conservative, never less.
	startSeq := c.table.Seq()
	existing := c.table.Keys()
	if len(existing) == 0 {
		// Cold warm: Keys returned an unsized empty map, but the dedup
		// set will hold every visited pair — pre-size it so its growth
		// doesn't dominate the warm's allocation profile.
		existing = make(map[pairKey]struct{}, len(rows)*(len(rows)-1)/2)
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(rows) {
		workers = len(rows)
	}
	if workers == 1 {
		// Single-worker warm: no pool dispatch and no staging maps —
		// entries go straight into the table through the same seq fence,
		// and `existing` doubles as the intra-run dedup set. A serial
		// warm observes finished entries only, trivially.
		added := 0
		for r := range rows {
			if ctx.Err() != nil {
				break
			}
			a := rows[r]
			for _, b := range rows[r+1:] {
				if a == b {
					continue
				}
				k := canonical(a, b)
				if _, done := existing[k]; done {
					continue
				}
				existing[k] = struct{}{}
				sim, ok := c.inner.Similarity(a, b)
				if c.table.PutChecked(k, cacheEntry{sim, ok}, k.scopes(), startSeq) {
					added++
				}
			}
		}
		return added, ctx.Err()
	}

	// Row-at-a-time work stealing (triangular rows have uneven pair
	// counts): each row is computed into a private map — pooled across
	// rows to keep the warm loop allocation-light — and merged under the
	// cache lock once complete, so concurrent readers only ever observe
	// finished entries.
	var added atomic.Int64
	pool.Each(len(rows), workers, func(r int) {
		if ctx.Err() != nil {
			return
		}
		a := rows[r]
		local := warmScratch.Get().(map[pairKey]cacheEntry)
		for _, b := range rows[r+1:] {
			if a == b {
				continue
			}
			k := canonical(a, b)
			if _, done := existing[k]; done {
				continue
			}
			if _, done := local[k]; done {
				continue
			}
			sim, ok := c.inner.Similarity(a, b)
			local[k] = cacheEntry{sim, ok}
		}
		merged := 0
		for k, e := range local {
			// PutChecked drops entries whose endpoints were evicted after
			// the captured seq — the same fence the old merge applied.
			if c.table.PutChecked(k, e, k.scopes(), startSeq) {
				merged++
			}
			delete(local, k)
		}
		warmScratch.Put(local)
		if merged != 0 {
			added.Add(int64(merged))
		}
	})
	return int(added.Load()), ctx.Err()
}

// warmScratch pools the per-row staging maps of the multi-worker warm
// path. Maps are returned empty (the merge loop deletes as it drains).
var warmScratch = sync.Pool{
	New: func() any { return make(map[pairKey]cacheEntry, 64) },
}

// Precompute builds a Cached over base with the full pairwise matrix of
// users already materialized in parallel.
func Precompute(ctx context.Context, base UserSimilarity, users []model.UserID, workers int) (*Cached, error) {
	c := NewCached(base)
	_, err := c.WarmAll(ctx, users, workers)
	return c, err
}
