package ratings

import (
	"sort"
	"sync"
	"sync/atomic"

	"fairhealth/internal/model"
)

// Row is one user's rating vector in CSR form: Items ascending with
// Ratings parallel, plus the mean-centering term μ_u. Rows are
// immutable once published — callers must not modify the slices.
type Row struct {
	Items   []model.ItemID
	Ratings []model.Rating
	// Idx holds each item's position in the owning snapshot's Items()
	// catalogue, parallel to Items: Items()[Idx[j]] == Items[j]. The
	// catalogue is sorted, so Idx is ascending too.
	Idx []uint32
	// Mean is μ_u summed in ascending item order — bit-identical to
	// Store.MeanRating for the same vector.
	Mean float64
}

// Rating returns the rating for item i via binary search.
func (r Row) Rating(i model.ItemID) (model.Rating, bool) {
	k := sort.Search(len(r.Items), func(j int) bool { return r.Items[j] >= i })
	if k < len(r.Items) && r.Items[k] == i {
		return r.Ratings[k], true
	}
	return 0, false
}

// Len returns |I(u)| for the row.
func (r Row) Len() int { return len(r.Items) }

// OverlapAtLeast reports whether the merge-join intersection of the two
// rows has at least min items, early-exiting as soon as the bound is
// met or becomes unreachable. min <= 0 is trivially true.
func (r Row) OverlapAtLeast(other Row, min int) bool {
	if min <= 0 {
		return true
	}
	i, j, n := 0, 0, 0
	for i < len(r.Items) && j < len(other.Items) {
		// Not enough items left on either side to reach min.
		if rem := len(r.Items) - i; n+rem < min {
			return false
		}
		if rem := len(other.Items) - j; n+rem < min {
			return false
		}
		switch {
		case r.Items[i] < other.Items[j]:
			i++
		case r.Items[i] > other.Items[j]:
			j++
		default:
			n++
			if n >= min {
				return true
			}
			i++
			j++
		}
	}
	return false
}

// Snapshot is an immutable flat (CSR-style) view of the whole matrix:
// one Row per user, plus the ascending user list. It is built lazily by
// Store.Snapshot and shared by reference — nothing in it may be
// mutated. Each row is copied under its shard's read lock, so every row
// is internally consistent (items, ratings and mean all describe one
// moment of that user's vector); rows of different users may straddle a
// concurrent write, exactly like Store.Triples.
//
// The row table mirrors the store's user sharding (same hash, same
// mask): one map per store shard. That makes an incremental patch
// cheap — only the shards containing written users are recopied, the
// rest are shared by reference with the previous snapshot.
//
// The item catalogue gives every item a dense position for array
// addressing (Row.Idx). A patched snapshot keeps its predecessor's
// catalogue unless a written row names an item missing from it, so the
// catalogue may still list items nobody rates any more.
//
// The item-major column index (Columns) is built on first use and then
// carried forward: a patched snapshot copies only the written users'
// columns from its predecessor's index.
type Snapshot struct {
	version uint64
	mask    uint32
	shards  []map[model.UserID]Row
	users   []model.UserID // ascending; shared, read-only
	items   []model.ItemID // ascending catalogue; shared, read-only

	colsMu sync.Mutex // serializes the lazy build of cols
	cols   atomic.Pointer[Columns]
}

// Version is the store write-version the snapshot was requested at.
func (sn *Snapshot) Version() uint64 { return sn.version }

// NumUsers returns the number of users with ≥1 rating.
func (sn *Snapshot) NumUsers() int { return len(sn.users) }

// Users returns all user IDs ascending. The slice is shared — callers
// must not modify it.
func (sn *Snapshot) Users() []model.UserID { return sn.users }

// Items returns the item catalogue ascending: a superset of the items
// rated in this snapshot, addressed by Row.Idx. The slice is shared —
// callers must not modify it.
func (sn *Snapshot) Items() []model.ItemID { return sn.items }

// Row returns u's rating vector; ok is false when u has no ratings.
func (sn *Snapshot) Row(u model.UserID) (Row, bool) {
	r, ok := sn.shards[fnv32a(string(u))&sn.mask][u]
	return r, ok
}

// Snapshot returns a flat view of the matrix that is current as of the
// call: any write whose OnWrite notification has completed is visible.
// The view is cached and reused until the next write re-dirties it
// (via the same reportWrite path that drives the OnWrite observer
// chain), so steady-state reads cost two atomic loads. A re-dirtied
// view is patched, not rebuilt: the first Snapshot call turns on
// dirty-user tracking in reportWrite, and each later build recopies
// only the row-table shards holding written users, re-reads only those
// users' rows, and shares everything else with the previous snapshot
// (Rows are immutable) — so the cost of a write-then-read cycle is
// proportional to the touched shards, not to the matrix.
func (s *Store) Snapshot() *Snapshot {
	v := s.writeVer.Load()
	if sn := s.snap.Load(); sn != nil && sn.version == v {
		return sn
	}

	// Enable tracking (idempotent) and take the dirty set to patch
	// against the previous cached view. Reading prev under snapMu pairs
	// with the store below: markers are consumed only against the exact
	// snapshot they were read for.
	s.snapMu.Lock()
	if s.snapDirty == nil {
		s.snapDirty = make(map[model.UserID]struct{})
		s.snapTracking.Store(true)
	}
	prev := s.snap.Load()
	var dirty []model.UserID
	if prev != nil {
		dirty = make([]model.UserID, 0, len(s.snapDirty))
		for u := range s.snapDirty {
			dirty = append(dirty, u)
		}
	}
	s.snapMu.Unlock()

	var sn *Snapshot
	if prev != nil && len(dirty) > 0 {
		sn = s.patchSnapshot(prev, dirty, v)
	} else {
		// No previous view (or, defensively, a version drift with no
		// markers): full build is always correct.
		sn = s.buildSnapshot(v)
	}

	// Cache only when no write landed during the build. The built value
	// is returned either way — each row is coherent regardless — but a
	// snapshot that may already be stale must not shadow future writes.
	// Consuming exactly the markers read above (never clearing
	// wholesale) is what keeps a marker inserted mid-build alive for
	// the next patch; reportWrite's insert+bump is atomic under snapMu,
	// so writeVer == v here proves no unconsumed marker predates v.
	s.snapMu.Lock()
	if s.writeVer.Load() == v {
		s.snap.Store(sn)
		for _, u := range dirty {
			delete(s.snapDirty, u)
		}
	}
	s.snapMu.Unlock()
	return sn
}

// rowFromMap flattens one user's rating map into an immutable Row.
// Means are summed in ascending item order so they are bit-identical
// to Store.MeanRating (see the determinism note there).
func rowFromMap(ui map[model.ItemID]model.Rating) Row {
	items := make([]model.ItemID, 0, len(ui))
	for i := range ui {
		items = append(items, i)
	}
	sort.Slice(items, func(a, b int) bool { return items[a] < items[b] })
	vals := make([]model.Rating, len(items))
	var sum float64
	for j, i := range items {
		vals[j] = ui[i]
		sum += float64(ui[i])
	}
	return Row{Items: items, Ratings: vals, Mean: sum / float64(len(items))}
}

// buildRow re-reads one user's current row under its shard lock; ok is
// false when the user has no ratings (deleted or never seen).
func (s *Store) buildRow(u model.UserID) (Row, bool) {
	sh := s.userShard(u)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ui := sh.byUser[u]
	if len(ui) == 0 {
		return Row{}, false
	}
	return rowFromMap(ui), true
}

// indexRow maps sorted items to their catalogue positions by walking
// both ascending lists; ok is false when an item is missing from cat.
func indexRow(cat, items []model.ItemID) (idx []uint32, ok bool) {
	idx = make([]uint32, len(items))
	k := 0
	for j, i := range items {
		k += sort.Search(len(cat)-k, func(n int) bool { return cat[k+n] >= i })
		if k == len(cat) || cat[k] != i {
			return nil, false
		}
		idx[j] = uint32(k)
	}
	return idx, true
}

// reindex rebuilds the catalogue from the rows and re-indexes every row
// into fresh shard maps (the old maps may be shared with a published
// snapshot, whose rows are immutable).
func (sn *Snapshot) reindex() {
	seen := make(map[model.ItemID]struct{})
	for _, m := range sn.shards {
		for _, r := range m {
			for _, i := range r.Items {
				seen[i] = struct{}{}
			}
		}
	}
	sn.items = make([]model.ItemID, 0, len(seen))
	for i := range seen {
		sn.items = append(sn.items, i)
	}
	sort.Slice(sn.items, func(a, b int) bool { return sn.items[a] < sn.items[b] })
	for k, m := range sn.shards {
		fresh := make(map[model.UserID]Row, len(m))
		for u, r := range m {
			r.Idx, _ = indexRow(sn.items, r.Items)
			fresh[u] = r
		}
		sn.shards[k] = fresh
	}
}

// patchSnapshot builds the next snapshot from the previous one: shard
// maps without dirty users are shared by reference, the (few) shards
// holding dirty users are recopied, and only the dirty rows themselves
// are re-read from the store and indexed into the previous catalogue.
// The user list is shared too unless a dirty user appeared or vanished;
// the catalogue is rebuilt (and every row re-indexed) only when a dirty
// row names an item the previous catalogue lacks.
func (s *Store) patchSnapshot(prev *Snapshot, dirty []model.UserID, version uint64) *Snapshot {
	sn := &Snapshot{
		version: version,
		mask:    prev.mask,
		shards:  make([]map[model.UserID]Row, len(prev.shards)),
		users:   prev.users,
		items:   prev.items,
	}
	copy(sn.shards, prev.shards)
	copied := make([]bool, len(sn.shards))
	usersChanged, newItem := false, false
	for _, u := range dirty {
		k := fnv32a(string(u)) & sn.mask
		if !copied[k] {
			m := make(map[model.UserID]Row, len(prev.shards[k])+1)
			for uu, r := range prev.shards[k] {
				m[uu] = r
			}
			sn.shards[k] = m
			copied[k] = true
		}
		row, ok := s.buildRow(u)
		_, had := sn.shards[k][u]
		switch {
		case ok:
			if !had {
				usersChanged = true
			}
			var indexed bool
			if row.Idx, indexed = indexRow(sn.items, row.Items); !indexed {
				newItem = true
			}
			sn.shards[k][u] = row
		case had:
			usersChanged = true
			delete(sn.shards[k], u)
		}
	}
	if usersChanged {
		total := 0
		for _, m := range sn.shards {
			total += len(m)
		}
		users := make([]model.UserID, 0, total)
		for _, m := range sn.shards {
			for u := range m {
				users = append(users, u)
			}
		}
		sort.Slice(users, func(a, b int) bool { return users[a] < users[b] })
		sn.users = users
	}
	switch {
	case newItem:
		sn.reindex()
	case !usersChanged:
		// Same positions, same catalogue: patch the predecessor's index
		// if it has one. Otherwise Columns builds it lazily.
		if c := prev.cols.Load(); c != nil {
			sn.cols.Store(c.patched(prev, sn, dirty))
		}
	}
	return sn
}

// buildSnapshot copies every shard's rows into flat form and indexes
// them into a fresh catalogue — the cold path, used once per store
// (later builds patch; see Snapshot).
func (s *Store) buildSnapshot(version uint64) *Snapshot {
	sn := &Snapshot{
		version: version,
		mask:    s.mask,
		shards:  make([]map[model.UserID]Row, len(s.users)),
	}
	for k := range s.users {
		sh := &s.users[k]
		sh.mu.RLock()
		m := make(map[model.UserID]Row, len(sh.byUser))
		for u, ui := range sh.byUser {
			if len(ui) == 0 {
				continue
			}
			m[u] = rowFromMap(ui)
			sn.users = append(sn.users, u)
		}
		sh.mu.RUnlock()
		sn.shards[k] = m
	}
	sort.Slice(sn.users, func(a, b int) bool { return sn.users[a] < sn.users[b] })
	sn.reindex()
	return sn
}
