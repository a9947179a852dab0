// Package ratings implements the sparse user–item rating matrix that
// backs the collaborative-filtering layer (§III.A of the paper). The
// store keeps one index, ratings by user (I(u)). Reads along the item
// axis — the raters of an item (U(i)), which peer discovery walks to
// build a member's Pearson row — go through the immutable Snapshot and
// its item-major Columns, which are patched after writes instead of
// mirrored under a second lock.
//
// The store is safe for concurrent use and internally sharded: users
// are spread over a power-of-two number of shards by an FNV-1a hash of
// the user ID, each shard with its own lock and per-user mean cache, so
// concurrent writers to different users do not serialize on one global
// mutex, and a write takes exactly one lock. All mutating operations
// validate rating bounds; reads return defensive copies or invoke
// visitor callbacks under the owning shard's read lock. Writes report
// the touched user through the OnWrite observer, which the recommender
// facade uses to route scoped cache invalidation.
package ratings

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"fairhealth/internal/model"
)

// Common store errors.
var (
	// ErrEmptyID is returned when a user or item ID is the empty string.
	ErrEmptyID = errors.New("ratings: empty user or item id")
	// ErrDuplicate is returned by AddNew when the (user,item) pair is
	// already rated.
	ErrDuplicate = errors.New("ratings: rating already exists")
	// ErrNotFound is returned by Remove when the rating does not exist.
	ErrNotFound = errors.New("ratings: rating not found")
)

// DefaultShards is the shard count used by New. Sixteen shards keep
// lock contention negligible up to a few dozen concurrent writers while
// costing nothing on reads.
const DefaultShards = 16

// userShard holds the by-user index for the users hashing to it, plus
// their cached means. Every access goes through mu.
type userShard struct {
	mu     sync.RWMutex
	byUser map[model.UserID]map[model.ItemID]model.Rating

	// means caches μ_u; meanDirty marks users whose mean is stale.
	means     map[model.UserID]float64
	meanDirty map[model.UserID]bool
}

// Store is a thread-safe, sharded sparse rating matrix.
//
// Lock discipline: a write takes only its user shard's lock, and
// multi-shard readers acquire user shards in ascending index order, so
// the lock graph is acyclic.
//
// The zero value is not ready for use; call New or NewSharded.
type Store struct {
	users []userShard
	mask  uint32
	count atomic.Int64

	// onWrite, when set, is called with the touched user after every
	// successful mutation (outside shard locks). See OnWrite.
	onWrite func(model.UserID)

	// writeVer counts successful mutations; Snapshot uses it to decide
	// whether the cached flat view in snap is still current. It is
	// bumped on the same reportWrite path that feeds the OnWrite
	// observer chain, so the snapshot is re-dirtied exactly when the
	// downstream caches are.
	writeVer atomic.Uint64
	snap     atomic.Pointer[Snapshot]

	// Dirty-user tracking for incremental snapshot rebuilds. Until the
	// first Snapshot call snapTracking is false and writes stay on the
	// lock-free fast path; afterwards each write records its user under
	// snapMu in the same critical section as the version bump, so a
	// builder can never observe the bump without the marker (or vice
	// versa). snapDirty holds exactly the users written since the last
	// successfully cached snapshot; the builder consumes only the
	// markers it actually re-read, so a marker added mid-build survives
	// for the next one.
	snapMu       sync.Mutex
	snapDirty    map[model.UserID]struct{}
	snapTracking atomic.Bool

	// meanComputes counts mean recomputations (test instrumentation for
	// the MeanRating double-checked lock).
	meanComputes atomic.Int64
}

// New returns an empty store with DefaultShards shards.
func New() *Store { return NewSharded(DefaultShards) }

// NewSharded returns an empty store with the given shard count, rounded
// up to the next power of two (minimum 1). NewSharded(1) degrades to a
// single-lock store — the baseline of the write-throughput benchmarks.
func NewSharded(shards int) *Store {
	n := 1
	for n < shards {
		n <<= 1
	}
	s := &Store{
		users: make([]userShard, n),
		mask:  uint32(n - 1),
	}
	for i := range s.users {
		s.users[i].byUser = make(map[model.UserID]map[model.ItemID]model.Rating)
		s.users[i].means = make(map[model.UserID]float64)
		s.users[i].meanDirty = make(map[model.UserID]bool)
	}
	return s
}

// ShardCount returns the number of user shards.
func (s *Store) ShardCount() int { return len(s.users) }

// OnWrite registers fn to be called with the user each successful
// mutation touched — Add, AddNew and Remove all touch exactly the
// written user's derived state (mean, similarity row, peer sets). The
// callback runs after the write is visible and outside all shard locks,
// so it may read back into the store. Register before sharing the store
// across goroutines; only one observer is kept.
func (s *Store) OnWrite(fn func(model.UserID)) { s.onWrite = fn }

// fnv32a is the 32-bit FNV-1a hash used to place users on shards.
func fnv32a(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

func (s *Store) userShard(u model.UserID) *userShard {
	return &s.users[fnv32a(string(u))&s.mask]
}

func (s *Store) reportWrite(u model.UserID) {
	// Bump before notifying: by the time an observer reacts (and possibly
	// rebuilds derived state through Snapshot) the cached flat view is
	// already marked stale. Once snapshot tracking is on, the dirty
	// marker and the bump form one atomic step under snapMu (see the
	// field comment); before that, writes skip the lock entirely.
	if s.snapTracking.Load() {
		s.snapMu.Lock()
		if s.snapDirty != nil {
			s.snapDirty[u] = struct{}{}
		}
		s.writeVer.Add(1)
		s.snapMu.Unlock()
	} else {
		s.writeVer.Add(1)
	}
	if s.onWrite != nil {
		s.onWrite(u)
	}
}

// FromTriples builds a store from a batch of triples; later duplicates
// overwrite earlier ones (upsert semantics).
func FromTriples(ts []model.Triple) (*Store, error) {
	s := New()
	for _, t := range ts {
		if err := s.Add(t.User, t.Item, t.Value); err != nil {
			return nil, fmt.Errorf("triple (%s,%s,%v): %w", t.User, t.Item, float64(t.Value), err)
		}
	}
	return s, nil
}

// Add inserts or overwrites the rating of item i by user u.
func (s *Store) Add(u model.UserID, i model.ItemID, r model.Rating) error {
	if u == "" || i == "" {
		return ErrEmptyID
	}
	if err := r.Validate(); err != nil {
		return err
	}
	us := s.userShard(u)
	us.mu.Lock()
	ui, ok := us.byUser[u]
	if !ok {
		ui = make(map[model.ItemID]model.Rating)
		us.byUser[u] = ui
	}
	_, existed := ui[i]
	ui[i] = r
	us.meanDirty[u] = true
	us.mu.Unlock()
	if !existed {
		s.count.Add(1)
	}
	s.reportWrite(u)
	return nil
}

// AddNew inserts a rating and fails with ErrDuplicate when the pair is
// already rated. Useful for ingest paths that must detect replays.
func (s *Store) AddNew(u model.UserID, i model.ItemID, r model.Rating) error {
	if u == "" || i == "" {
		return ErrEmptyID
	}
	if err := r.Validate(); err != nil {
		return err
	}
	us := s.userShard(u)
	us.mu.Lock()
	if _, ok := us.byUser[u][i]; ok {
		us.mu.Unlock()
		return fmt.Errorf("%w: user %s item %s", ErrDuplicate, u, i)
	}
	ui, ok := us.byUser[u]
	if !ok {
		ui = make(map[model.ItemID]model.Rating)
		us.byUser[u] = ui
	}
	ui[i] = r
	us.meanDirty[u] = true
	us.mu.Unlock()
	s.count.Add(1)
	s.reportWrite(u)
	return nil
}

// Remove deletes the rating of item i by user u.
func (s *Store) Remove(u model.UserID, i model.ItemID) error {
	us := s.userShard(u)
	us.mu.Lock()
	ui, ok := us.byUser[u]
	if !ok {
		us.mu.Unlock()
		return fmt.Errorf("%w: user %s item %s", ErrNotFound, u, i)
	}
	if _, ok := ui[i]; !ok {
		us.mu.Unlock()
		return fmt.Errorf("%w: user %s item %s", ErrNotFound, u, i)
	}
	delete(ui, i)
	if len(ui) == 0 {
		delete(us.byUser, u)
	}
	us.meanDirty[u] = true
	us.mu.Unlock()
	s.count.Add(-1)
	s.reportWrite(u)
	return nil
}

// Rating returns the rating user u gave item i, if any.
func (s *Store) Rating(u model.UserID, i model.ItemID) (model.Rating, bool) {
	us := s.userShard(u)
	us.mu.RLock()
	defer us.mu.RUnlock()
	r, ok := us.byUser[u][i]
	return r, ok
}

// HasRated reports whether u has rated i.
func (s *Store) HasRated(u model.UserID, i model.ItemID) bool {
	_, ok := s.Rating(u, i)
	return ok
}

// Len returns the number of stored ratings.
func (s *Store) Len() int { return int(s.count.Load()) }

// NumUsers returns the number of distinct users with ≥1 rating.
func (s *Store) NumUsers() int {
	n := 0
	for k := range s.users {
		sh := &s.users[k]
		sh.mu.RLock()
		n += len(sh.byUser)
		sh.mu.RUnlock()
	}
	return n
}

// NumItems returns the number of distinct items with ≥1 rating.
func (s *Store) NumItems() int {
	n, _ := s.Snapshot().Columns().rated()
	return n
}

// Users returns all user IDs in ascending order.
func (s *Store) Users() []model.UserID {
	var out []model.UserID
	for k := range s.users {
		sh := &s.users[k]
		sh.mu.RLock()
		for u := range sh.byUser {
			out = append(out, u)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Items returns all item IDs with ≥1 rating in ascending order. The
// snapshot's catalogue may still list items nobody rates any more, so
// only the positions with a non-empty column count.
func (s *Store) Items() []model.ItemID {
	sn := s.Snapshot()
	var out []model.ItemID
	for k, col := range sn.Columns().cols {
		if len(col) > 0 {
			out = append(out, sn.items[k])
		}
	}
	return out
}

// ItemsRatedBy returns I(u): the items u has rated, ascending.
func (s *Store) ItemsRatedBy(u model.UserID) []model.ItemID {
	us := s.userShard(u)
	us.mu.RLock()
	ui := us.byUser[u]
	out := make([]model.ItemID, 0, len(ui))
	for i := range ui {
		out = append(out, i)
	}
	us.mu.RUnlock()
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// UsersWhoRated returns U(i): the users who rated i, ascending (a
// column lists its raters by user position, and positions ascend with
// user IDs).
func (s *Store) UsersWhoRated(i model.ItemID) []model.UserID {
	sn := s.Snapshot()
	k := sort.Search(len(sn.items), func(j int) bool { return sn.items[j] >= i })
	if k == len(sn.items) || sn.items[k] != i {
		return []model.UserID{}
	}
	col := sn.Columns().Column(uint32(k))
	out := make([]model.UserID, len(col))
	for j, c := range col {
		out[j] = sn.users[c.User]
	}
	return out
}

// UserRatings returns a copy of u's rating vector.
func (s *Store) UserRatings(u model.UserID) map[model.ItemID]model.Rating {
	us := s.userShard(u)
	us.mu.RLock()
	defer us.mu.RUnlock()
	ui := us.byUser[u]
	out := make(map[model.ItemID]model.Rating, len(ui))
	for i, r := range ui {
		out[i] = r
	}
	return out
}

// NumRatedBy returns |I(u)| without copying.
func (s *Store) NumRatedBy(u model.UserID) int {
	us := s.userShard(u)
	us.mu.RLock()
	defer us.mu.RUnlock()
	return len(us.byUser[u])
}

// MeanRating returns μ_u, the mean of u's ratings (Eq. 2 uses it for
// mean-centering). ok is false when u has no ratings. Means are cached
// per shard and invalidated on writes; the write-lock path rechecks the
// dirty flag so racing callers recompute at most once per invalidation.
func (s *Store) MeanRating(u model.UserID) (float64, bool) {
	us := s.userShard(u)
	us.mu.RLock()
	if !us.meanDirty[u] {
		if m, ok := us.means[u]; ok {
			us.mu.RUnlock()
			return m, true
		}
	}
	us.mu.RUnlock()

	us.mu.Lock()
	defer us.mu.Unlock()
	// Recheck under the write lock: a racing caller may have recomputed
	// the mean between our RUnlock and Lock.
	if !us.meanDirty[u] {
		if m, ok := us.means[u]; ok {
			return m, true
		}
	}
	ui, ok := us.byUser[u]
	if !ok || len(ui) == 0 {
		delete(us.means, u)
		delete(us.meanDirty, u)
		return 0, false
	}
	s.meanComputes.Add(1)
	// Sum in ascending item order, not map order: with fractional
	// ratings the accumulation order changes the result by ULPs, and a
	// per-process mean would leak run-to-run nondeterminism into every
	// similarity and relevance score downstream.
	items := make([]model.ItemID, 0, len(ui))
	for i := range ui {
		items = append(items, i)
	}
	sort.Slice(items, func(a, b int) bool { return items[a] < items[b] })
	var sum float64
	for _, i := range items {
		sum += float64(ui[i])
	}
	m := sum / float64(len(ui))
	us.means[u] = m
	us.meanDirty[u] = false
	return m, true
}

// CoRated returns the items rated by both a and b (the intersection
// I(a) ∩ I(b) over which Pearson correlation is computed), ascending.
func (s *Store) CoRated(a, b model.UserID) []model.ItemID {
	sa := fnv32a(string(a)) & s.mask
	sb := fnv32a(string(b)) & s.mask
	// Lock both user shards (ascending index, once if shared) so the
	// intersection sees a consistent view of both vectors.
	lo, hi := sa, sb
	if lo > hi {
		lo, hi = hi, lo
	}
	s.users[lo].mu.RLock()
	if hi != lo {
		s.users[hi].mu.RLock()
	}
	ra := s.users[sa].byUser[a]
	rb := s.users[sb].byUser[b]
	if len(rb) < len(ra) {
		ra, rb = rb, ra
	}
	out := make([]model.ItemID, 0, len(ra))
	for i := range ra {
		if _, ok := rb[i]; ok {
			out = append(out, i)
		}
	}
	if hi != lo {
		s.users[hi].mu.RUnlock()
	}
	s.users[lo].mu.RUnlock()
	sort.Slice(out, func(x, y int) bool { return out[x] < out[y] })
	return out
}

// Triples snapshots the whole matrix as (user,item,rating) triples in
// deterministic (user, item) order — the input format of the MapReduce
// pipeline (§IV). Each user's row is copied under its shard lock, so
// every row is internally consistent; rows of different users may
// straddle a concurrent write.
func (s *Store) Triples() []model.Triple {
	rows := make(map[model.UserID][]model.Triple)
	var users []model.UserID
	for k := range s.users {
		sh := &s.users[k]
		sh.mu.RLock()
		for u, ui := range sh.byUser {
			row := make([]model.Triple, 0, len(ui))
			for i, r := range ui {
				row = append(row, model.Triple{User: u, Item: i, Value: r})
			}
			rows[u] = row
			users = append(users, u)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(users, func(a, b int) bool { return users[a] < users[b] })
	out := make([]model.Triple, 0, s.count.Load())
	for _, u := range users {
		row := rows[u]
		sort.Slice(row, func(a, b int) bool { return row[a].Item < row[b].Item })
		out = append(out, row...)
	}
	return out
}

// VisitUserRatings calls fn for every (item, rating) of u under the
// shard read lock, in unspecified order. fn must not call back into the
// store. Returning false stops the visit.
func (s *Store) VisitUserRatings(u model.UserID, fn func(model.ItemID, model.Rating) bool) {
	us := s.userShard(u)
	us.mu.RLock()
	defer us.mu.RUnlock()
	for i, r := range us.byUser[u] {
		if !fn(i, r) {
			return
		}
	}
}

// Clone returns a deep copy of the store.
func (s *Store) Clone() *Store {
	out := New()
	for _, t := range s.Triples() {
		// Triples come from a valid store; Add cannot fail.
		if err := out.Add(t.User, t.Item, t.Value); err != nil {
			panic("ratings: clone of valid store failed: " + err.Error())
		}
	}
	return out
}

// Sparsity returns 1 - |ratings| / (|users|·|items|), the usual
// sparsity measure of the matrix; 0 when the store is empty. All three
// counts come from one snapshot, so they describe one matrix even
// under concurrent writes.
func (s *Store) Sparsity() float64 {
	sn := s.Snapshot()
	items, ratings := sn.Columns().rated()
	den := sn.NumUsers() * items
	if den == 0 {
		return 0
	}
	return 1 - float64(ratings)/float64(den)
}

// WriteCSV emits the matrix as "user,item,rating" rows in the
// deterministic Triples order.
func (s *Store) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	for _, t := range s.Triples() {
		rec := []string{string(t.User), string(t.Item), strconv.FormatFloat(float64(t.Value), 'g', -1, 64)}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("ratings: write csv: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("ratings: flush csv: %w", err)
	}
	return nil
}

// ReadCSV parses "user,item,rating" rows into a new store. Blank lines
// are skipped; malformed rows abort with a line-numbered error.
func ReadCSV(r io.Reader) (*Store, error) {
	s := New()
	cr := csv.NewReader(bufio.NewReader(r))
	cr.FieldsPerRecord = 3
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return s, nil
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("ratings: csv line %d: %w", line, err)
		}
		v, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("ratings: csv line %d: bad rating %q: %w", line, rec[2], err)
		}
		if err := s.Add(model.UserID(rec[0]), model.ItemID(rec[1]), model.Rating(v)); err != nil {
			return nil, fmt.Errorf("ratings: csv line %d: %w", line, err)
		}
	}
}
