package partition

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"fairhealth"
	"fairhealth/internal/candidates"
	"fairhealth/internal/model"
	"fairhealth/internal/ratings"
	"fairhealth/internal/scoring"
	"fairhealth/internal/wal"
)

// Common errors.
var (
	// ErrNoLivePartitions reports a query or write arriving while every
	// partition is detached or killed.
	ErrNoLivePartitions = errors.New("partition: no live partitions")
	// ErrJournalGap reports a rejoin whose catch-up gap the journal no
	// longer retains and no log file exists to fall back to.
	ErrJournalGap = errors.New("partition: journal no longer retains the catch-up gap")
	// ErrNotDetached reports a lifecycle call against a partition in
	// the wrong state (rejoining a live partition, restarting one that
	// was never killed, ...).
	ErrNotDetached = errors.New("partition: partition is not in the required state")
)

// Options tunes the coordinator beyond the System Config it wraps.
type Options struct {
	// Partitions is the partition count; 0 falls back to
	// Config.Partitions. The resolved count must be ≥ 1.
	Partitions int
	// VirtualNodes is the per-partition virtual node count on the hash
	// ring (0 = DefaultVirtualNodes).
	VirtualNodes int
	// JournalRetain bounds the in-memory WAL tail shipped to rejoining
	// partitions (0 = unbounded). In-memory coordinators should leave
	// it unbounded: the journal is also their only bootstrap source
	// for Restart. Persistent coordinators can bound it — a gap falls
	// back to filtered replay of the log file.
	JournalRetain int
}

// node is one partition: a full System replica plus its replication
// and serving counters. live and sys are guarded by Coordinator.mu;
// the counters are atomic so the serve path never takes a write lock.
type node struct {
	sys        *fairhealth.System
	live       bool
	appliedSeq atomic.Uint64
	// assembles counts per-member relevance assemblies routed here —
	// the coordinator's fan-out units.
	assembles atomic.Uint64
	// routedQueries counts single-user reads routed here (personal
	// recommendations, peer and personalized-search lookups).
	routedQueries atomic.Uint64
	// ownedWrites counts WAL records whose subject user this partition
	// owned at apply time.
	ownedWrites atomic.Uint64
}

// Coordinator serves the full System contract over N in-process
// partitions. Writes are validated once, appended to the shared WAL,
// and replicated synchronously to every live partition; group queries
// fan each member's relevance assembly out to the member's owning
// partition and merge the candidate lists exactly as an unpartitioned
// System would, so answers are bit-identical. See the package comment
// for why state replicates while serving responsibility partitions.
type Coordinator struct {
	cfg  fairhealth.Config // effective (defaulted) config, Partitions = n
	ring *Ring

	journal *Journal
	walLog  *wal.Log // nil for in-memory coordinators
	walPath string
	lastSeq atomic.Uint64

	// writeMu serializes the write path (validate → append → journal →
	// replicate) and every lifecycle transition, so a catching-up
	// partition can never interleave with a commit.
	writeMu sync.Mutex

	mu    sync.RWMutex // guards nodes' live and sys fields
	nodes []*node

	pipe *fairhealth.Pipeline // group serving over ownerMembers
}

// New builds an in-memory partitioned deployment: opt.Partitions (or
// cfg.Partitions) replicas of a System built from cfg behind a
// consistent-hash coordinator.
func New(cfg fairhealth.Config, opt Options) (*Coordinator, error) {
	n := opt.Partitions
	if n == 0 {
		n = cfg.Partitions
	}
	if n < 1 {
		return nil, fmt.Errorf("%w: partitions %d must be ≥ 1", fairhealth.ErrBadConfig, n)
	}
	nodes := make([]*node, n)
	for i := range nodes {
		sys, err := fairhealth.New(cfg)
		if err != nil {
			for _, built := range nodes[:i] {
				built.sys.Close()
			}
			return nil, err
		}
		nodes[i] = &node{sys: sys, live: true}
	}
	eff := nodes[0].sys.Config()
	eff.Partitions = n
	c := &Coordinator{
		cfg:     eff,
		ring:    NewRing(n, opt.VirtualNodes),
		journal: NewJournal(opt.JournalRetain),
		nodes:   nodes,
	}
	c.pipe = fairhealth.NewPipeline(eff, ownerMembers{c}, 0)
	return c, nil
}

// NewPersistent builds a partitioned deployment whose state survives
// restarts: dir/events.wal is replayed into every partition on start
// (one pass over the log, fanned to all replicas) and every write is
// appended to it before the in-memory apply — the same log layout as
// an unpartitioned NewPersistent, so a deployment can move between
// -partitions settings across restarts.
func NewPersistent(cfg fairhealth.Config, opt Options, dir string) (*Coordinator, error) {
	c, err := New(cfg, opt)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		c.Close()
		return nil, fmt.Errorf("partition: create state dir: %w", err)
	}
	path := filepath.Join(dir, "events.wal")
	if _, statErr := os.Stat(path); statErr == nil {
		_, err := wal.ReplayFile(path, func(rec wal.Record) error {
			for _, nd := range c.nodes {
				if err := nd.sys.ApplyRecord(rec); err != nil {
					return err
				}
				nd.appliedSeq.Store(rec.Seq)
			}
			return nil
		})
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("partition: replay %s: %w", path, err)
		}
	}
	log, err := wal.Open(path)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.walLog = log
	c.walPath = path
	c.lastSeq.Store(log.Seq())
	// The journal never saw the restored records; rebase so a killed
	// partition's catch-up falls through to filtered log replay.
	c.journal.Rebase(log.Seq())
	for _, nd := range c.nodes {
		nd.appliedSeq.Store(log.Seq())
	}
	return c, nil
}

// Config returns the effective configuration, with Partitions set to
// the resolved partition count.
func (c *Coordinator) Config() fairhealth.Config { return c.cfg }

// PartitionCount returns the number of partitions (live or not).
func (c *Coordinator) PartitionCount() int { return len(c.nodes) }

// Owner returns the ring's static placement for user — which partition
// computes and caches the user's relevance work when every partition
// is live. Load tooling labels per-partition latency classes with it.
func (c *Coordinator) Owner(user string) int { return c.ring.Owner(user) }

// Close closes every partition and releases the shared log.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var firstErr error
	for _, nd := range c.nodes {
		if nd.sys == nil {
			continue
		}
		if err := nd.sys.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		nd.live = false
	}
	if c.walLog != nil {
		if err := c.walLog.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// liveOwner resolves the live partition owning user and snapshots its
// System, so callers never touch node state outside the lock.
func (c *Coordinator) liveOwner(user string) (*node, *fairhealth.System, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	p, ok := c.ring.OwnerLive(user, func(i int) bool { return c.nodes[i].live })
	if !ok {
		return nil, nil, ErrNoLivePartitions
	}
	return c.nodes[p], c.nodes[p].sys, nil
}

// anyLive snapshots the first live partition's System — the target for
// corpus-global reads, which every replica answers identically.
func (c *Coordinator) anyLive() (*fairhealth.System, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, nd := range c.nodes {
		if nd.live {
			return nd.sys, nil
		}
	}
	return nil, ErrNoLivePartitions
}

// ---------------------------------------------------------------------------
// write path: validate once → append to the shared WAL → journal →
// replicate synchronously to every live partition

// commit appends rec to the shared log (assigning its sequence
// number), journals it for rejoin catch-up, and applies it to every
// live partition. ownerKey attributes the write to the owning
// partition's counter.
func (c *Coordinator) commit(rec wal.Record, ownerKey string) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.walLog != nil {
		seq, err := c.walLog.Append(rec)
		if err != nil {
			return err
		}
		rec.Seq = seq
	} else {
		rec.Seq = c.lastSeq.Load() + 1
	}
	c.lastSeq.Store(rec.Seq)
	c.journal.Append(rec)

	c.mu.RLock()
	defer c.mu.RUnlock()
	applied := false
	for _, nd := range c.nodes {
		if !nd.live {
			continue
		}
		if err := nd.sys.ApplyRecord(rec); err != nil {
			// Validation ran before the append, so replicas can only
			// refuse a record they have diverged on — surface loudly.
			return fmt.Errorf("partition: apply seq %d: %w", rec.Seq, err)
		}
		nd.appliedSeq.Store(rec.Seq)
		applied = true
	}
	if !applied {
		return ErrNoLivePartitions
	}
	if p, ok := c.ring.OwnerLive(ownerKey, func(i int) bool { return c.nodes[i].live }); ok {
		c.nodes[p].ownedWrites.Add(1)
	}
	return nil
}

// AddRating records a rating, replicated to every live partition.
// Validation mirrors System.AddRating exactly, before the WAL append.
func (c *Coordinator) AddRating(user, item string, value float64) error {
	u, i, v := model.UserID(user), model.ItemID(item), model.Rating(value)
	if u == "" || i == "" {
		return ratings.ErrEmptyID
	}
	if err := v.Validate(); err != nil {
		return err
	}
	return c.commit(wal.Record{Op: wal.OpRate, User: u, Item: i, Value: v}, user)
}

// RemoveRating deletes a rating, replicated to every live partition.
func (c *Coordinator) RemoveRating(user, item string) error {
	sys, err := c.anyLive()
	if err != nil {
		return err
	}
	if !sys.HasRating(user, item) {
		return fmt.Errorf("%w: %s/%s", ratings.ErrNotFound, user, item)
	}
	return c.commit(wal.Record{Op: wal.OpUnrate, User: model.UserID(user), Item: model.ItemID(item)}, user)
}

// AddPatient registers (or replaces) a patient profile on every live
// partition. The profile validates once, against the shared ontology,
// before the WAL append.
func (c *Coordinator) AddPatient(p fairhealth.Patient) error {
	sys, err := c.anyLive()
	if err != nil {
		return err
	}
	prof, err := sys.PatientProfile(p)
	if err != nil {
		return err
	}
	return c.commit(wal.Record{Op: wal.OpPatient, Patient: prof}, p.ID)
}

// AddDocument indexes a document on every live partition. Documents
// are not WAL-logged (matching the unpartitioned System), so the
// broadcast happens directly under the write lock.
func (c *Coordinator) AddDocument(id, title, body string) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.mu.RLock()
	defer c.mu.RUnlock()
	any := false
	for _, nd := range c.nodes {
		if !nd.live {
			continue
		}
		if err := nd.sys.AddDocument(id, title, body); err != nil {
			return err
		}
		any = true
	}
	if !any {
		return ErrNoLivePartitions
	}
	return nil
}

// ---------------------------------------------------------------------------
// reads: user-scoped calls route to the user's owner (whose caches
// hold that user's derived state); corpus-global calls answer from any
// live replica

// Patient returns the stored profile for id.
func (c *Coordinator) Patient(id string) (fairhealth.Patient, error) {
	_, sys, err := c.liveOwner(id)
	if err != nil {
		return fairhealth.Patient{}, err
	}
	return sys.Patient(id)
}

// Patients lists all registered patient IDs.
func (c *Coordinator) Patients() []string {
	sys, err := c.anyLive()
	if err != nil {
		return nil
	}
	return sys.Patients()
}

// Recommend returns the user's personal top-k, computed on the
// owning partition.
func (c *Coordinator) Recommend(user string, k int) ([]fairhealth.Recommendation, error) {
	nd, sys, err := c.liveOwner(user)
	if err != nil {
		return nil, err
	}
	nd.routedQueries.Add(1)
	return sys.Recommend(user, k)
}

// Peers returns the user's peer set, computed on the owning partition.
func (c *Coordinator) Peers(user string) ([]fairhealth.Peer, error) {
	nd, sys, err := c.liveOwner(user)
	if err != nil {
		return nil, err
	}
	nd.routedQueries.Add(1)
	return sys.Peers(user)
}

// SearchDocuments searches the shared document index.
func (c *Coordinator) SearchDocuments(query string, k int) []fairhealth.SearchResult {
	sys, err := c.anyLive()
	if err != nil {
		return nil
	}
	return sys.SearchDocuments(query, k)
}

// SearchPersonalized searches with the user's profile boost, on the
// owning partition.
func (c *Coordinator) SearchPersonalized(user, query string, k int, boost float64) ([]fairhealth.SearchResult, error) {
	nd, sys, err := c.liveOwner(user)
	if err != nil {
		return nil, err
	}
	nd.routedQueries.Add(1)
	return sys.SearchPersonalized(user, query, k, boost)
}

// ProfileCorrespondences explains the profile similarity of two
// patients.
func (c *Coordinator) ProfileCorrespondences(a, b string) ([]fairhealth.Correspondence, error) {
	sys, err := c.anyLive()
	if err != nil {
		return nil, err
	}
	return sys.ProfileCorrespondences(a, b)
}

// Stats summarizes system contents (identical on every replica).
func (c *Coordinator) Stats() fairhealth.Stats {
	sys, err := c.anyLive()
	if err != nil {
		return fairhealth.Stats{}
	}
	return sys.Stats()
}

// CacheStats sums the cache counters across live partitions — the
// deployment's total cache traffic. Age-histogram buckets share fixed
// bounds across systems, so they sum elementwise; each layer's
// TTLSeconds is taken from the first live partition (adaptation runs
// per partition, but every partition sees its own owned traffic, so
// the leases are representative, not aggregated).
func (c *Coordinator) CacheStats() fairhealth.CacheStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out fairhealth.CacheStats
	first := true
	for _, nd := range c.nodes {
		if !nd.live {
			continue
		}
		st := nd.sys.CacheStats()
		if first {
			out = st
			first = false
			continue
		}
		mergeCounters(&out.Similarity, st.Similarity)
		mergeCounters(&out.Peers, st.Peers)
		mergeCounters(&out.Groups, st.Groups)
	}
	return out
}

func mergeCounters(dst *fairhealth.CacheCounters, src fairhealth.CacheCounters) {
	dst.Hits += src.Hits
	dst.Misses += src.Misses
	dst.Evictions += src.Evictions
	dst.Expirations += src.Expirations
	dst.Entries += src.Entries
	dst.Cost += src.Cost
	if len(dst.Ages.Counts) == len(src.Ages.Counts) {
		for i := range dst.Ages.Counts {
			dst.Ages.Counts[i] += src.Ages.Counts[i]
		}
	}
}

// CandidateIndexStats reports the first live partition's candidate
// index (each partition maintains its own; they index identical
// ratings but rebuild on their own schedules).
func (c *Coordinator) CandidateIndexStats() (candidates.Stats, bool) {
	sys, err := c.anyLive()
	if err != nil {
		return candidates.Stats{}, false
	}
	return sys.CandidateIndexStats()
}

// Stats is one partition's row in the /v1/stats partitions section.
type Stats struct {
	// ID is the partition index on the ring.
	ID int `json:"id"`
	// Live reports whether the partition serves and replicates.
	Live bool `json:"live"`
	// OwnedUsers counts known users (raters or registered patients)
	// the ring places on this partition.
	OwnedUsers int `json:"owned_users"`
	// VirtualNodes is the partition's virtual node count on the ring.
	VirtualNodes int `json:"virtual_nodes"`
	// RingShare is the fraction of the hash space the partition owns —
	// its ring position summed into the expected user share.
	RingShare float64 `json:"ring_share"`
	// AppliedSeq is the last WAL sequence number applied here.
	AppliedSeq uint64 `json:"applied_seq"`
	// ReplayLag is how many records behind the shared log the
	// partition is (> 0 only while detached or catching up).
	ReplayLag uint64 `json:"replay_lag"`
	// Assembles counts per-member relevance assemblies fanned out to
	// this partition by group queries.
	Assembles uint64 `json:"fan_outs"`
	// RoutedQueries counts single-user reads routed here (personal
	// recommendations, peer and personalized-search lookups).
	RoutedQueries uint64 `json:"routed_queries"`
	// OwnedWrites counts WAL records whose subject user this partition
	// owned at commit time.
	OwnedWrites uint64 `json:"owned_writes"`
}

// PartitionStats reports one row per partition: ownership, replication
// lag, and fan-out counters — the /v1/stats partitions section.
func (c *Coordinator) PartitionStats() []Stats {
	last := c.lastSeq.Load()
	c.mu.RLock()
	defer c.mu.RUnlock()

	// Owned-user counts from any live replica's membership state.
	owned := make([]int, len(c.nodes))
	for _, nd := range c.nodes {
		if !nd.live {
			continue
		}
		seen := make(map[string]struct{})
		for _, u := range nd.sys.SortedUsers() {
			seen[u] = struct{}{}
		}
		for _, u := range nd.sys.Patients() {
			seen[u] = struct{}{}
		}
		for u := range seen {
			owned[c.ring.Owner(u)]++
		}
		break
	}

	out := make([]Stats, len(c.nodes))
	for i, nd := range c.nodes {
		applied := nd.appliedSeq.Load()
		lag := uint64(0)
		if last > applied {
			lag = last - applied
		}
		out[i] = Stats{
			ID:            i,
			Live:          nd.live,
			OwnedUsers:    owned[i],
			VirtualNodes:  c.ring.VirtualNodes(),
			RingShare:     c.ring.Share(i),
			AppliedSeq:    applied,
			ReplayLag:     lag,
			Assembles:     nd.assembles.Load(),
			RoutedQueries: nd.routedQueries.Load(),
			OwnedWrites:   nd.ownedWrites.Load(),
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// lifecycle: detach/rejoin for lagging partitions, kill/restart for
// full WAL-bootstrap rebuilds

// Detach takes partition i out of serving and replication. Queries
// and writes route around it; its replay lag grows until Rejoin.
func (c *Coordinator) Detach(i int) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	nd, err := c.node(i)
	if err != nil {
		return err
	}
	if !nd.live {
		return fmt.Errorf("%w: partition %d is not live", ErrNotDetached, i)
	}
	nd.live = false
	return nil
}

// Rejoin catches partition i up — journal shipping for the retained
// tail, filtered log replay (wal.ReplayIf on the sequence gap) past
// the journal's retention — and returns it to serving. The write lock
// is held throughout, so the partition is exactly current when it
// goes live.
func (c *Coordinator) Rejoin(i int) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	nd, err := c.node(i)
	if err != nil {
		return err
	}
	if nd.live || nd.sys == nil {
		return fmt.Errorf("%w: partition %d must be detached (not killed) to rejoin", ErrNotDetached, i)
	}
	if err := c.catchUp(nd); err != nil {
		return err
	}
	nd.live = true
	return nil
}

// catchUp brings a non-live node to the coordinator's last sequence.
// Callers hold writeMu (excluding commits) and mu.
func (c *Coordinator) catchUp(nd *node) error {
	applied := nd.appliedSeq.Load()
	last := c.lastSeq.Load()
	if applied >= last {
		return nil
	}
	if recs, ok := c.journal.Since(applied); ok {
		for _, rec := range recs {
			if err := nd.sys.ApplyRecord(rec); err != nil {
				return fmt.Errorf("partition: journal catch-up seq %d: %w", rec.Seq, err)
			}
			nd.appliedSeq.Store(rec.Seq)
		}
		return nil
	}
	if c.walPath == "" {
		return fmt.Errorf("%w: need records after seq %d, journal starts at %d",
			ErrJournalGap, applied, c.journal.OldestSeq())
	}
	// The journal dropped part of the gap: filtered replay of the
	// shared log skips every already-applied record without paying for
	// its payload decode.
	if err := c.walLog.Sync(); err != nil {
		return err
	}
	_, _, err := wal.ReplayFileIf(c.walPath, wal.SeqAfter(applied), func(rec wal.Record) error {
		if err := nd.sys.ApplyRecord(rec); err != nil {
			return err
		}
		nd.appliedSeq.Store(rec.Seq)
		return nil
	})
	if err != nil {
		return fmt.Errorf("partition: log catch-up: %w", err)
	}
	return nil
}

// Kill closes partition i's System and discards it — simulating (or
// handling) a dead replica. Restart rebuilds it from the WAL.
func (c *Coordinator) Kill(i int) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	nd, err := c.node(i)
	if err != nil {
		return err
	}
	if nd.sys == nil {
		return fmt.Errorf("%w: partition %d is already killed", ErrNotDetached, i)
	}
	nd.live = false
	sys := nd.sys
	nd.sys = nil
	nd.appliedSeq.Store(0)
	return sys.Close()
}

// Restart bootstraps a killed partition from scratch: a fresh System
// replays the shared WAL (the snapshot+replay path — CompactLog folds
// the log to a state snapshot, replay applies the tail) or, for
// in-memory coordinators, the journal from its start; then the
// partition goes live. The write lock is held throughout.
func (c *Coordinator) Restart(i int) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	nd, err := c.node(i)
	if err != nil {
		return err
	}
	if nd.sys != nil {
		return fmt.Errorf("%w: partition %d is not killed (use Rejoin for detached partitions)", ErrNotDetached, i)
	}
	sys, err := fairhealth.New(c.cfg)
	if err != nil {
		return err
	}
	nd.sys = sys
	nd.appliedSeq.Store(0)
	if err := c.catchUp(nd); err != nil {
		nd.sys = nil
		sys.Close()
		return err
	}
	nd.live = true
	return nil
}

func (c *Coordinator) node(i int) (*node, error) {
	if i < 0 || i >= len(c.nodes) {
		return nil, fmt.Errorf("partition: no partition %d (have %d)", i, len(c.nodes))
	}
	return c.nodes[i], nil
}

// ---------------------------------------------------------------------------
// serving: the shared fairhealth.Pipeline over owner-routed members,
// answers bit-identical to one unpartitioned System

// ownerMembers is the Coordinator's fairhealth.MemberSource: each
// member is checked on, and scored by, its live owner partition.
type ownerMembers struct{ c *Coordinator }

func (m ownerMembers) CheckMember(u model.UserID) error {
	_, sys, err := m.c.liveOwner(string(u))
	if err != nil {
		return err
	}
	if !sys.KnownUser(string(u)) {
		return fmt.Errorf("%w: %s", fairhealth.ErrUnknownPatient, u)
	}
	return nil
}

func (m ownerMembers) Relevances(ctx context.Context, scorer string, approx bool, g model.Group, workers int) ([]map[model.ItemID]float64, error) {
	return scoring.Gather(ctx, func(u model.UserID) (map[model.ItemID]float64, error) {
		nd, sys, err := m.c.liveOwner(string(u))
		if err != nil {
			return nil, err
		}
		nd.assembles.Add(1)
		return sys.MemberRelevances(scorer, string(u), approx)
	}, g, workers)
}

// Serve answers one GroupQuery, each member's relevance assembled on
// its owning partition (see fairhealth.Pipeline.Serve).
func (c *Coordinator) Serve(ctx context.Context, q fairhealth.GroupQuery) (*fairhealth.GroupResult, error) {
	return c.pipe.Serve(ctx, q)
}

// ServeBatch answers many GroupQueries (see fairhealth.Pipeline.ServeBatch).
func (c *Coordinator) ServeBatch(ctx context.Context, queries []fairhealth.GroupQuery) ([]fairhealth.BatchGroupResult, error) {
	return c.pipe.ServeBatch(ctx, queries)
}

// ServeStream yields many GroupQueries' entries as they complete (see
// fairhealth.Pipeline.ServeStream).
func (c *Coordinator) ServeStream(ctx context.Context, queries []fairhealth.GroupQuery, fn func(fairhealth.BatchGroupResult) error) error {
	return c.pipe.ServeStream(ctx, queries, fn)
}
