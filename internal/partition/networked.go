// networked.go is partitioned serving across processes: the same
// coordinator contract as coordinator.go, but the replicas are worker
// iphrd processes reached over internal/partition/transport instead
// of in-process Systems. The coordinator keeps one local full replica
// of its own — validation, corpus-global reads, and journal bootstrap
// all answer from it without a network hop — while the ring assigns
// which *peer* computes (and cache-warms) each user's relevance.
//
// The serving hot path is coalesced: all members of a group owned by
// the same peer travel in one Relevances RPC, so a group costs at
// most one RPC per live peer, not one per member. Writes commit to
// the coordinator's journal and local replica first, then apply on
// every live peer over the same transport; a peer that fails a
// transport call is marked down, traffic reroutes via OwnerLive, and
// a background health loop re-handshakes it and streams the journal
// gap back in compressed blocks before returning it to the ring.
// Group queries run the same fairhealth.Pipeline a System runs; only
// the member vectors come from the peers. Answers stay bit-identical
// to one unpartitioned System: scores ship as raw float64 bit
// patterns, and the merge, aggregation, lists and solve are the local
// code.
package partition

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fairhealth"
	"fairhealth/internal/candidates"
	"fairhealth/internal/model"
	"fairhealth/internal/partition/transport"
	"fairhealth/internal/ratings"
	"fairhealth/internal/wal"
)

// NetOptions tunes a networked coordinator.
type NetOptions struct {
	// VirtualNodes is the per-peer virtual node count on the hash ring
	// (0 = DefaultVirtualNodes).
	VirtualNodes int
	// PoolSize is the persistent connection count per peer (0 = 2).
	// Every connection pipelines, so the pool bounds head-of-line
	// sharing, not concurrency.
	PoolSize int
	// DialTimeout bounds connection establishment (0 = 2s).
	DialTimeout time.Duration
	// WriteTimeout bounds one replication RPC (0 = 5s).
	WriteTimeout time.Duration
	// CallTimeout bounds routed user-level reads, which carry no
	// caller context through the Backend interface (0 = 10s).
	CallTimeout time.Duration
	// HealthEvery is the down-peer probe period (0 = 500ms).
	HealthEvery time.Duration
	// BackoffBase seeds the per-peer reconnect backoff, doubling per
	// consecutive failure up to 16× (0 = 250ms).
	BackoffBase time.Duration
	// CatchupBlock is the record count per compressed catch-up block
	// (0 = 512).
	CatchupBlock int
}

func (o NetOptions) withDefaults() NetOptions {
	if o.PoolSize <= 0 {
		o.PoolSize = 2
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 5 * time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 10 * time.Second
	}
	if o.HealthEvery <= 0 {
		o.HealthEvery = 500 * time.Millisecond
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 250 * time.Millisecond
	}
	if o.CatchupBlock <= 0 {
		o.CatchupBlock = 512
	}
	return o
}

// ConfigFingerprint renders the scoring-relevant effective
// configuration — every knob that changes served answers — so the
// Hello handshake can refuse a worker whose results would diverge
// from the coordinator's local replica. Deployment knobs (workers,
// cache tuning, partition count) stay out: they change performance,
// never answers.
func ConfigFingerprint(cfg fairhealth.Config) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return strings.Join([]string{
		"v1",
		"delta=" + f(cfg.Delta),
		"overlap=" + strconv.Itoa(cfg.MinOverlap),
		"k=" + strconv.Itoa(cfg.K),
		"sim=" + string(cfg.Similarity),
		"hybrid=" + f(cfg.HybridWeights.Ratings) + "," + f(cfg.HybridWeights.Profile) + "," + f(cfg.HybridWeights.Semantic),
		"aggr=" + cfg.Aggregation,
		"scorer=" + cfg.Scorer,
		"cidx=" + strconv.FormatBool(cfg.CandidateIndex),
		"ck=" + strconv.Itoa(cfg.CandidateK),
	}, "|")
}

// netPeer is one remote worker: its client, liveness, and the same
// per-partition counters the in-process node keeps.
type netPeer struct {
	addr   string
	client *transport.Client

	live       atomic.Bool
	appliedSeq atomic.Uint64

	assembles     atomic.Uint64
	routedQueries atomic.Uint64
	ownedWrites   atomic.Uint64

	// Reconnect state, touched only by the health loop (and the
	// initial synchronous connect, before the loop starts).
	fails        int
	backoffUntil time.Time

	errMu   sync.Mutex
	lastErr string
}

func (p *netPeer) setErr(err error) {
	p.errMu.Lock()
	p.lastErr = err.Error()
	p.errMu.Unlock()
}

// Networked fans group serving out across remote worker processes.
// It satisfies the same httpapi.Backend seam as System and the
// in-process Coordinator.
type Networked struct {
	cfg         fairhealth.Config
	fingerprint string
	opt         NetOptions

	// local is the coordinator's own full replica: validation,
	// corpus-global reads, and the journal's apply source. It is NOT
	// on the ring — relevance compute routes to peers.
	local   *fairhealth.System
	ring    *Ring
	journal *Journal
	peers   []*netPeer
	stats   transport.Stats

	// writeMu serializes the commit path (sequence assignment, local
	// apply, journal append, replication) and guards docs.
	writeMu sync.Mutex
	lastSeq atomic.Uint64
	docs    []docEntry

	healthDone chan struct{}
	healthWG   sync.WaitGroup
	closeOnce  sync.Once

	pipe *fairhealth.Pipeline // group serving over peerMembers
}

// docEntry mirrors one AddDocument call: documents are corpus state
// outside the WAL, so the coordinator keeps the list to replay to a
// worker that rejoins empty.
type docEntry struct {
	id, title, body string
}

// NewNetworked builds a coordinator over worker processes listening
// at addrs. Construction attempts one handshake round; it fails only
// when no peer is reachable at all (unreachable peers otherwise start
// down and the health loop keeps retrying them).
func NewNetworked(cfg fairhealth.Config, addrs []string, opt NetOptions) (*Networked, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("%w: networked coordinator needs at least one peer", fairhealth.ErrBadConfig)
	}
	opt = opt.withDefaults()
	local, err := fairhealth.New(cfg)
	if err != nil {
		return nil, err
	}
	eff := local.Config()
	eff.Partitions = len(addrs)
	n := &Networked{
		cfg:         eff,
		fingerprint: ConfigFingerprint(eff),
		opt:         opt,
		local:       local,
		ring:        NewRing(len(addrs), opt.VirtualNodes),
		journal:     NewJournal(0), // unbounded: the rejoin bootstrap source
		healthDone:  make(chan struct{}),
	}
	// A batch fans out two queries per peer: enough to keep every
	// peer's pipelined connections busy without nesting pools.
	n.pipe = fairhealth.NewPipeline(eff, peerMembers{n}, 2*len(addrs))
	n.peers = make([]*netPeer, len(addrs))
	for i, addr := range addrs {
		n.peers[i] = &netPeer{
			addr: addr,
			client: transport.NewClient(addr, transport.ClientOptions{
				PoolSize:    opt.PoolSize,
				DialTimeout: opt.DialTimeout,
				Stats:       &n.stats,
			}),
		}
	}
	// One synchronous connect round so a fully-wired deployment
	// serves immediately and a dead-on-arrival address list errors
	// out instead of limping.
	var wg sync.WaitGroup
	for _, p := range n.peers {
		wg.Add(1)
		go func(p *netPeer) {
			defer wg.Done()
			n.revive(p)
		}(p)
	}
	wg.Wait()
	if live, _ := n.liveCount(); live == 0 {
		errs := make([]string, 0, len(n.peers))
		for _, p := range n.peers {
			p.errMu.Lock()
			errs = append(errs, p.addr+": "+p.lastErr)
			p.errMu.Unlock()
		}
		n.closePeers()
		local.Close()
		return nil, fmt.Errorf("partition: no reachable peers (%s)", strings.Join(errs, "; "))
	}
	n.healthWG.Add(1)
	go n.healthLoop()
	return n, nil
}

func (n *Networked) liveCount() (live, total int) {
	for _, p := range n.peers {
		if p.live.Load() {
			live++
		}
	}
	return live, len(n.peers)
}

// LiveCount reports how many peers currently pass health checks.
func (n *Networked) LiveCount() int {
	live, _ := n.liveCount()
	return live
}

func (n *Networked) peerLive(i int) bool { return n.peers[i].live.Load() }

// Config reports the effective configuration (Partitions = peer
// count).
func (n *Networked) Config() fairhealth.Config { return n.cfg }

// PartitionCount reports the peer count.
func (n *Networked) PartitionCount() int { return len(n.peers) }

// Owner reports which peer the ring assigns user to (ignoring
// liveness) — loadgen's per-partition latency labeling.
func (n *Networked) Owner(user string) int { return n.ring.Owner(user) }

func (n *Networked) closePeers() {
	for _, p := range n.peers {
		p.client.Close()
	}
}

// Close stops the health loop, closes every peer connection, and
// releases the local replica.
func (n *Networked) Close() error {
	var err error
	n.closeOnce.Do(func() {
		close(n.healthDone)
		n.healthWG.Wait()
		n.closePeers()
		err = n.local.Close()
	})
	return err
}

// ---------------------------------------------------------------------------
// health: down peers are probed every HealthEvery; a probe that
// handshakes streams the journal gap in compressed blocks, seals the
// final delta under the write lock, and returns the peer to the ring.

func (n *Networked) healthLoop() {
	defer n.healthWG.Done()
	tick := time.NewTicker(n.opt.HealthEvery)
	defer tick.Stop()
	for {
		select {
		case <-n.healthDone:
			return
		case <-tick.C:
			for _, p := range n.peers {
				if !p.live.Load() {
					n.revive(p)
				}
			}
		}
	}
}

func (n *Networked) markDown(p *netPeer, err error) {
	if p.live.CompareAndSwap(true, false) {
		p.setErr(err)
		n.stats.Errors.Add(1)
	}
}

func (n *Networked) bumpBackoff(p *netPeer, err error) {
	p.setErr(err)
	if p.fails < 5 {
		p.fails++
	}
	p.backoffUntil = time.Now().Add(n.opt.BackoffBase << (p.fails - 1))
}

// revive attempts to bring one down peer back: handshake, document
// replay, journal catch-up (off the write lock, in compressed
// blocks), then the final delta under the write lock so the peer is
// exactly current the instant it turns live.
func (n *Networked) revive(p *netPeer) {
	if time.Now().Before(p.backoffUntil) {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.opt.WriteTimeout)
	defer cancel()
	seq, docCount, err := p.client.Hello(ctx, n.fingerprint)
	if err != nil {
		n.bumpBackoff(p, err)
		return
	}
	p.appliedSeq.Store(seq)

	n.writeMu.Lock()
	docs := append([]docEntry(nil), n.docs...)
	n.writeMu.Unlock()
	shipped := len(docs)
	if docCount < len(docs) {
		for _, d := range docs[docCount:] {
			dctx, dcancel := context.WithTimeout(context.Background(), n.opt.WriteTimeout)
			err := p.client.Document(dctx, d.id, d.title, d.body)
			dcancel()
			if err != nil {
				n.bumpBackoff(p, err)
				return
			}
		}
	}

	// Stream the journal gap without holding up writes; each block is
	// compressed on the wire and the worker reports its new applied
	// sequence, so a stalled peer cannot loop forever.
	for {
		cur := p.appliedSeq.Load()
		if cur >= n.lastSeq.Load() {
			break
		}
		recs, ok := n.journal.Since(cur)
		if !ok {
			n.bumpBackoff(p, ErrJournalGap)
			return
		}
		if len(recs) > n.opt.CatchupBlock {
			recs = recs[:n.opt.CatchupBlock]
		}
		cctx, ccancel := context.WithTimeout(context.Background(), n.opt.WriteTimeout)
		applied, err := p.client.Catchup(cctx, recs)
		ccancel()
		if err != nil {
			n.bumpBackoff(p, err)
			return
		}
		if applied <= cur {
			n.bumpBackoff(p, fmt.Errorf("partition: catch-up made no progress at seq %d", cur))
			return
		}
		p.appliedSeq.Store(applied)
	}

	// Final delta under the write lock: no record or document can
	// slip between this block and the live flip.
	n.writeMu.Lock()
	defer n.writeMu.Unlock()
	for _, d := range n.docs[shipped:] {
		dctx, dcancel := context.WithTimeout(context.Background(), n.opt.WriteTimeout)
		err := p.client.Document(dctx, d.id, d.title, d.body)
		dcancel()
		if err != nil {
			n.bumpBackoff(p, err)
			return
		}
	}
	if cur := p.appliedSeq.Load(); cur < n.lastSeq.Load() {
		recs, ok := n.journal.Since(cur)
		if !ok {
			n.bumpBackoff(p, ErrJournalGap)
			return
		}
		fctx, fcancel := context.WithTimeout(context.Background(), n.opt.WriteTimeout)
		applied, err := p.client.Catchup(fctx, recs)
		fcancel()
		if err != nil {
			n.bumpBackoff(p, err)
			return
		}
		p.appliedSeq.Store(applied)
	}
	p.fails = 0
	p.backoffUntil = time.Time{}
	p.live.Store(true)
}

// ---------------------------------------------------------------------------
// write path: validate against the local replica → assign a sequence →
// apply locally → journal → replicate to every live peer. A peer that
// fails replication goes down and converges through catch-up, so the
// write itself never fails on peer loss.

// replicate sends one write to every live peer at once and waits for
// them all; the caller holds writeMu, so writes still reach each peer
// in commit order. A transport failure takes that peer down. A
// WireError fails the write: validation ran locally first, so a peer
// can only refuse a record it has diverged on — surface that loudly
// rather than papering over it (the lowest refusing peer is returned
// with its error, so the report does not depend on which reply arrived
// first).
func (n *Networked) replicate(send func(context.Context, *netPeer) error) (*netPeer, error) {
	errs := make([]error, len(n.peers))
	var wg sync.WaitGroup
	for i, p := range n.peers {
		if !p.live.Load() {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), n.opt.WriteTimeout)
			defer cancel()
			errs[i] = send(ctx, p)
		}()
	}
	wg.Wait()
	var refuser *netPeer
	var refusal error
	for i, err := range errs {
		if err == nil {
			continue
		}
		var we *transport.WireError
		if !errors.As(err, &we) {
			n.markDown(n.peers[i], err)
		} else if refuser == nil {
			refuser, refusal = n.peers[i], err
		}
	}
	return refuser, refusal
}

func (n *Networked) commit(rec wal.Record, ownerKey string) error {
	n.writeMu.Lock()
	defer n.writeMu.Unlock()
	rec.Seq = n.lastSeq.Load() + 1
	if err := n.local.ApplyRecord(rec); err != nil {
		return err
	}
	n.lastSeq.Store(rec.Seq)
	n.journal.Append(rec)
	refuser, err := n.replicate(func(ctx context.Context, p *netPeer) error {
		if err := p.client.Apply(ctx, rec); err != nil {
			return err
		}
		p.appliedSeq.Store(rec.Seq)
		return nil
	})
	if err != nil {
		return fmt.Errorf("partition: apply seq %d on %s: %w", rec.Seq, refuser.addr, err)
	}
	if p, ok := n.ring.OwnerLive(ownerKey, n.peerLive); ok {
		n.peers[p].ownedWrites.Add(1)
	}
	return nil
}

// AddRating records a rating, replicated to every live peer.
// Validation mirrors System.AddRating exactly, before the commit.
func (n *Networked) AddRating(user, item string, value float64) error {
	u, i, v := model.UserID(user), model.ItemID(item), model.Rating(value)
	if u == "" || i == "" {
		return ratings.ErrEmptyID
	}
	if err := v.Validate(); err != nil {
		return err
	}
	return n.commit(wal.Record{Op: wal.OpRate, User: u, Item: i, Value: v}, user)
}

// RemoveRating deletes a rating, replicated to every live peer.
func (n *Networked) RemoveRating(user, item string) error {
	if !n.local.HasRating(user, item) {
		return fmt.Errorf("%w: %s/%s", ratings.ErrNotFound, user, item)
	}
	return n.commit(wal.Record{Op: wal.OpUnrate, User: model.UserID(user), Item: model.ItemID(item)}, user)
}

// AddPatient registers (or replaces) a patient profile everywhere.
// The profile validates once, against the local replica's ontology,
// before the commit.
func (n *Networked) AddPatient(p fairhealth.Patient) error {
	prof, err := n.local.PatientProfile(p)
	if err != nil {
		return err
	}
	return n.commit(wal.Record{Op: wal.OpPatient, Patient: prof}, p.ID)
}

// AddDocument indexes a document locally and on every live peer, and
// remembers it for rejoin replay (documents are not WAL-logged,
// matching the unpartitioned System).
func (n *Networked) AddDocument(id, title, body string) error {
	n.writeMu.Lock()
	defer n.writeMu.Unlock()
	if err := n.local.AddDocument(id, title, body); err != nil {
		return err
	}
	n.docs = append(n.docs, docEntry{id: id, title: title, body: body})
	refuser, err := n.replicate(func(ctx context.Context, p *netPeer) error {
		return p.client.Document(ctx, id, title, body)
	})
	if err != nil {
		return fmt.Errorf("partition: document %s on %s: %w", id, refuser.addr, err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// reads: corpus-global calls answer from the local replica (identical
// on every replica by the replication contract); user-scoped calls
// route to the owning peer, whose caches hold that user's derived
// state.

// Stats summarizes system contents from the local replica.
func (n *Networked) Stats() fairhealth.Stats { return n.local.Stats() }

// CacheStats reports the local replica's caches. Peer caches are
// remote state; their traffic shows up in their own processes'
// /v1/stats when workers also serve HTTP, and the transport section
// here covers the wire instead.
func (n *Networked) CacheStats() fairhealth.CacheStats { return n.local.CacheStats() }

// CandidateIndexStats reports the local replica's candidate index.
func (n *Networked) CandidateIndexStats() (candidates.Stats, bool) {
	return n.local.CandidateIndexStats()
}

// Patient returns the stored profile for id.
func (n *Networked) Patient(id string) (fairhealth.Patient, error) { return n.local.Patient(id) }

// Patients lists all registered patient IDs.
func (n *Networked) Patients() []string { return n.local.Patients() }

// SearchDocuments searches the shared document index.
func (n *Networked) SearchDocuments(query string, k int) []fairhealth.SearchResult {
	return n.local.SearchDocuments(query, k)
}

// ProfileCorrespondences explains the profile similarity of two
// patients.
func (n *Networked) ProfileCorrespondences(a, b string) ([]fairhealth.Correspondence, error) {
	return n.local.ProfileCorrespondences(a, b)
}

// Recommend returns the user's personal top-k, computed on the owning
// peer.
func (n *Networked) Recommend(user string, k int) ([]fairhealth.Recommendation, error) {
	return routeUser(n, user, func(ctx context.Context, c *transport.Client) ([]fairhealth.Recommendation, error) {
		return c.Recommend(ctx, user, k)
	})
}

// Peers returns the user's peer set, computed on the owning peer.
func (n *Networked) Peers(user string) ([]fairhealth.Peer, error) {
	return routeUser(n, user, func(ctx context.Context, c *transport.Client) ([]fairhealth.Peer, error) {
		return c.PeersOf(ctx, user)
	})
}

// SearchPersonalized searches with the user's profile boost, on the
// owning peer.
func (n *Networked) SearchPersonalized(user, query string, k int, boost float64) ([]fairhealth.SearchResult, error) {
	return routeUser(n, user, func(ctx context.Context, c *transport.Client) ([]fairhealth.SearchResult, error) {
		return c.SearchPersonalized(ctx, user, query, k, boost)
	})
}

// routeUser runs one user-scoped call on the user's live owner, each
// attempt bounded by CallTimeout, rerouting past peers that fail at the
// transport level (application errors return immediately — every
// replica would answer the same).
func routeUser[T any](n *Networked, user string, call func(context.Context, *transport.Client) (T, error)) (T, error) {
	var zero T
	for attempt := 0; attempt <= len(n.peers); attempt++ {
		part, ok := n.ring.OwnerLive(user, n.peerLive)
		if !ok {
			return zero, ErrNoLivePartitions
		}
		p := n.peers[part]
		p.routedQueries.Add(1)
		ctx, cancel := context.WithTimeout(context.Background(), n.opt.CallTimeout)
		out, err := call(ctx, p.client)
		cancel()
		if err == nil {
			return out, nil
		}
		var we *transport.WireError
		if errors.As(err, &we) {
			return zero, err
		}
		n.markDown(p, err)
		n.stats.Retries.Add(1)
	}
	return zero, ErrNoLivePartitions
}

// ---------------------------------------------------------------------------
// group serving: the shared fairhealth.Pipeline over the coalesced
// fan-out

// peerMembers is Networked's fairhealth.MemberSource: members are
// checked against the local replica and scored by their owning peers,
// one coalesced RPC per peer (assembleRemote; the RPCs are the fan-out,
// so the workers bound is not used).
type peerMembers struct{ n *Networked }

func (m peerMembers) CheckMember(u model.UserID) error {
	if !m.n.local.KnownUser(string(u)) {
		return fmt.Errorf("%w: %s", fairhealth.ErrUnknownPatient, u)
	}
	return nil
}

func (m peerMembers) Relevances(ctx context.Context, scorer string, approx bool, g model.Group, _ int) ([]map[model.ItemID]float64, error) {
	return m.n.assembleRemote(ctx, scorer, approx, g)
}

// Serve answers one group query (see fairhealth.Pipeline.Serve).
func (n *Networked) Serve(ctx context.Context, q fairhealth.GroupQuery) (*fairhealth.GroupResult, error) {
	return n.pipe.Serve(ctx, q)
}

// ServeBatch answers many group queries (see
// fairhealth.Pipeline.ServeBatch). Concurrent queries stack onto the
// same pipelined peer connections.
func (n *Networked) ServeBatch(ctx context.Context, queries []fairhealth.GroupQuery) ([]fairhealth.BatchGroupResult, error) {
	return n.pipe.ServeBatch(ctx, queries)
}

// ServeStream yields many group queries' entries as they complete (see
// fairhealth.Pipeline.ServeStream).
func (n *Networked) ServeStream(ctx context.Context, queries []fairhealth.GroupQuery, fn func(fairhealth.BatchGroupResult) error) error {
	return n.pipe.ServeStream(ctx, queries, fn)
}

// assembleRemote gathers every member's relevance map with at most
// one RPC per live peer per round: members coalesce by owner, the
// batches run concurrently over pipelined connections, and members
// stranded by a transport failure reroute to the next live owner on
// the following round.
func (n *Networked) assembleRemote(ctx context.Context, scorer string, approx bool, g model.Group) ([]map[model.ItemID]float64, error) {
	maps := make([]map[model.ItemID]float64, len(g))
	remaining := make([]int, len(g))
	for i := range g {
		remaining[i] = i
	}
	for attempt := 0; len(remaining) > 0; attempt++ {
		if attempt > len(n.peers)+1 {
			return nil, fmt.Errorf("partition: relevances fan-out exhausted reroutes: %w", ErrNoLivePartitions)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		byOwner := make(map[int][]int)
		for _, idx := range remaining {
			part, ok := n.ring.OwnerLive(string(g[idx]), n.peerLive)
			if !ok {
				return nil, ErrNoLivePartitions
			}
			byOwner[part] = append(byOwner[part], idx)
		}
		if attempt > 0 {
			n.stats.Retries.Add(uint64(len(remaining)))
		}
		var (
			mu     sync.Mutex
			wg     sync.WaitGroup
			appErr error
			failed []int
		)
		for part, idxs := range byOwner {
			wg.Add(1)
			go func(part int, idxs []int) {
				defer wg.Done()
				p := n.peers[part]
				members := make([]model.UserID, len(idxs))
				for j, idx := range idxs {
					members[j] = g[idx]
				}
				out := make([]map[model.ItemID]float64, len(idxs))
				err := p.client.Relevances(ctx, scorer, approx, members, out)
				mu.Lock()
				defer mu.Unlock()
				if err == nil {
					p.assembles.Add(uint64(len(idxs)))
					for j, idx := range idxs {
						maps[idx] = out[j]
					}
					return
				}
				var we *transport.WireError
				if errors.As(err, &we) || ctx.Err() != nil {
					// Application failure (or our own deadline):
					// deterministic on every replica, so rerouting
					// cannot help.
					if appErr == nil {
						appErr = err
					}
					return
				}
				n.markDown(p, err)
				failed = append(failed, idxs...)
			}(part, idxs)
		}
		wg.Wait()
		if appErr != nil {
			return nil, appErr
		}
		remaining = failed
	}
	return maps, nil
}

// ---------------------------------------------------------------------------
// stats

// PartitionStats reports one row per peer — the same shape the
// in-process coordinator serves, with ownership computed from the
// local replica's membership.
func (n *Networked) PartitionStats() []Stats {
	last := n.lastSeq.Load()
	owned := make([]int, len(n.peers))
	seen := make(map[string]struct{})
	for _, u := range n.local.SortedUsers() {
		seen[u] = struct{}{}
	}
	for _, u := range n.local.Patients() {
		seen[u] = struct{}{}
	}
	for u := range seen {
		owned[n.ring.Owner(u)]++
	}
	out := make([]Stats, len(n.peers))
	for i, p := range n.peers {
		applied := p.appliedSeq.Load()
		lag := uint64(0)
		if last > applied {
			lag = last - applied
		}
		out[i] = Stats{
			ID:            i,
			Live:          p.live.Load(),
			OwnedUsers:    owned[i],
			VirtualNodes:  n.ring.VirtualNodes(),
			RingShare:     n.ring.Share(i),
			AppliedSeq:    applied,
			ReplayLag:     lag,
			Assembles:     p.assembles.Load(),
			RoutedQueries: p.routedQueries.Load(),
			OwnedWrites:   p.ownedWrites.Load(),
		}
	}
	return out
}

// TransportStats snapshots the wire counters plus pool and liveness
// gauges — the /v1/stats transport section.
func (n *Networked) TransportStats() transport.Snapshot {
	snap := n.stats.Snapshot()
	for _, p := range n.peers {
		snap.PoolConns += p.client.Conns()
		if p.live.Load() {
			snap.PeersLive++
		}
	}
	snap.PeersTotal = len(n.peers)
	return snap
}
