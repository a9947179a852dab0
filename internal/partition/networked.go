// networked.go is the partition router: one coordinator contract
// over N workers, each a full System replica behind a
// transport.Server. Remote workers (iphrd -partition-listen) are
// reached by a transport.Client over TCP; in-process ones (New) by a
// transport.Local, which calls the same server methods directly. The
// router keeps one full replica of its own — validation, corpus-global
// reads, and the member check all answer from it without a hop — while
// the ring assigns which worker computes (and cache-warms) each user's
// relevance.
//
// The serving hot path is coalesced: all members of a group owned by
// the same worker travel in one Relevances call, so a group costs at
// most one call per live worker, not one per member, and a memoized
// group costs none. Writes are batches: each record appends to the
// optional log, applies to the router's replica and joins the journal,
// then the batch applies on every live worker — one Apply for a single
// write, compressed catch-up blocks for a bulk Load. A worker that
// fails a transport call, refuses a record as a sequence gap, or
// reports an applied seq below what it acknowledged (a probe on every
// health tick) is marked down, traffic reroutes via OwnerLive, and a
// background health loop re-handshakes it and streams the gap back in
// blocks (from the journal, or from the log past its retention) before
// returning it to the ring. A worker whose applied seq is past the
// router's (ErrWorkerAhead) is never let in.
// Group queries run the same fairhealth.Pipeline a System runs; only
// the member vectors come from the workers. Answers stay bit-identical
// to one unpartitioned System: scores cross the wire as raw float64
// bit patterns, and the merge, aggregation, lists and solve are the
// router's code.
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

// Common errors.
var (
	// ErrNoLivePartitions reports a query arriving while every
	// partition is down, detached or killed.
	ErrNoLivePartitions = errors.New("partition: no live partitions")
	// ErrJournalGap reports a catch-up whose gap the journal no longer
	// retains and no log file exists to fall back to.
	ErrJournalGap = errors.New("partition: journal no longer retains the catch-up gap")
	// ErrWorkerAhead reports a worker whose applied seq is past the
	// router's last commit: it holds records this router never wrote
	// (a router restarted against running workers) and would
	// acknowledge the router's next records as duplicates without
	// applying them. It stays down until restarted empty.
	ErrWorkerAhead = errors.New("partition: worker is ahead of the router")
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
	// HealthEvery is the health-loop period (0 = 500ms): every tick
	// probes each live peer and tries to revive each down one.
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
// cache tuning) stay out: they change performance, never answers.
func ConfigFingerprint(cfg fairhealth.Config) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return strings.Join([]string{
		"v1",
		"delta=" + f(cfg.Delta),
		"overlap=" + strconv.Itoa(cfg.MinOverlap),
		"k=" + strconv.Itoa(cfg.K),
		"aggr=" + cfg.Aggregation,
		"scorer=" + cfg.Scorer,
		"cidx=" + strconv.FormatBool(cfg.CandidateIndex),
	}, "|")
}

// peerClient is how the router reaches one worker: a
// *transport.Client over the wire, or a *transport.Local in process.
type peerClient interface {
	Hello(ctx context.Context, fingerprint string) (appliedSeq uint64, docs int, err error)
	Apply(ctx context.Context, rec wal.Record) error
	Catchup(ctx context.Context, recs []wal.Record) (appliedSeq uint64, err error)
	Document(ctx context.Context, id, title, body string) error
	Relevances(ctx context.Context, scorer string, approx bool, members []model.UserID, out []map[model.ItemID]float64) error
	Recommend(ctx context.Context, user string, k int) ([]fairhealth.Recommendation, error)
	PeersOf(ctx context.Context, user string) ([]fairhealth.Peer, error)
	SearchPersonalized(ctx context.Context, user, query string, k int, boost float64) ([]fairhealth.SearchResult, error)
	Conns() int
	Close() error
}

// netPeer is one worker: its client, liveness, and per-partition
// counters.
type netPeer struct {
	addr   string
	client peerClient

	live       atomic.Bool
	appliedSeq atomic.Uint64
	// held keeps a detached or killed in-process worker out of the
	// health loop's revive round until Rejoin or Restart.
	held atomic.Bool

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

// Networked is the partition router: it fans group serving out across
// its workers, remote (NewNetworked) or in process (New, which wraps
// it in a Coordinator). It satisfies the same httpapi.Backend seam as
// System.
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

	// walLog, when set, is the durable log every commit appends to
	// before applying, and walPath the file catch-up replays past the
	// journal's retention.
	walLog  *wal.Log
	walPath string

	// writeMu serializes the commit path (log append, sequence
	// assignment, local apply, journal append, replication) and guards
	// docs.
	writeMu sync.Mutex
	lastSeq atomic.Uint64
	docs    []docEntry

	healthDone chan struct{}
	healthWG   sync.WaitGroup
	closeOnce  sync.Once

	// pipe serves groups over peerMembers, with a group-input memo.
	// Its fence: every commit drops the memo after replicate returns,
	// still under writeMu, and so does every markDown (a worker
	// restarted empty may have answered a gather before it was caught).
	pipe *fairhealth.Pipeline
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
	// A batch fans out two queries per peer: enough to keep every
	// peer's pipelined connections busy without nesting pools.
	n, err := newRouter(cfg, len(addrs), opt, 0, 2*len(addrs))
	if err != nil {
		return nil, err
	}
	for i, addr := range addrs {
		n.peers[i] = &netPeer{
			addr: addr,
			client: transport.NewClient(addr, transport.ClientOptions{
				PoolSize:    n.opt.PoolSize,
				DialTimeout: n.opt.DialTimeout,
				Stats:       &n.stats,
			}),
		}
	}
	if err := n.start(); err != nil {
		return nil, err
	}
	return n, nil
}

// newRouter builds a router for `peers` workers — its own replica, the
// ring, the journal (retaining at most retain records, 0 = unbounded)
// and the memoized pipeline, serving batches `width` queries at a time
// — and leaves the peers for the caller to fill before start.
func newRouter(cfg fairhealth.Config, peers int, opt NetOptions, retain, width int) (*Networked, error) {
	opt = opt.withDefaults()
	local, err := fairhealth.New(cfg)
	if err != nil {
		return nil, err
	}
	eff := local.Config()
	n := &Networked{
		cfg:         eff,
		fingerprint: ConfigFingerprint(eff),
		opt:         opt,
		local:       local,
		ring:        NewRing(peers, opt.VirtualNodes),
		journal:     NewJournal(retain),
		peers:       make([]*netPeer, peers),
		healthDone:  make(chan struct{}),
	}
	n.pipe = fairhealth.NewPipeline(eff, peerMembers{n}, width)
	n.pipe.EnableMemo()
	return n, nil
}

// start runs one synchronous connect round, so a fully-wired
// deployment serves immediately and a dead-on-arrival one errors out
// instead of limping, then starts the health loop. On error the
// router is closed.
func (n *Networked) start() error {
	var wg sync.WaitGroup
	for _, p := range n.peers {
		wg.Add(1)
		go func(p *netPeer) {
			defer wg.Done()
			if err := n.revive(p); err != nil {
				n.bumpBackoff(p, err)
			}
		}(p)
	}
	wg.Wait()
	if n.LiveCount() == 0 {
		errs := make([]string, 0, len(n.peers))
		for _, p := range n.peers {
			p.errMu.Lock()
			errs = append(errs, p.addr+": "+p.lastErr)
			p.errMu.Unlock()
		}
		n.close()
		return fmt.Errorf("partition: no reachable peers (%s)", strings.Join(errs, "; "))
	}
	n.healthWG.Add(1)
	go n.healthLoop()
	return nil
}

// LiveCount reports how many peers currently pass health checks.
func (n *Networked) LiveCount() (live int) {
	for _, p := range n.peers {
		if p.live.Load() {
			live++
		}
	}
	return live
}

func (n *Networked) peerLive(i int) bool { return n.peers[i].live.Load() }

// Config reports the effective configuration.
func (n *Networked) Config() fairhealth.Config { return n.cfg }

// PartitionCount reports the peer count.
func (n *Networked) PartitionCount() int { return len(n.peers) }

// Owner reports which peer the ring assigns user to (ignoring
// liveness) — loadgen's per-partition latency labeling.
func (n *Networked) Owner(user string) int { return n.ring.Owner(user) }

// Close stops the health loop, closes every peer connection, and
// releases the local replica and the log.
func (n *Networked) Close() error {
	var err error
	n.closeOnce.Do(func() {
		close(n.healthDone)
		n.healthWG.Wait()
		err = n.close()
	})
	return err
}

// close releases everything but the health loop.
func (n *Networked) close() error {
	for _, p := range n.peers {
		if p != nil { // a worker that failed to build
			p.client.Close()
		}
	}
	n.pipe.Close()
	err := n.local.Close()
	if n.walLog != nil {
		if werr := n.walLog.Close(); err == nil {
			err = werr
		}
	}
	return err
}

// ---------------------------------------------------------------------------
// health: every HealthEvery, live peers are probed and down peers are
// revived; a revive that handshakes streams the journal gap in
// compressed blocks, seals the final delta under the write lock, and
// returns the peer to the ring.

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
				switch {
				case p.live.Load():
					n.probe(p)
				case p.held.Load(), time.Now().Before(p.backoffUntil):
				default:
					if err := n.revive(p); err != nil {
						n.bumpBackoff(p, err)
						continue
					}
					p.fails = 0
					p.backoffUntil = time.Time{}
				}
			}
		}
	}
}

// probe re-handshakes one live peer. A memo hit sends no RPC, so
// without it a dead peer would stay live; and a worker restarted empty
// on its old address reports an applied seq below the one it
// acknowledged. Either takes the peer down for catch-up.
func (n *Networked) probe(p *netPeer) {
	// Read before the probe: commit stores appliedSeq only after the
	// worker has applied the record, so the reply can never be lower.
	acked := p.appliedSeq.Load()
	ctx, cancel := context.WithTimeout(context.Background(), n.opt.WriteTimeout)
	defer cancel()
	seq, _, err := p.client.Hello(ctx, n.fingerprint)
	if err == nil && seq < acked {
		err = fmt.Errorf("partition: peer restarted: applied seq %d, acknowledged %d", seq, acked)
	}
	if err == nil {
		err = n.notAhead(seq)
	}
	if err != nil {
		n.markDown(p, err)
	}
}

// notAhead refuses a Hello's applied seq past the router's last. It
// must read lastSeq after the Hello: commit stores lastSeq before it
// replicates, so a worker in step with this router is never ahead.
func (n *Networked) notAhead(seq uint64) error {
	if last := n.lastSeq.Load(); seq > last {
		return fmt.Errorf("%w: applied seq %d, router at %d; restart the worker empty", ErrWorkerAhead, seq, last)
	}
	return nil
}

func (n *Networked) markDown(p *netPeer, err error) {
	if p.live.CompareAndSwap(true, false) {
		p.setErr(err)
		n.stats.Errors.Add(1)
		n.pipe.DropMemo()
	}
}

func (n *Networked) bumpBackoff(p *netPeer, err error) {
	p.setErr(err)
	if p.fails < 5 {
		p.fails++
	}
	p.backoffUntil = time.Now().Add(n.opt.BackoffBase << (p.fails - 1))
}

// revive brings one down peer back: handshake, document replay and
// catch-up off the write lock, then the final delta under it, so the
// peer is exactly current the instant it turns live.
func (n *Networked) revive(p *netPeer) error {
	ctx, cancel := context.WithTimeout(context.Background(), n.opt.WriteTimeout)
	seq, docCount, err := p.client.Hello(ctx, n.fingerprint)
	cancel()
	if err == nil {
		err = n.notAhead(seq)
	}
	if err != nil {
		return err
	}
	p.appliedSeq.Store(seq)

	n.writeMu.Lock()
	docs := append([]docEntry(nil), n.docs...)
	n.writeMu.Unlock()
	shipped := len(docs)
	if docCount < len(docs) {
		if err := n.shipDocs(p, docs[docCount:]); err != nil {
			return err
		}
	}
	if err := n.catchUp(p); err != nil {
		return err
	}

	// Final delta under the write lock: no record or document can
	// slip between this block and the live flip.
	n.writeMu.Lock()
	defer n.writeMu.Unlock()
	if err := n.shipDocs(p, n.docs[shipped:]); err != nil {
		return err
	}
	if err := n.catchUp(p); err != nil {
		return err
	}
	p.live.Store(true)
	return nil
}

func (n *Networked) shipDocs(p *netPeer, docs []docEntry) error {
	for _, d := range docs {
		ctx, cancel := context.WithTimeout(context.Background(), n.opt.WriteTimeout)
		err := p.client.Document(ctx, d.id, d.title, d.body)
		cancel()
		if err != nil {
			return err
		}
	}
	return nil
}

// catchUp ships p every record after its applied seq, in blocks of
// CatchupBlock: from the journal while it covers the gap, otherwise in
// one pass over the log file.
func (n *Networked) catchUp(p *netPeer) error {
	cur := p.appliedSeq.Load()
	if cur >= n.lastSeq.Load() {
		return nil
	}
	if recs, ok := n.journal.Since(cur); ok {
		return n.shipBlocks(p, recs)
	}
	if n.walPath == "" {
		return fmt.Errorf("%w: need records after seq %d, journal starts at %d",
			ErrJournalGap, cur, n.journal.OldestSeq())
	}
	// Filtered replay skips every applied record without decoding its
	// payload. A record whose append lands mid-pass may be cut off at
	// the end; the caller's next catchUp ships it.
	block := make([]wal.Record, 0, n.opt.CatchupBlock)
	_, _, err := wal.ReplayFileIf(n.walPath, wal.SeqAfter(cur), func(rec wal.Record) error {
		if block = append(block, rec); len(block) < n.opt.CatchupBlock {
			return nil
		}
		err := n.shipBlock(p, block)
		block = block[:0]
		return err
	})
	if err == nil && len(block) > 0 {
		err = n.shipBlock(p, block)
	}
	if err != nil {
		return fmt.Errorf("partition: log catch-up: %w", err)
	}
	return nil
}

// shipBlocks ships recs to p in blocks of CatchupBlock.
func (n *Networked) shipBlocks(p *netPeer, recs []wal.Record) error {
	for len(recs) > 0 {
		k := min(len(recs), n.opt.CatchupBlock)
		if err := n.shipBlock(p, recs[:k]); err != nil {
			return err
		}
		recs = recs[k:]
	}
	return nil
}

// shipBlock applies one block on p. The worker reports its new applied
// sequence, so a stalled peer cannot loop forever.
func (n *Networked) shipBlock(p *netPeer, recs []wal.Record) error {
	cur := p.appliedSeq.Load()
	ctx, cancel := context.WithTimeout(context.Background(), n.opt.WriteTimeout)
	applied, err := p.client.Catchup(ctx, recs)
	cancel()
	if err != nil {
		return err
	}
	if applied <= cur {
		return fmt.Errorf("partition: catch-up made no progress at seq %d", cur)
	}
	p.appliedSeq.Store(applied)
	return nil
}

// ---------------------------------------------------------------------------
// write path: validate against the local replica → per record, append
// to the log, apply locally, journal → replicate the batch to every
// live peer (one Apply for a single record, catch-up blocks for more).
// A peer that fails replication goes down and converges through
// catch-up, so the write itself never fails on peer loss.

// replicate sends one write to every live peer and waits for them all;
// the caller holds writeMu, so writes still reach each peer in commit
// order. Remote sends run at once; an in-process send runs on this
// goroutine, where a spawned one would queue behind CPU-bound serves.
// A transport failure or a sequence gap (the peer lost records it
// acknowledged) takes that peer down. Any other WireError fails the
// write: validation ran locally first, so a peer can only refuse a
// record it has diverged on — surface that loudly rather than
// papering over it (the lowest refusing peer is returned with its
// error, so the report does not depend on which reply arrived first).
func (n *Networked) replicate(send func(context.Context, *netPeer) error) (*netPeer, error) {
	errs := make([]error, len(n.peers))
	var wg sync.WaitGroup
	for i, p := range n.peers {
		if !p.live.Load() {
			continue
		}
		if _, inline := p.client.(*transport.Local); inline {
			// No wire, so nothing to time out.
			errs[i] = send(context.Background(), p)
			continue
		}
		wg.Add(1)
		go func(i int, p *netPeer) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), n.opt.WriteTimeout)
			defer cancel()
			errs[i] = send(ctx, p)
		}(i, p)
	}
	wg.Wait()
	var refuser *netPeer
	var refusal error
	for i, err := range errs {
		if err == nil {
			continue
		}
		var we *transport.WireError
		if !errors.As(err, &we) || errors.Is(err, transport.ErrSeqGap) {
			n.markDown(n.peers[i], err)
		} else if refuser == nil {
			refuser, refusal = n.peers[i], err
		}
	}
	return refuser, refusal
}

// commit logs, applies and journals recs in order, then replicates
// them to every live peer as one batch. A record the router cannot log
// or apply ends the batch there: the records before it are replicated
// and the error is returned.
func (n *Networked) commit(recs []wal.Record) error {
	n.writeMu.Lock()
	defer n.writeMu.Unlock()
	done, err := n.applyLocal(recs)
	if done == 0 {
		return err
	}
	recs = recs[:done]
	// Runs after replicate returns, still under writeMu: a gather that
	// overlapped the commit is refused, and one that starts after the
	// drop reads only peers that applied recs.
	defer n.pipe.DropMemo()
	refuser, rerr := n.replicate(func(ctx context.Context, p *netPeer) error {
		if len(recs) > 1 {
			// A batch ships as catch-up blocks, each under its own
			// WriteTimeout; the caller's deadline covers one record.
			return n.shipBlocks(p, recs)
		}
		if err := p.client.Apply(ctx, recs[0]); err != nil {
			return err
		}
		p.appliedSeq.Store(recs[0].Seq)
		return nil
	})
	if rerr != nil {
		return fmt.Errorf("partition: apply %d records from seq %d on %s: %w", len(recs), recs[0].Seq, refuser.addr, rerr)
	}
	for _, rec := range recs {
		if p, ok := n.ring.OwnerLive(subject(rec), n.peerLive); ok {
			n.peers[p].ownedWrites.Add(1)
		}
	}
	return err
}

// applyLocal assigns each record its sequence number, appends it to
// the log, applies it to the router's replica and journals it, in
// order, and reports how many records it committed before the first
// failure. The caller holds writeMu.
func (n *Networked) applyLocal(recs []wal.Record) (int, error) {
	for i := range recs {
		rec := &recs[i]
		rec.Seq = n.lastSeq.Load() + 1
		if n.walLog != nil {
			seq, err := n.walLog.Append(*rec)
			if err != nil {
				return i, err
			}
			rec.Seq = seq
		}
		if err := n.local.ApplyRecord(*rec); err != nil {
			return i, err
		}
		n.lastSeq.Store(rec.Seq)
		n.journal.Append(*rec)
	}
	return len(recs), nil
}

// subject is the user whose owner a record's write is counted against.
func subject(rec wal.Record) string {
	if rec.Patient != nil {
		return string(rec.Patient.ID)
	}
	return string(rec.User)
}

// rateRecord validates a rating exactly as System.AddRating does.
func rateRecord(u model.UserID, i model.ItemID, v model.Rating) (wal.Record, error) {
	if u == "" || i == "" {
		return wal.Record{}, ratings.ErrEmptyID
	}
	if err := v.Validate(); err != nil {
		return wal.Record{}, err
	}
	return wal.Record{Op: wal.OpRate, User: u, Item: i, Value: v}, nil
}

// AddRating records a rating, replicated to every live peer.
// Validation mirrors System.AddRating exactly, before the commit.
func (n *Networked) AddRating(user, item string, value float64) error {
	rec, err := rateRecord(model.UserID(user), model.ItemID(item), model.Rating(value))
	if err != nil {
		return err
	}
	return n.commit([]wal.Record{rec})
}

// RemoveRating deletes a rating, replicated to every live peer.
func (n *Networked) RemoveRating(user, item string) error {
	if !n.local.HasRating(user, item) {
		return fmt.Errorf("%w: %s/%s", ratings.ErrNotFound, user, item)
	}
	return n.commit([]wal.Record{{Op: wal.OpUnrate, User: model.UserID(user), Item: model.ItemID(item)}})
}

// AddPatient registers (or replaces) a patient profile everywhere.
// The profile validates once, against the local replica's ontology,
// before the commit.
func (n *Networked) AddPatient(p fairhealth.Patient) error {
	prof, err := n.local.PatientProfile(p)
	if err != nil {
		return err
	}
	return n.commit([]wal.Record{{Op: wal.OpPatient, Patient: prof}})
}

// Load adds ratings, then patients, as one batched commit: the same
// records, in the same order, as System.Load, but each live peer
// receives them as CatchupBlock-sized catch-up blocks instead of one
// Apply per record. Every record validates first, so a bad one refuses
// the whole call before anything is logged or applied.
func (n *Networked) Load(rs []model.Triple, patients []fairhealth.Patient) error {
	recs := make([]wal.Record, 0, len(rs)+len(patients))
	for _, t := range rs {
		rec, err := rateRecord(t.User, t.Item, t.Value)
		if err != nil {
			return err
		}
		recs = append(recs, rec)
	}
	for _, p := range patients {
		prof, err := n.local.PatientProfile(p)
		if err != nil {
			return err
		}
		recs = append(recs, wal.Record{Op: wal.OpPatient, Patient: prof})
	}
	return n.commit(recs)
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
	defer n.pipe.DropMemo() // the commit fence
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

// CacheStats reports the local replica's similarity and peer caches
// and the coordinator's own group memo. Peer caches are remote state;
// their traffic shows up in their own processes' /v1/stats when
// workers also serve HTTP, and the transport section here covers the
// wire instead.
func (n *Networked) CacheStats() fairhealth.CacheStats {
	cs := n.local.CacheStats()
	cs.Groups = n.pipe.MemoStats()
	return cs
}

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
	return routeUser(n, user, func(ctx context.Context, c peerClient) ([]fairhealth.Recommendation, error) {
		return c.Recommend(ctx, user, k)
	})
}

// Peers returns the user's peer set, computed on the owning peer.
func (n *Networked) Peers(user string) ([]fairhealth.Peer, error) {
	return routeUser(n, user, func(ctx context.Context, c peerClient) ([]fairhealth.Peer, error) {
		return c.PeersOf(ctx, user)
	})
}

// SearchPersonalized searches with the user's profile boost, on the
// owning peer.
func (n *Networked) SearchPersonalized(user, query string, k int, boost float64) ([]fairhealth.SearchResult, error) {
	return routeUser(n, user, func(ctx context.Context, c peerClient) ([]fairhealth.SearchResult, error) {
		return c.SearchPersonalized(ctx, user, query, k, boost)
	})
}

// routeUser runs one user-scoped call on the user's live owner, each
// attempt bounded by CallTimeout, rerouting past peers that fail at the
// transport level (application errors return immediately — every
// replica would answer the same).
func routeUser[T any](n *Networked, user string, call func(context.Context, peerClient) (T, error)) (T, error) {
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
		fetch := func(part int, idxs []int) {
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
		}
		// The last batch runs on this goroutine, which would otherwise
		// only wait.
		left := len(byOwner)
		for part, idxs := range byOwner {
			if left--; left == 0 {
				fetch(part, idxs)
				break
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				fetch(part, idxs)
			}()
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

// PartitionStats reports one row per peer — ownership, replication
// lag, and fan-out counters, with ownership computed from the local
// replica's membership.
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
