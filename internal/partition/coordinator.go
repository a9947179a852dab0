package partition

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"fairhealth"
	"fairhealth/internal/partition/transport"
	"fairhealth/internal/wal"
)

// ErrNotDetached reports a lifecycle call against a partition in the
// wrong state (rejoining a live partition, restarting one that was
// never killed, ...).
var ErrNotDetached = errors.New("partition: partition is not in the required state")

// Options tunes an in-process partitioned deployment beyond the System
// Config it wraps.
type Options struct {
	// Partitions is the partition count; it must be ≥ 1.
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

// Coordinator is the partition router over N in-process workers: each
// worker is a full System behind its own transport.Server, reached
// through a transport.Local, so serving, replication, catch-up and
// stats are the Networked router's. The router's own replica makes
// N+1 replicas of the logged state. What Coordinator adds is the
// workers' lifecycle: Detach/Rejoin take a worker out of the ring and
// back, Kill/Restart drop it and rebuild it empty.
type Coordinator struct {
	*Networked

	// lifeMu serializes lifecycle calls and guards workers.
	lifeMu  sync.Mutex
	workers []*worker
}

// worker is one in-process partition; sys is nil while killed.
type worker struct {
	sys   *fairhealth.System
	local *transport.Local
}

// New builds an in-memory partitioned deployment: opt.Partitions
// replicas of a System built from cfg behind a consistent-hash router.
func New(cfg fairhealth.Config, opt Options) (*Coordinator, error) {
	return newCoordinator(cfg, opt, "")
}

// NewPersistent builds a partitioned deployment whose state survives
// restarts: dir/events.wal is replayed into the router's replica on
// start, the workers bootstrap from it through catch-up, and every
// write is appended to it before the in-memory apply — the same log
// layout as an unpartitioned NewPersistent, so a deployment can move
// between -partitions settings across restarts.
func NewPersistent(cfg fairhealth.Config, opt Options, dir string) (*Coordinator, error) {
	return newCoordinator(cfg, opt, dir)
}

// newCoordinator builds the router and its workers, opens the log in
// dir (none when empty), and connects the workers.
func newCoordinator(cfg fairhealth.Config, opt Options, dir string) (*Coordinator, error) {
	if opt.Partitions < 1 {
		return nil, fmt.Errorf("%w: partitions %d must be ≥ 1", fairhealth.ErrBadConfig, opt.Partitions)
	}
	// In-process workers share this process's CPUs, so a batch runs
	// GOMAXPROCS queries at a time (width 0), as one System does.
	n, err := newRouter(cfg, opt.Partitions, NetOptions{VirtualNodes: opt.VirtualNodes}, opt.JournalRetain, 0)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{Networked: n, workers: make([]*worker, opt.Partitions)}
	for i := range c.workers {
		sys, srv, werr := c.newWorker()
		if werr != nil {
			err = werr
			break
		}
		c.workers[i] = &worker{sys: sys, local: transport.NewLocal(srv)}
		n.peers[i] = &netPeer{addr: fmt.Sprintf("partition %d", i), client: c.workers[i].local}
	}
	if err == nil && dir != "" {
		err = c.openLog(dir)
	}
	if err != nil {
		c.closeWorkers()
		n.close()
		return nil, err
	}
	if err := n.start(); err != nil {
		c.closeWorkers()
		return nil, err
	}
	return c, nil
}

// newWorker builds a fresh worker System and the server in front of
// it.
func (c *Coordinator) newWorker() (*fairhealth.System, *transport.Server, error) {
	sys, err := fairhealth.New(c.cfg)
	if err != nil {
		return nil, nil, err
	}
	return sys, transport.NewServer(sys, ConfigFingerprint(sys.Config())), nil
}

// openLog replays dir/events.wal into the router's replica and opens
// it for appends. The journal never saw the restored records, so it
// is rebased: workers bootstrap through the log-file catch-up.
func (c *Coordinator) openLog(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("partition: create state dir: %w", err)
	}
	path := filepath.Join(dir, "events.wal")
	if _, statErr := os.Stat(path); statErr == nil {
		if _, err := wal.ReplayFile(path, c.local.ApplyRecord); err != nil {
			return fmt.Errorf("partition: replay %s: %w", path, err)
		}
	}
	log, err := wal.Open(path)
	if err != nil {
		return err
	}
	c.walLog, c.walPath = log, path
	c.lastSeq.Store(log.Seq())
	c.journal.Rebase(log.Seq())
	return nil
}

// Close stops the router and closes every partition.
func (c *Coordinator) Close() error {
	err := c.Networked.Close()
	if werr := c.closeWorkers(); err == nil {
		err = werr
	}
	return err
}

func (c *Coordinator) closeWorkers() error {
	c.lifeMu.Lock()
	defer c.lifeMu.Unlock()
	var firstErr error
	for _, w := range c.workers {
		if w == nil || w.sys == nil {
			continue
		}
		w.local.Reset(nil)
		if err := w.sys.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		w.sys = nil
	}
	return firstErr
}

// ---------------------------------------------------------------------------
// lifecycle: detach/rejoin for lagging partitions, kill/restart for
// full rebuilds; both return through the router's revive

// Detach takes partition i out of serving and replication. Queries
// and writes route around it; its replay lag grows until Rejoin.
func (c *Coordinator) Detach(i int) error {
	c.lifeMu.Lock()
	defer c.lifeMu.Unlock()
	p, _, err := c.partition(i)
	if err != nil {
		return err
	}
	if !p.live.Load() {
		return fmt.Errorf("%w: partition %d is not live", ErrNotDetached, i)
	}
	p.held.Store(true)
	c.markDown(p, fmt.Errorf("partition %d detached", i))
	return nil
}

// Rejoin catches partition i up — journal shipping for the retained
// tail, filtered log replay past the journal's retention — and returns
// it to serving, exactly current.
func (c *Coordinator) Rejoin(i int) error {
	c.lifeMu.Lock()
	defer c.lifeMu.Unlock()
	p, w, err := c.partition(i)
	if err != nil {
		return err
	}
	if p.live.Load() || !p.held.Load() || w.sys == nil {
		return fmt.Errorf("%w: partition %d must be detached (not killed) to rejoin", ErrNotDetached, i)
	}
	if err := c.revive(p); err != nil {
		return err
	}
	p.held.Store(false)
	return nil
}

// Kill closes partition i's System and discards it — simulating (or
// handling) a dead replica. Restart rebuilds it.
func (c *Coordinator) Kill(i int) error {
	c.lifeMu.Lock()
	defer c.lifeMu.Unlock()
	p, w, err := c.partition(i)
	if err != nil {
		return err
	}
	if w.sys == nil {
		return fmt.Errorf("%w: partition %d is already killed", ErrNotDetached, i)
	}
	p.held.Store(true)
	// Under the write lock no commit is mid-apply on the worker.
	c.writeMu.Lock()
	w.local.Reset(nil)
	c.writeMu.Unlock()
	c.markDown(p, fmt.Errorf("partition %d killed", i))
	sys := w.sys
	w.sys = nil
	return sys.Close()
}

// Restart bootstraps a killed partition from scratch: a fresh System
// takes the router's documents and the log (journal, or log file past
// its retention) through catch-up, then goes live.
func (c *Coordinator) Restart(i int) error {
	c.lifeMu.Lock()
	defer c.lifeMu.Unlock()
	p, w, err := c.partition(i)
	if err != nil {
		return err
	}
	if w.sys != nil {
		return fmt.Errorf("%w: partition %d is not killed (use Rejoin for detached partitions)", ErrNotDetached, i)
	}
	sys, srv, err := c.newWorker()
	if err != nil {
		return err
	}
	w.local.Reset(srv)
	if err := c.revive(p); err != nil {
		w.local.Reset(nil)
		sys.Close()
		return err
	}
	w.sys = sys
	p.held.Store(false)
	return nil
}

func (c *Coordinator) partition(i int) (*netPeer, *worker, error) {
	if i < 0 || i >= len(c.workers) {
		return nil, nil, fmt.Errorf("partition: no partition %d (have %d)", i, len(c.workers))
	}
	return c.peers[i], c.workers[i], nil
}
