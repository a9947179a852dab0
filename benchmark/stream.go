package main

// The benchmark's own traffic generator. Everything here is a pure
// function of (seed, workload kind, client index, op index): the same
// seed gives the same op stream on every run, whatever the server's
// speed, because a closed-loop client simply consumes its stream more
// slowly. cmd/loadgen is deliberately not reused: it draws every group
// uniformly from all users, so at 1,000 patients no group repeats and
// the server's unbounded group memo only grows (see README.md).

import (
	"math/rand"
)

const (
	// clients is the closed-loop client count (the box has 2 cores;
	// callers wait for their reply, so a closed loop is the model).
	clients = 2
	// groupSize and listZ shape every query: 4-member groups, top-8.
	groupSize = 4
	listZ     = 8
	// hotPoolSize is the fixed pool warm_* traffic draws from; every
	// group in it is queried once in warm-up, so timed queries are
	// group-memo hits.
	hotPoolSize = 256
	// batchQueries is the size of one recommend:batch request.
	batchQueries = 16
	// writeEvery makes op i of a churn client a rating write when
	// i%writeEvery == writeEvery-1.
	writeEvery = 5
	// probeGroups × len(probeScorers) queries compare the servers to
	// the oracle after churn traffic quiesces.
	probeGroups = 64
)

// churnScorers is the scorer of a churn client's j-th query, j%4:
// user-cf : item-cf : profile = 2 : 1 : 1.
var churnScorers = [4]string{"user-cf", "user-cf", "item-cf", "profile"}

// probeScorers are the scorers the post-churn probe set covers.
var probeScorers = [3]string{"user-cf", "item-cf", "profile"}

type opKind uint8

const (
	opQuery opKind = iota
	opWrite
	opBatch
	// opTouch asks for one user's peer set. Only warm-up sends it: it
	// fills that user's similarity row and peer set on whichever
	// process owns them.
	opTouch
)

// className labels an op class in reports and spans.
func (k opKind) className() string {
	switch k {
	case opQuery:
		return "group"
	case opWrite:
		return "rating"
	case opBatch:
		return "batch"
	default:
		return "peers"
	}
}

// query is one group query of the stream. hot is the group's index in
// the hot pool, or -1 for a fresh group.
type query struct {
	members []string
	scorer  string // "" = server default (user-cf)
	hot     int
}

// op is one request of the stream: a single query, a batch of
// batchQueries queries, one rating write, or (warm-up only) one user's
// peer set.
type op struct {
	kind    opKind
	queries []query
	user    string
	item    string
	value   float64
}

// corpus is the ID space the stream draws from, in dataset order.
type corpus struct {
	users []string
	items []string
}

// plan fixes everything a run's traffic derives from.
type plan struct {
	seed  int64
	churn bool
	corpus
	hot [][]string // the hot pool (warm and churn plans both carry it)
}

// subSeed derives an independent PRNG seed per (purpose, client) from
// the run seed with a splitmix64 step, so neighbouring seeds do not
// produce correlated streams.
func subSeed(seed int64, purpose, client int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(purpose)*0xbf58476d1ce4e5b9 + uint64(client)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// PRNG purposes (subSeed's second argument).
const (
	purposeHotPool = iota
	purposeMain
	purposeBatch
	purposeWrites
	purposeProbe
)

func newPlan(seed int64, churn bool, c corpus) *plan {
	p := &plan{seed: seed, churn: churn, corpus: c}
	rng := rand.New(rand.NewSource(subSeed(seed, purposeHotPool, 0)))
	fresh := newFreshGroups(rng, c.users)
	p.hot = make([][]string, hotPoolSize)
	for i := range p.hot {
		p.hot[i] = fresh.next()
	}
	return p
}

// freshGroups hands out ordered member tuples that never repeat within
// one generator (the group memo key preserves member order, so "never
// repeated" means the ordered tuple).
type freshGroups struct {
	rng   *rand.Rand
	users []string
	seen  map[[groupSize]int]struct{}
}

func newFreshGroups(rng *rand.Rand, users []string) *freshGroups {
	return &freshGroups{rng: rng, users: users, seen: make(map[[groupSize]int]struct{})}
}

func (f *freshGroups) next() []string {
	for {
		var idx [groupSize]int
		for k := 0; k < groupSize; {
			v := f.rng.Intn(len(f.users))
			dup := false
			for _, prev := range idx[:k] {
				if prev == v {
					dup = true
				}
			}
			if !dup {
				idx[k] = v
				k++
			}
		}
		if _, dup := f.seen[idx]; dup {
			continue
		}
		f.seen[idx] = struct{}{}
		g := make([]string, groupSize)
		for k, v := range idx {
			g[k] = f.users[v]
		}
		return g
	}
}

// clientStream is one client's deterministic op sequence. The main
// schedule, the batch phase and the write burst each have their own
// PRNG, so how far one phase ran never changes what another sends.
type clientStream struct {
	p       *plan
	client  int
	main    *rand.Rand
	batch   *rand.Rand
	writes  *rand.Rand
	fresh   *freshGroups // main-schedule fresh groups
	bfresh  *freshGroups // batch-phase fresh groups
	ops     int          // main-schedule ops handed out
	queries int          // main-schedule queries handed out (scorer rotation)
	bq      int          // batch-phase queries handed out
}

func (p *plan) client(c int) *clientStream {
	s := &clientStream{
		p: p, client: c,
		main:   rand.New(rand.NewSource(subSeed(p.seed, purposeMain, c))),
		batch:  rand.New(rand.NewSource(subSeed(p.seed, purposeBatch, c))),
		writes: rand.New(rand.NewSource(subSeed(p.seed, purposeWrites, c))),
	}
	s.fresh = newFreshGroups(s.main, p.users)
	s.bfresh = newFreshGroups(s.batch, p.users)
	return s
}

// next is the client's next main-schedule op. Warm plans are read-only
// over the hot pool. Churn plans write on every writeEvery-th op and
// otherwise query a fresh group under the rotating scorer.
func (s *clientStream) next() op {
	i := s.ops
	s.ops++
	if !s.p.churn {
		h := s.main.Intn(len(s.p.hot))
		return op{kind: opQuery, queries: []query{{members: s.p.hot[h], hot: h}}}
	}
	if i%writeEvery == writeEvery-1 {
		return s.nextWrite()
	}
	q := query{members: s.fresh.next(), scorer: churnScorers[s.queries%len(churnScorers)], hot: -1}
	s.queries++
	return op{kind: opQuery, queries: []query{q}}
}

// nextWrite is the client's next rating write. Client c writes only
// users whose index ≡ c (mod clients), so the clients' write sets are
// disjoint and the final state does not depend on how their writes
// interleaved.
func (s *clientStream) nextWrite() op {
	n := len(s.p.users)
	slots := (n - s.client + clients - 1) / clients
	u := s.client + clients*s.writes.Intn(slots)
	return op{
		kind:  opWrite,
		user:  s.p.users[u],
		item:  s.p.items[s.writes.Intn(len(s.p.items))],
		value: 1 + 0.5*float64(s.writes.Intn(9)), // 1.0, 1.5 … 5.0
	}
}

// nextBatch is the client's next recommend:batch op: batchQueries
// hot-pool groups on a warm plan, fresh groups under the rotating
// scorer on a churn plan.
func (s *clientStream) nextBatch() op {
	qs := make([]query, batchQueries)
	for k := range qs {
		if s.p.churn {
			qs[k] = query{members: s.bfresh.next(), scorer: churnScorers[s.bq%len(churnScorers)], hot: -1}
		} else {
			h := s.batch.Intn(len(s.p.hot))
			qs[k] = query{members: s.p.hot[h], hot: h}
		}
		s.bq++
	}
	return op{kind: opBatch, queries: qs}
}

// hotQueries is one query per hot-pool group, in pool order.
func (p *plan) hotQueries() []query {
	qs := make([]query, len(p.hot))
	for h, g := range p.hot {
		qs[h] = query{members: g, hot: h}
	}
	return qs
}

// queryOps wraps each query in a single-query op.
func queryOps(qs []query) []op {
	ops := make([]op, len(qs))
	for i, q := range qs {
		ops[i] = op{kind: opQuery, queries: []query{q}}
	}
	return ops
}

// touchOps is one peer-set request per user, in corpus order.
func (p *plan) touchOps() []op {
	ops := make([]op, len(p.users))
	for i, u := range p.users {
		ops[i] = op{kind: opTouch, user: u}
	}
	return ops
}

// probeSet is the post-churn comparison set: probeGroups fresh groups,
// each asked under every probe scorer.
func (p *plan) probeSet() []query {
	rng := rand.New(rand.NewSource(subSeed(p.seed, purposeProbe, 0)))
	fresh := newFreshGroups(rng, p.users)
	out := make([]query, 0, probeGroups*len(probeScorers))
	for g := 0; g < probeGroups; g++ {
		members := fresh.next()
		for _, sc := range probeScorers {
			out = append(out, query{members: members, scorer: sc, hot: -1})
		}
	}
	return out
}
