// Package partition scales serving out across N System partitions
// behind one fan-out/merge router (Networked), whose workers are
// remote processes or, through Coordinator, in-process Systems (the
// paper's platform, §II, assumes a backing store larger than one
// node's memory).
//
// Placement is a consistent-hash ring with virtual nodes: each user is
// owned by one partition, deterministically, and adding or removing a
// partition moves only the keys adjacent to its virtual nodes. What
// ownership means here: every partition holds a full replica of the
// WAL-logged state (the similarity, peer, and scoring models are
// global — a user-cf peer can be ANY rater, item-cf neighbors span the
// whole ratings matrix, and the profile scorer's IDF weights are
// corpus-wide — so splitting raw state would change answers), while
// the owner is the partition that COMPUTES and CACHES the user's
// relevance work. Derived state (similarity rows, peer sets, per-user
// candidate scores) is what dominates memory at scale, and it
// materializes only on the owner; the coordinator fans a group query's
// per-member assembly out to each member's owner and merges, so
// answers stay bit-identical to a single unpartitioned System.
package partition

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVirtualNodes is the per-partition virtual node count when
// Config leaves it zero. 64 vnodes keep the expected ownership
// imbalance across a handful of partitions within a few percent.
const DefaultVirtualNodes = 64

// Ring is a consistent-hash ring over n partitions with v virtual
// nodes each. It is immutable after construction: liveness is a lookup
// argument, not ring state, so a detached partition changes no
// placements when it rejoins.
type Ring struct {
	n      int
	vnodes int
	points []ringPoint // sorted by hash, ties broken by partition id
}

type ringPoint struct {
	hash uint64
	part int
}

// NewRing builds the ring. Placement depends only on (n, vnodes), so
// every process that builds a ring with the same shape routes every
// user identically.
func NewRing(n, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	points := make([]ringPoint, 0, n*vnodes)
	for p := 0; p < n; p++ {
		for v := 0; v < vnodes; v++ {
			points = append(points, ringPoint{
				hash: hash64(fmt.Sprintf("partition-%d-vnode-%d", p, v)),
				part: p,
			})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].part < points[j].part
	})
	return &Ring{n: n, vnodes: vnodes, points: points}
}

// Partitions returns the partition count.
func (r *Ring) Partitions() int { return r.n }

// VirtualNodes returns the per-partition virtual node count.
func (r *Ring) VirtualNodes() int { return r.vnodes }

// Owner returns the partition owning key: the partition of the first
// virtual node clockwise from the key's hash.
func (r *Ring) Owner(key string) int {
	return r.points[r.successor(hash64(key))].part
}

// OwnerLive returns the first partition clockwise from the key's hash
// for which live reports true — the serving owner while some
// partitions are detached. ok is false when no partition is live.
// With every partition live it equals Owner.
func (r *Ring) OwnerLive(key string, live func(int) bool) (part int, ok bool) {
	start := r.successor(hash64(key))
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)].part
		if live(p) {
			return p, true
		}
	}
	return 0, false
}

// Position returns the sorted virtual-node hashes of partition p — its
// ring positions, for stats and debugging.
func (r *Ring) Position(p int) []uint64 {
	out := make([]uint64, 0, r.vnodes)
	for _, pt := range r.points {
		if pt.part == p {
			out = append(out, pt.hash)
		}
	}
	return out
}

// Share returns the fraction of the hash space partition p owns — the
// summed arc length of its virtual nodes, which is what the expected
// fraction of users hashing to p converges to.
func (r *Ring) Share(p int) float64 {
	if len(r.points) == 0 {
		return 0
	}
	var arc uint64
	for i, pt := range r.points {
		if pt.part != p {
			continue
		}
		// The arc ENDING at this virtual node belongs to it (Owner
		// picks the first point clockwise from the key).
		prev := r.points[(i+len(r.points)-1)%len(r.points)].hash
		arc += pt.hash - prev // uint64 wraparound handles the first point
	}
	return float64(arc) / float64(^uint64(0))
}

// successor finds the index of the first ring point with hash > h,
// wrapping to 0 past the end.
func (r *Ring) successor(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash > h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// hash64 is FNV-1a finished with a splitmix64-style mixer — stable
// across processes and Go versions, unlike the runtime's randomized
// map hash. The finalizer matters: FNV alone barely diffuses trailing
// bytes (strings differing only in a final digit land within ~0.1% of
// the ring), which clumps both virtual nodes and sequential user IDs.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: a bijective avalanche over
// uint64, so every input bit flips each output bit with ~50% odds.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
