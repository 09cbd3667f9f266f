// Package cluster is the horizontal scale-out tier: a consistent-hash
// router embedded in every corgi-server node that pins each user's report
// session and epsilon budget to one owner node, so warm-path draws never
// cross a node boundary and fleet throughput scales with node count.
//
// The design follows the ROADMAP's distributed-serving item: routing, not
// re-solving, is the scaling primitive. The paper's per-user guarantees —
// linear epsilon composition across a trajectory's reports — only hold if
// one accountant sees every charge for a user, and session draw sequences
// only replay deterministically if one RNG stream serves them. Both are
// per-uid state, so the ring hashes uids: a user always lands on the same
// node regardless of which node their client dialed, and the non-owner
// nodes forward over the corgi-stream transport instead of serving
// locally. Budget coherence across rebalances and failovers rides on
// internal/budget's windowed handoff protocol (see router.go).
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVnodes is each member's virtual-node count. The count is fixed
// (never a function of who else is in the ring): a member contributes the
// same hash points to every ring it appears in, which is what makes
// membership changes move only ~1/N of the keyspace. 256 points keeps
// shares within a few percent of 1/N before the spill pass intervenes.
const DefaultVnodes = 256

// DefaultMaxLoadFactor bounds any member's keyspace share at
// MaxLoadFactor/N (the "bounded load" variant): excess arcs of an
// over-bound member spill to under-bound members, deterministically, so
// every node computes the same spilled ring.
const DefaultMaxLoadFactor = 1.25

// ringPoint is one virtual node: a hash position owned by a member.
type ringPoint struct {
	hash   uint64
	member int // index into members
}

// Ring is an immutable consistent-hash ring over named members. Every
// node (and the cluster-aware clients) builds the ring from the same
// member list with the same parameters, so ownership decisions agree
// across the fleet with no coordination — determinism is what lets the
// router run embedded in every node instead of as a separate proxy.
type Ring struct {
	members []string
	points  []ringPoint
	vnodes  int
	shares  []float64
}

// NewRing builds a ring over members (order-insensitive; the list is
// sorted and must be non-empty and duplicate-free). vnodes <= 0 uses
// DefaultVnodes; maxLoad <= 1 uses DefaultMaxLoadFactor. Each member's
// hash points depend only on its own name and the vnode count — never on
// the rest of the membership — so adding or removing a member leaves the
// survivors' points in place and moves only the arcs the change touches.
// A deterministic spill pass then enforces the bounded-load cap: every
// node independently arrives at the same ring.
func NewRing(members []string, vnodes int, maxLoad float64) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	for i, m := range sorted {
		if m == "" {
			return nil, fmt.Errorf("cluster: empty member name")
		}
		if i > 0 && sorted[i-1] == m {
			return nil, fmt.Errorf("cluster: duplicate member %q", m)
		}
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	if maxLoad <= 1 {
		maxLoad = DefaultMaxLoadFactor
	}
	r := build(sorted, vnodes)
	if len(sorted) > 1 {
		r.spill(maxLoad / float64(len(sorted)))
	}
	return r, nil
}

// build places vnodes hash points per member and sorts them.
func build(members []string, vnodes int) *Ring {
	r := &Ring{
		members: members,
		vnodes:  vnodes,
		points:  make([]ringPoint, 0, len(members)*vnodes),
	}
	for mi, m := range members {
		for v := 0; v < vnodes; v++ {
			h := fnv.New64a()
			h.Write([]byte(m))
			h.Write([]byte("#"))
			h.Write([]byte(strconv.Itoa(v)))
			// fnv over near-identical keys ("m#17" vs "m#18") clusters;
			// the splitmix64 finalizer spreads the points uniformly, the
			// same treatment uid keys get in locate.
			r.points = append(r.points, ringPoint{hash: mix64(h.Sum64()), member: mi})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	r.shares = make([]float64, len(members))
	// Each point owns the arc that ends at it (keys hash-forward to the
	// next point clockwise), so point i's arc runs from point i-1 to i.
	prev := r.points[len(r.points)-1].hash
	for i, p := range r.points {
		arc := p.hash - prev // uint64 wraparound handles the first point
		r.shares[p.member] += float64(arc) / (1 << 64)
		prev = r.points[i].hash
	}
	return r
}

// spill enforces the bounded-load cap. While some member's keyspace share
// exceeds bound, one of its arcs is reassigned to another member: the
// largest arc that fits inside the member's excess (so the move never
// overshoots), received by the first clockwise member that stays under
// the cap after absorbing it. Every choice is a deterministic function of
// the sorted member list, so all nodes compute identical spills. Only the
// excess over the cap ever moves — a few percent of the keyspace at most
// — and the un-spilled points never change, which preserves the ~1/N
// movement bound across membership changes.
func (r *Ring) spill(bound float64) {
	const eps = 1e-15
	arcs := make([]float64, len(r.points))
	prev := r.points[len(r.points)-1].hash
	for i, p := range r.points {
		arcs[i] = float64(p.hash-prev) / (1 << 64)
		prev = p.hash
	}
	for iter := 0; iter < len(r.points); iter++ {
		// Most-loaded member, if any is over the cap (ties: lowest index).
		over := -1
		for m, s := range r.shares {
			if s > bound+eps && (over < 0 || s > r.shares[over]) {
				over = m
			}
		}
		if over < 0 {
			return
		}
		// Its largest arc that fits inside the excess; if every arc is
		// bigger than the excess, the smallest arc (still a strict
		// improvement, converges under the iteration cap).
		excess := r.shares[over] - bound
		fit, small := -1, -1
		for i, p := range r.points {
			if p.member != over {
				continue
			}
			if arcs[i] <= excess+eps && (fit < 0 || arcs[i] > arcs[fit]) {
				fit = i
			}
			if small < 0 || arcs[i] < arcs[small] {
				small = i
			}
		}
		pi := fit
		if pi < 0 {
			pi = small
		}
		if pi < 0 {
			return
		}
		// Receiver: first member clockwise from the arc that stays under
		// the cap after absorbing it; fall back to the least loaded.
		to := -1
		for n := 1; n < len(r.points); n++ {
			m := r.points[(pi+n)%len(r.points)].member
			if m != over && r.shares[m]+arcs[pi] <= bound+eps {
				to = m
				break
			}
		}
		if to < 0 {
			for m := range r.shares {
				if m != over && (to < 0 || r.shares[m] < r.shares[to]) {
					to = m
				}
			}
		}
		r.shares[over] -= arcs[pi]
		r.shares[to] += arcs[pi]
		r.points[pi].member = to
	}
}

// mix64 is the splitmix64 finalizer: uids are often small sequential
// integers, and fnv over 8 little-endian bytes clusters them; the
// finalizer spreads them uniformly over the 64-bit keyspace.
func mix64(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// locate returns the index of the first ring point at or after the key's
// hash (wrapping to 0 past the last point).
func (r *Ring) locate(uid int64) int {
	h := mix64(uint64(uid))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Owner returns the member that owns a uid's session and budget.
func (r *Ring) Owner(uid int64) string {
	return r.members[r.points[r.locate(uid)].member]
}

// Sequence returns every member in the uid's failover order: the owner
// first, then each distinct member encountered walking the ring clockwise.
// A router that cannot reach the owner tries the next member in this
// order, and every node computes the same order — so during an outage the
// whole fleet agrees on the interim owner without coordination.
func (r *Ring) Sequence(uid int64) []string {
	out := make([]string, 0, len(r.members))
	seen := make([]bool, len(r.members))
	for i, n := r.locate(uid), 0; n < len(r.points) && len(out) < len(r.members); n++ {
		p := r.points[(i+n)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, r.members[p.member])
		}
	}
	return out
}

// Members returns the ring's member names, sorted.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Vnodes returns the virtual-node count per member.
func (r *Ring) Vnodes() int { return r.vnodes }

// Shares returns each member's keyspace share (fractions summing to 1).
func (r *Ring) Shares() map[string]float64 {
	out := make(map[string]float64, len(r.members))
	for i, m := range r.members {
		out[m] = r.shares[i]
	}
	return out
}
